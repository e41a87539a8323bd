"""Property tests for the terrain layer: random inline scenes either fail at
`schema.build(SceneSpec, d, "scene")` with a SceneError, or build a
heightfield whose lookups, runs and bounds agree with the scene's analytic
profile. Malformed scene sections fail with a SceneError too, never another
exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elevsim.scene import GT_PATCH_RESOLUTION, SceneError, SceneSpec, build_scene
from elevsim.schema import build

FILL = -7.0
SPECIAL = st.sampled_from([0.0, float("nan"), float("inf"), float("-inf")])


@st.composite
def scene_dicts(draw) -> tuple[dict, bool]:
    """A flat base and up to three steps or platforms, which may overlap.
    Half the scenes may also hold zeros and non-finite values, and about a
    third are malformed in one way: a primitive key misspelled or missing
    (the `type` too), no extent, `primitives` or a primitive of the wrong
    type, `rise_steps` of the wrong type or with a rise of four numbers, or
    an unknown scene key. Returns the scene and whether it must fail."""
    special = draw(st.booleans())

    def num(lo: float, hi: float) -> float:
        return draw(st.one_of(st.floats(lo, hi), SPECIAL) if special else st.floats(lo, hi))

    def step() -> dict:
        return {"type": "step", "x_start": num(-1.0, 5.0), "height": num(-0.5, 0.5),
                "depth": num(-0.1, 2.0)}

    def platform() -> dict:
        rises = [(num(-0.1, 0.3), num(-0.1, 0.5)) for _ in range(draw(st.integers(0, 3)))]
        return {"type": "platform", "x_start": num(-1.0, 5.0), "rise_steps": rises,
                "platform_height": num(-0.1, 0.5), "platform_length": num(-0.1, 2.0),
                "ramp_slope": num(-0.1, 2.0)}

    prims = [draw(st.sampled_from([step, platform]))() for _ in range(draw(st.integers(0, 3)))]
    d = {
        "extent": [num(0.05, 6.0), num(0.05, 2.0)],
        "primitives": [{"type": "flat", "z": num(-1.0, 1.0)}, *prims],
    }
    fault = draw(st.sampled_from([None] * 12 + ["misspelled", "missing", "extent", "primitives",
                                                "primitive", "rise_steps", "scene_key"]))
    k = draw(st.integers(0, len(d["primitives"]) - 1))
    prim = d["primitives"][k]
    key = draw(st.sampled_from(sorted(prim)))
    if fault == "misspelled":
        # "height" -> "heigth", "z" -> "zz"
        prim[key[:-2] + key[-1] + key[-2] if len(key) > 1 else key * 2] = prim.pop(key)
    elif fault == "missing":
        del prim[key]
        return d, key != "z"  # a flat region's z defaults to 0
    elif fault == "extent":
        del d["extent"]
    elif fault == "primitives":
        d["primitives"] = draw(st.sampled_from([5, "step", None, {"type": "flat", "z": 0.0}]))
    elif fault == "primitive":
        d["primitives"][k] = draw(
            st.sampled_from([5, "flat", None, [0.0], ["type", "flat"], {"type": ["step"]}])
        )
    elif fault == "rise_steps":
        platforms = [p for p in d["primitives"] if p["type"] == "platform"]
        rises = [5, "0.1", None, [0.1, 0.3], [[0.1, 0.3, 0.1, 0.3]], [[0.1, 0.3], 0.1]]
        for p in platforms:
            p["rise_steps"] = draw(st.sampled_from(rises))
        return d, bool(platforms)
    elif fault == "scene_key":
        d[draw(st.sampled_from(["colour", "resolution", "primitive", "type", 1]))] = 1
    return d, fault is not None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=scene_dicts())
def test_scene_rejected_or_profile_consistent(drawn):
    d, malformed = drawn
    if malformed:
        with pytest.raises(SceneError):
            build(SceneSpec, d, "scene")
        return
    try:
        spec = build(SceneSpec, d, "scene")
    except SceneError:
        return
    hf = build_scene(spec)
    nx, ny = hf.extent
    res = GT_PATCH_RESOLUTION

    # every cell center looks up the profile at its x
    xc = (np.arange(nx) + 0.5) * res
    yc = (np.arange(ny) + 0.5) * res
    centers = np.stack(np.meshgrid(xc, yc, indexing="ij"), axis=-1).reshape(-1, 2)
    expect = np.repeat(spec.profile_height(xc), ny)
    np.testing.assert_array_equal(hf.heights_at(centers, fill=FILL), expect)

    # the runs tile [0, nx * res) and change height at each edge
    runs = hf.x_runs
    assert runs[0, 0] == 0.0 and runs[-1, 1] == nx * res
    np.testing.assert_array_equal(runs[1:, 0], runs[:-1, 1])
    assert (runs[1:, 2] != runs[:-1, 2]).all()
    cells = np.rint((runs[:, 1] - runs[:, 0]) / res).astype(int)
    np.testing.assert_array_equal(np.repeat(runs[:, 2], cells), hf.profile)

    # half a cell past each edge of the grid, and a non-finite point, is off it
    w, h = hf.size
    off = np.array(
        [
            [-res / 2, h / 2],
            [w + res / 2, h / 2],
            [w / 2, -res / 2],
            [w / 2, h + res / 2],
            [np.nan, h / 2],
            [w / 2, np.inf],
        ]
    )
    np.testing.assert_array_equal(hf.heights_at(off, fill=FILL), FILL)
