"""Host-kernel canary: the rounding that the goldens and digest pins encode.

The golden reports, the perfbench digest pins and the scrolled-snapshot
sha256 are bit-exact only on a host whose BLAS kernel and numpy SIMD
dispatch round as this project's reference host does (OpenBLAS `SkylakeX`,
numpy's AVX-512 targets). These tests pin that arithmetic directly, so a
host that rounds differently fails here with the reason, beside the
goldens' bare byte mismatch:

- BLAS `ddot` on 3- and 4-element rows, as `np.vecdot` and `np.linalg.norm`
  of one vector call it, and the one-row `matmul` path: the FMA chain
  `s = x0*y0`, then `s = fma(xk, yk, s)` for k = 1, 2, ... The oracle is
  exact rational arithmetic (`fractions.Fraction`) rounded once per step.
  `Haswell` gives the plain left-to-right sum instead.
- The stacked `np.vecdot` of `reward.compute_terms` and `metrics.rte`,
  which must round each row as the one-row `x @ x` that a single tick or
  segment took, and `np.float_power(x, 2)`, which must round as a float's
  `** 2` (libm's pow, not x * x).
- The stacked `np.arctan2` of `geometry.yaw_from_quat`, whose AVX-512 loop
  rounds in its own way: pinned `float.hex` values on a fixed sample.
"""

from fractions import Fraction

import numpy as np
import pytest

from elevsim.geometry import yaw_from_quat

pytestmark = pytest.mark.host_bits

DOT_DEPENDENTS = (
    "Depends on it: the tests/golden reports (gt_two_cameras and step_sweep move under "
    "the Haswell kernel; all four under Sandybridge, Nehalem or Prescott), every pin in "
    "tests/test_bench_digests.py, and test_elevmap_ring.py::test_scrolled_snapshots_same_bytes. "
)
ARCTAN2_DEPENDENTS = (
    "Depends on it: the golden tests/golden/ekf_vio_noisy_turn, whose turn yaws the "
    "chamfer patch (`Pose.yaw_rotation` into `scene.ground_truth_patch`); the digest "
    "pins held with numpy's AVX-512 dispatch switched off, but fusion_vio_noisy reads "
    "the same site. Site: `geometry.yaw_from_quat` (np.arctan2 on a stack)."
)


def _fma_chain(x, y) -> float:
    """x0*y0, then fma(xk, yk, s) for each further k, each step rounded once."""
    s = float(Fraction(x[0]) * Fraction(y[0]))
    for a, b in zip(x[1:], y[1:]):
        s = float(Fraction(a) * Fraction(b) + Fraction(s))
    return s


def _rows(n: int) -> np.ndarray:
    """300 fixed rows of n floats; in about one in five, the FMA chain and
    the left-to-right sum round apart."""
    return np.random.default_rng(n).normal(size=(300, n))


def _moved(got: np.ndarray, want: np.ndarray) -> str:
    k = np.flatnonzero(got != want)
    return f"{len(k)} of {len(got)} results differ, first at row {k[0]}"


@pytest.mark.parametrize("n", [4, 3])
def test_vecdot_is_the_fma_chain(n):
    rows = _rows(n)
    got = np.vecdot(rows, rows)
    want = np.array([_fma_chain(r, r) for r in rows])
    site = ("`geometry.quat_normalize` (np.vecdot of each quaternion)" if n == 4 else
            "`cloudfilter.body_filter` (np.vecdot of the capsule axes)")
    assert got.tobytes() == want.tobytes(), (
        f"np.vecdot on {n}-element rows is not the FMA chain: {_moved(got, want)}. "
        + DOT_DEPENDENTS + f"Site: {site}."
    )


def test_norm_of_one_vector_is_the_fma_chain():
    rows = _rows(3)
    got = np.array([np.linalg.norm(r) for r in rows])
    want = np.sqrt([_fma_chain(r, r) for r in rows])
    assert got.tobytes() == want.tobytes(), (
        f"np.linalg.norm of one 3-vector is not the root of the FMA chain: "
        f"{_moved(got, want)}. " + DOT_DEPENDENTS
        + "Site: `geometry.quat_from_axis_angle` (np.linalg.norm of the axis)."
    )


def test_one_row_matmul_is_the_fma_chain():
    a, b = _rows(3), _rows(3)[::-1].copy()
    single = np.array([(x[None, :] @ y[:, None])[0, 0] for x, y in zip(a, b)])
    # a stack of one-row products, as body_filter's (9, 1, 3) @ (9, 3, 1)
    stacked = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    want = np.array([_fma_chain(x, y) for x, y in zip(a, b)])
    for got in (single, stacked):
        assert got.tobytes() == want.tobytes(), (
            f"a one-row matmul is not the FMA chain: {_moved(got, want)}. " + DOT_DEPENDENTS
            + "Site: `cloudfilter.body_filter` (one point near the body, whose guard adds a "
            "second one)."
        )


STACK_DEPENDENTS = (
    "Depends on it: `reward_mean` (`reward.compute_terms` on the stack of a run's control "
    "ticks) and `rte_mean_m` (`metrics.rte` on all its segments at once), in the "
    "tests/golden reports and every pin in tests/test_bench_digests.py."
)


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_stacked_vecdot_is_the_one_row_dot(n):
    rows = _rows(n)
    got = np.vecdot(rows, rows)
    want = np.array([x @ x for x in rows])
    assert got.tobytes() == want.tobytes(), (
        f"np.vecdot on a stack of {n}-element rows is not the one-row x @ x: "
        f"{_moved(got, want)}. " + STACK_DEPENDENTS
    )


def test_float_power_is_a_floats_square():
    x = np.random.default_rng(2).normal(size=20000)
    got = np.float_power(x, 2)
    want = np.array([v**2 for v in x])  # numpy float64 scalars: libm's pow
    assert got.tobytes() == want.tobytes(), (
        f"np.float_power(x, 2) does not round as a float's ** 2: {_moved(got, want)}. "
        + STACK_DEPENDENTS
    )


# yaw_from_quat of the sample below on the reference host
YAW_HEX = (
    "-0x1.4589912d9d496p-5", "-0x1.626b355ea168fp+1", "-0x1.1adda6f4d594fp-1",
    "-0x1.1c51ef10ebf2dp+0", "-0x1.e66b771184ff3p+0", "0x1.1c2fa6a1dc1c5p+1",
    "-0x1.d28750edaa511p-2", "-0x1.b86f01c567622p-2", "-0x1.10524cb4e6897p-1",
    "-0x1.b709374e92ad9p-1", "-0x1.5758a5020646bp+1", "0x1.42093e42c7adap+1",
    "-0x1.a9b4ac6f13143p-1", "-0x1.2020fd7261537p-2", "-0x1.ab92b242f3215p-4",
    "-0x1.02582ae2f489ap+1", "-0x1.e230194ca57ccp-6", "0x1.15bc21aa24850p+1",
    "-0x1.3409bca9b01abp-5", "-0x1.2f6047250ec33p-5", "-0x1.629cd62f59cc1p-5",
    "-0x1.b804d4cb735d6p-6", "-0x1.d507f640a3a49p-1", "-0x1.cd1987a0b1ba9p+0",
    "0x1.b12dfa0b76b63p-3", "-0x1.43efdffbb57d0p-3", "-0x1.2188fd7bc0b5bp-2",
    "-0x1.0563c6a8cd630p+1", "-0x1.9687c808708b7p-1", "-0x1.aad1a9c85be15p-2",
    "-0x1.affc51ad1aec8p+0", "0x1.10c5b9701f17dp+0", "0x1.6e1b1f69412e8p+0",
    "-0x1.8f398b35cf7eap+1", "0x1.234884ac2b594p-4", "-0x1.60ffa2b8e8494p+1",
    "-0x1.9f21df3a3f15fp+0", "-0x1.050f09845bceep+1", "0x1.1b9c33f98b503p+0",
    "-0x1.ab144e6bb2e0ep+0", "0x1.0a2427ac93666p-1", "-0x1.5f75964d172ccp-2",
    "-0x1.05377c994182ep+1", "0x1.27a4027232395p+0", "0x1.36ac35bebe1d4p-3",
    "-0x1.37efbcbfb5b07p-3", "0x1.7bb7f08d227e0p-1", "-0x1.be9612d6a0b07p-6",
    "-0x1.7c167c4abc55bp-4", "0x1.1eb607063d7e1p+0", "-0x1.c097e230a0a01p-1",
    "0x1.605acd0c126a0p+0", "-0x1.58222a6252391p-2", "0x1.e1acdb471e647p-3",
    "0x1.ac22eeb3efb3ap-1", "0x1.eac5b4e2bb480p-4", "-0x1.1e215f17e23acp-10",
    "0x1.127526072fea5p-1", "0x1.5f151a7a5c0abp-2", "0x1.c7c4c6ec13a27p-3",
    "-0x1.776afacd38dacp+0", "0x1.cbf5482453a48p+0", "-0x1.d8949c5fa227fp-3",
    "-0x1.372105fc6e6ebp+1",
)


def test_stacked_arctan2_keeps_its_bits():
    # unnormalized, near-level quaternions: only elementwise products and
    # sums, which round alike on every host, reach the arctan2; no BLAS call
    q = np.random.default_rng(20).uniform(-1, 1, (64, 4))
    q[:, 1:3] *= 0.05
    got = [v.hex() for v in yaw_from_quat(q)]
    moved = [k for k, (g, w) in enumerate(zip(got, YAW_HEX)) if g != w]
    assert not moved, (
        f"the stacked np.arctan2 rounds differently at rows {moved}. " + ARCTAN2_DEPENDENTS
    )
