"""Desk-scale simulator for exteroceptive quadruped locomotion perception:
synthetic terrain and depth sensing, point-cloud filtering, robot-centric
elevation mapping with drift compensation, odometry fusion, observation and
reward machinery, and the associated evaluation metrics.
"""

from .cloudfilter import body_capsules, body_filter, remove_outliers, voxel_downsample
from .elevmap import ElevationMap, SensorVarianceModel
from .geometry import Pose
from .metrics import MetricReport, TrajectorySamples, chamfer_one_way, map_vs_ground_truth, rte, tracking_rms
from .obsbuilder import (
    HeightNoiseState,
    HistoryBuffer,
    ObservationFrame,
    apply_height_noise,
    sample_heights,
)
from .odometry import OdometryEkf, SourceErrorModel, fuse_streams, make_source_streams
from .pipeline import ScenarioConfig, compare_runs, run_scenario, run_step_sweep
from .pointcloud import PointCloud
from .reward import RewardConfig, compute_terms, phi, total
from .scene import (
    FlatRegion,
    Heightfield,
    Platform,
    SceneSpec,
    Step,
    build_scene,
    ground_truth_patch,
    obstacle_scene,
)
from .sensorsim import (
    CameraModel,
    CommandProfile,
    RobotState,
    SensorNoise,
    Trajectory,
    inject_sensor_noise,
    render_depth,
    simulate_trajectory,
)

__version__ = "0.1.0"
