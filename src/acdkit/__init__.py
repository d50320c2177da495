"""Anomaly change detection for co-registered hyperspectral image pairs.

The toolkit trains a pair of bottleneck spectral predictors on pre-detected
unchanged pixels, scores each pixel by the minimum of the two directional
prediction errors, and averages repeated runs into a change-intensity map.
Classical linear detectors (Diff-RX, Chronochrome, Covariance Equalization),
ROC/AUC evaluation, a deterministic synthetic-scene generator, and a CLI
round out the package.
"""

__version__ = "0.1.0"

from .acda import (
    AcdaConfig,
    AcdaRun,
    default_shape,
    fuse_min,
    loss_map,
    predict_image,
    prepare_samples,
    run_acda,
)
from .baselines import LinearPredictor, baseline_map, diff_rx, fit_cc, fit_ce, run_baseline
from .core import (
    GroundTruthMask,
    HyperCube,
    IntensityMap,
    cube_to_map,
    flatten,
    map_to_cube,
    read_cube,
    read_mask,
    unflatten,
    write_cube,
    write_mask,
)
from .errors import AcdkitError, DataIOError, NumericalError, ValidationError
from .evaluate import RocCurve, export_curve, export_map, export_map_pgm, read_curve, roc, stretch2
from .neural import (
    AdamState,
    MlpParams,
    NetworkShape,
    SampleSet,
    TrainConfig,
    adam_step,
    backward,
    forward_batch,
    init_params,
    loss,
)
from .predetect import (
    ClusterResult,
    UsfaModel,
    default_sample_count,
    kmeans_1d,
    select_samples,
    usfa_fit,
    usfa_intensity,
)
from .synth import AnomalyRect, SceneSpec, describe, generate

__all__ = [
    "__version__",
    "AcdaConfig",
    "AcdaRun",
    "AcdkitError",
    "AdamState",
    "AnomalyRect",
    "ClusterResult",
    "DataIOError",
    "GroundTruthMask",
    "HyperCube",
    "IntensityMap",
    "LinearPredictor",
    "MlpParams",
    "NetworkShape",
    "NumericalError",
    "RocCurve",
    "SampleSet",
    "SceneSpec",
    "TrainConfig",
    "UsfaModel",
    "ValidationError",
    "adam_step",
    "backward",
    "baseline_map",
    "cube_to_map",
    "default_sample_count",
    "default_shape",
    "describe",
    "diff_rx",
    "export_curve",
    "export_map",
    "export_map_pgm",
    "fit_cc",
    "fit_ce",
    "flatten",
    "forward_batch",
    "fuse_min",
    "generate",
    "init_params",
    "kmeans_1d",
    "loss",
    "loss_map",
    "map_to_cube",
    "predict_image",
    "prepare_samples",
    "read_cube",
    "read_curve",
    "read_mask",
    "roc",
    "run_acda",
    "run_baseline",
    "select_samples",
    "stretch2",
    "unflatten",
    "usfa_fit",
    "usfa_intensity",
    "write_cube",
    "write_mask",
]
