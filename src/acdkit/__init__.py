"""Anomaly change detection for co-registered hyperspectral image pairs.

The toolkit trains a pair of bottleneck spectral predictors on pre-detected
unchanged pixels, scores each pixel by the minimum of the two directional
prediction errors, and averages repeated runs into a change-intensity map.
Classical linear detectors (Diff-RX, Chronochrome, Covariance Equalization),
ROC/AUC evaluation, a deterministic synthetic-scene generator, and a CLI
round out the package. The package root holds only `__version__`; import
the API from the submodules (`acdkit.acda`, `acdkit.synth`, ...).
"""

__version__ = "0.1.0"
