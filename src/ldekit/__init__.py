"""ldekit: dictionary-encoding pooling for variable-length sequence
classification, with a per-class GMM baseline, a small 1-D residual
front-end, a trainer, synthetic data, and detection metrics."""

__version__ = "0.1.0"
