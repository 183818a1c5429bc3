"""Multilevel gray-image thresholding by agglomerative merging of histogram classes."""

__version__ = "0.1.0"

from .engine import (
    EmptyHistogram,
    InvalidLevel,
    MergeTrace,
    histogram_from_csv,
    histogram_from_json,
    run_dendrogram,
    thresholds_at,
    thresholds_at_levels,
)
from .metrics import (
    DimensionMismatch,
    RangeMismatch,
    level_stats,
    map_to_class_means,
    psnr,
    psnr_at_levels,
    quantize,
)
from .pgm import PgmError, histogram_of, read_pgm

__all__ = [
    "__version__",
    "DimensionMismatch",
    "EmptyHistogram",
    "InvalidLevel",
    "MergeTrace",
    "PgmError",
    "RangeMismatch",
    "histogram_from_csv",
    "histogram_from_json",
    "histogram_of",
    "level_stats",
    "map_to_class_means",
    "psnr",
    "psnr_at_levels",
    "quantize",
    "read_pgm",
    "run_dendrogram",
    "thresholds_at",
    "thresholds_at_levels",
]
