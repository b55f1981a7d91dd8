"""Statistics: Gaussian fitting, weight summaries, histograms."""

from repro.stats.describe import WeightSummary, gaussian_overlap, summarize_weights
from repro.stats.gaussian import GaussianFit
from repro.stats.histogram import Histogram, weight_histogram

__all__ = [
    "GaussianFit",
    "Histogram",
    "WeightSummary",
    "gaussian_overlap",
    "summarize_weights",
    "weight_histogram",
]
