"""Single-component Gaussian fitting, replacing ``sklearn.GaussianMixture``.

The paper fits ``scikit-learn.GaussianMixture`` with **one** component to each
layer's weights and then calls ``score_samples`` to get per-weight
log-probabilities.  A one-component GMM fit is exactly the maximum-likelihood
Gaussian fit (sample mean, sample variance), so :class:`GaussianFit` computes
it in closed form with identical numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import NonFiniteWeightError, ShapeError

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianFit:
    """A fitted 1-D Gaussian ``N(mean, std^2)``.

    Attributes
    ----------
    mean:
        Sample mean of the fitted data.
    std:
        Sample standard deviation (maximum-likelihood, i.e. ``ddof=0``,
        matching ``GaussianMixture``'s variance estimate).
    """

    mean: float
    std: float

    @classmethod
    def fit(cls, values: np.ndarray) -> "GaussianFit":
        """Fit the maximum-likelihood Gaussian to ``values`` (any shape)."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            raise ShapeError("cannot fit a Gaussian to an empty array")
        if not np.all(np.isfinite(flat)):
            raise NonFiniteWeightError("values contain NaN or infinity")
        mean = float(flat.mean())
        std = float(flat.std())
        return cls(mean=mean, std=std)

    def log_pdf(self, values: np.ndarray) -> np.ndarray:
        """Log probability density of ``values`` under the fitted Gaussian.

        Mirrors ``GaussianMixture.score_samples`` for a single component
        (the mixture weight is 1, so the mixture log-likelihood is the
        component log-pdf).  A degenerate fit (``std == 0``, e.g. from a
        constant or single-element tensor) assigns ``+inf`` at the mean and
        ``-inf`` elsewhere instead of dividing by zero; a near-degenerate
        ``std`` whose ``z`` overflows yields ``-inf`` (the correct limit)
        without emitting a RuntimeWarning, so the suite stays clean under
        ``-W error::RuntimeWarning``.
        """
        x = np.asarray(values, dtype=np.float64)
        if self.std == 0.0:
            return np.where(x == self.mean, np.inf, -np.inf)
        # -0.5 * (z * z + log 2pi) - log std, with z = (x - mean) / std: the
        # same operations in the same order, in place on one array.
        with np.errstate(over="ignore"):
            out = np.subtract(x, self.mean, out=np.empty_like(x))
            out /= self.std
            np.multiply(out, out, out=out)
            out += _LOG_2PI
            out *= -0.5
            out -= math.log(self.std)
        return out

    def score_samples(self, values: np.ndarray) -> np.ndarray:
        """Alias for :meth:`log_pdf`, matching the scikit-learn name."""
        return self.log_pdf(values)

    def pdf(self, values: np.ndarray) -> np.ndarray:
        """Probability density of ``values`` (Eq. 1 of the paper).

        A degenerate or near-degenerate fit saturates to ``inf`` at the
        mean without emitting an overflow RuntimeWarning.
        """
        with np.errstate(over="ignore"):
            return np.exp(self.log_pdf(values))

    def interval(self, coverage: float) -> tuple[float, float]:
        """Symmetric interval around the mean containing ``coverage`` mass."""
        if not 0.0 < coverage < 1.0:
            raise ValueError(f"coverage must be in (0, 1), got {coverage}")
        from scipy.stats import norm

        half = float(norm.ppf(0.5 + coverage / 2.0))
        return (self.mean - half * self.std, self.mean + half * self.std)
