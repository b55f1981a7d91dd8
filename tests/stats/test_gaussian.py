"""Tests for the single-component Gaussian fit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NonFiniteWeightError, QuantizationError, ShapeError
from repro.stats.gaussian import GaussianFit


class TestFit:
    def test_mean_and_std(self, rng):
        data = rng.normal(2.0, 3.0, size=100000)
        fit = GaussianFit.fit(data)
        assert fit.mean == pytest.approx(2.0, abs=0.05)
        assert fit.std == pytest.approx(3.0, abs=0.05)

    def test_any_shape_accepted(self, rng):
        data = rng.normal(size=(10, 10, 3))
        assert GaussianFit.fit(data).std > 0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            GaussianFit.fit(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            GaussianFit.fit(np.array([1.0, np.nan]))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            GaussianFit.fit(np.array([1.0, np.inf]))

    def test_non_finite_error_is_typed(self):
        """The rejection carries the typed error (still a ValueError) so the
        engine can classify it in a QuantizationReport."""
        with pytest.raises(NonFiniteWeightError) as excinfo:
            GaussianFit.fit(np.array([np.inf, 1.0]))
        assert isinstance(excinfo.value, QuantizationError)

    def test_uses_population_std(self):
        # ddof=0, matching sklearn's GaussianMixture variance estimate.
        data = np.array([0.0, 2.0])
        assert GaussianFit.fit(data).std == pytest.approx(1.0)

    def test_constant_tensor_fits_with_zero_std(self):
        """Regression: a zero-variance tensor must fit cleanly (std == 0)
        rather than dividing by zero downstream."""
        fit = GaussianFit.fit(np.full((8, 8), 0.75))
        assert fit.mean == pytest.approx(0.75)
        assert fit.std == 0.0

    def test_single_element_fits_with_zero_std(self):
        fit = GaussianFit.fit(np.array([3.0]))
        assert fit.mean == 3.0 and fit.std == 0.0


class TestLogPdf:
    def test_standard_normal_at_zero(self):
        fit = GaussianFit(mean=0.0, std=1.0)
        assert fit.log_pdf(np.array([0.0]))[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_matches_closed_form(self, rng):
        fit = GaussianFit(mean=0.5, std=0.2)
        x = rng.normal(size=50)
        expected = -((x - 0.5) ** 2) / (2 * 0.04) - math.log(0.2 * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(fit.log_pdf(x), expected, rtol=1e-12)

    def test_pdf_is_exp_of_log_pdf(self):
        fit = GaussianFit(mean=0.0, std=2.0)
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(fit.pdf(x), np.exp(fit.log_pdf(x)))

    def test_degenerate_std(self):
        fit = GaussianFit(mean=1.0, std=0.0)
        scores = fit.log_pdf(np.array([1.0, 2.0]))
        assert scores[0] == np.inf and scores[1] == -np.inf

    def test_degenerate_fit_scores_without_warnings(self):
        """Regression: a constant tensor scored through the full fit +
        log_pdf + pdf path raises no RuntimeWarning (division or overflow)."""
        fit = GaussianFit.fit(np.full(16, -2.5))
        probe = np.array([-2.5, 0.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = fit.log_pdf(probe)
            densities = fit.pdf(probe)
        assert scores[0] == np.inf and scores[1] == -np.inf
        assert densities[1] == 0.0

    def test_near_degenerate_std_overflow_is_silent(self):
        """A tiny-but-nonzero std can overflow z*z, and a value far from a
        far mean can overflow x - mean; either score saturates to -inf
        without a RuntimeWarning."""
        fit = GaussianFit(mean=0.0, std=5e-324)
        far = GaussianFit(mean=-1e308, std=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = fit.log_pdf(np.array([0.0, 1.0]))
            densities = fit.pdf(np.array([1.0]))
            far_scores = far.log_pdf(np.array([1e308]))
        assert scores[1] == -np.inf
        assert densities[0] == 0.0
        assert far_scores[0] == -np.inf

    def test_score_samples_alias(self):
        fit = GaussianFit(mean=0.0, std=1.0)
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(fit.score_samples(x), fit.log_pdf(x))

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=0.01, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_log_pdf_maximum_at_mean(self, mean, std):
        fit = GaussianFit(mean=mean, std=std)
        probe = np.array([mean, mean + std, mean - 2 * std])
        scores = fit.log_pdf(probe)
        assert scores[0] >= scores[1] and scores[0] >= scores[2]


class TestInterval:
    def test_covers_expected_mass(self, rng):
        fit = GaussianFit(mean=0.0, std=1.0)
        lo, hi = fit.interval(0.999)
        assert lo == pytest.approx(-hi)
        assert hi == pytest.approx(3.2905, abs=1e-3)

    @pytest.mark.parametrize("coverage", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_coverage_rejected(self, coverage):
        with pytest.raises(ValueError):
            GaussianFit(mean=0.0, std=1.0).interval(coverage)
