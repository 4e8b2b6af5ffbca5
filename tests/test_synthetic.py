import math

import numpy as np
import pytest

from ridgeproj import gen_synthetic, svd_small


class TestGenSynthetic:
    def test_spectrum_bands(self):
        problem = gen_synthetic(120, 80, 20, 0.1, seed=0)
        sq = problem.squared_spectrum
        top, tail = sq[:20], sq[20:]
        assert np.all((top >= 0.55) & (top <= 1.0))
        assert np.all((tail >= 0.0) & (tail <= 0.45))
        # nothing in the forbidden middle band
        assert not np.any((sq > 0.45) & (sq < 0.55))

    def test_spectrum_law_many_draws(self):
        # Empirical min/max of both bands stay inside the configured ranges.
        gamma = 0.2
        lo_top, hi_tail = 0.5 * (1 + gamma), 0.5 * (1 - gamma)
        for seed in range(1000):
            sq = gen_synthetic(24, 16, 5, gamma, seed=seed).squared_spectrum
            assert sq[:5].min() >= lo_top and sq[:5].max() <= 1.0
            assert sq[5:].max() <= hi_tail and sq[5:].min() >= 0.0

    def test_deterministic(self):
        a = gen_synthetic(30, 20, 6, 0.1, seed=42)
        b = gen_synthetic(30, 20, 6, 0.1, seed=42)
        assert np.array_equal(a.A.toarray(), b.A.toarray())
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.x_true, b.x_true)
        c = gen_synthetic(30, 20, 6, 0.1, seed=43)
        assert not np.array_equal(a.b, c.b)

    def test_svd_recovers_spectrum(self):
        problem = gen_synthetic(60, 40, 12, 0.15, seed=7)
        F = svd_small(problem.A)
        drawn = np.sqrt(problem.squared_spectrum)
        assert np.abs(F.singular_values - drawn[: F.rank]).max() <= 1e-8

    def test_label_construction(self):
        problem = gen_synthetic(50, 30, 8, 0.1, seed=11)
        response = problem.A.matvec(problem.x_true)
        noise = problem.b - response
        assert np.linalg.norm(noise) == pytest.approx(0.1 * np.linalg.norm(response),
                                                      rel=1e-12)

    def test_x_true_in_top_span(self):
        problem = gen_synthetic(50, 30, 8, 0.1, seed=13)
        F = svd_small(problem.A)
        Vk = F.V[:, :8]
        residual = problem.x_true - Vk @ (Vk.T @ problem.x_true)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(problem.x_true)

    def test_noise_scale_flag(self):
        quiet = gen_synthetic(40, 25, 6, 0.1, seed=5, noise_scale=0.0)
        assert np.allclose(quiet.b, quiet.A.matvec(quiet.x_true))

    def test_window_precondition_holds(self):
        problem = gen_synthetic(60, 40, 10, 0.2, seed=3)
        g = problem.algorithm_gap()
        sq = problem.squared_spectrum
        lam = problem.lam
        assert sq[10] / (1 - 4 * g) <= lam <= (1 - 4 * g) * sq[9]

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic(10, 8, 0, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(10, 8, 8, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(10, 8, 3, 1.5, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(10, 8, 3, 0.1, seed=0, noise_scale=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_scale"):
                gen_synthetic(10, 8, 3, 0.1, seed=0, noise_scale=bad)
