import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    InitialStateSpec,
    QubitParams,
    fit_dispersion_slope,
    make_qubit_grid,
    moving_average,
    run_ensemble,
    run_walk,
)


class TestQubitGrid:
    def test_tenth_step_grid_has_2016_qubits(self):
        grid = make_qubit_grid(0.1, 0.1)
        assert len(grid) == 2016
        alphas = sorted({q.alpha for q in grid.qubits})
        betas = sorted({q.beta for q in grid.qubits})
        assert len(alphas) == 32 and len(betas) == 63

    def test_corner_grid(self):
        grid = make_qubit_grid(math.pi, 2 * math.pi)
        got = [(q.alpha, q.beta) for q in grid.qubits]
        assert got == [(0.0, 0.0), (0.0, 2 * math.pi), (math.pi, 0.0), (math.pi, 2 * math.pi)]

    def test_half_step_grid(self):
        assert len(make_qubit_grid(0.5, 0.5)) == 91  # 7 x 13

    def test_alpha_major_ordering(self):
        grid = make_qubit_grid(1.0, 2.0)
        alphas = [q.alpha for q in grid.qubits]
        assert alphas == sorted(alphas)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            make_qubit_grid(0.0, 0.1)
        with pytest.raises(ValueError):
            make_qubit_grid(0.1, -1.0)

    @given(
        alpha_step=st.floats(0.05, 4.0, allow_nan=False),
        beta_step=st.floats(0.05, 7.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_grid_points_are_step_multiples_within_range(self, alpha_step, beta_step):
        grid = make_qubit_grid(alpha_step, beta_step)
        n_alpha = len({q.alpha for q in grid.qubits})
        n_beta = len({q.beta for q in grid.qubits})
        assert len(grid) == n_alpha * n_beta
        for q in grid.qubits[:: max(1, len(grid) // 16)]:
            assert 0.0 <= q.alpha <= math.pi
            assert 0.0 <= q.beta <= 2.0 * math.pi
        # the next multiple is excluded
        assert n_alpha * alpha_step > math.pi
        assert n_beta * beta_step > 2.0 * math.pi


class TestRunWalk:
    def test_record_shapes_and_final_state(self):
        plan = EvolutionPlan(CoinSpec.hadamard(), 20, record_every=4)
        rec = run_walk(QubitParams(1.0, 0.5), InitialStateSpec.local(), plan)
        assert list(rec.times) == [0, 4, 8, 12, 16, 20]
        assert rec.sigma.shape == rec.entropy.shape == rec.norm.shape == (6,)
        assert rec.final_state.t == 20
        assert rec.sigma[0] == 0.0
        assert np.abs(rec.norm - 1.0).max() <= 1e-12

    def test_initial_entropy_zero_for_product_state(self):
        plan = EvolutionPlan(CoinSpec.hadamard(), 2)
        rec = run_walk(QubitParams(2.0, 1.0), InitialStateSpec.gaussian(2.0, 10), plan)
        assert rec.entropy[0] <= 1e-12


class TestRunEnsemble:
    def test_single_qubit_grid_equals_walk(self):
        grid = make_qubit_grid(math.pi * 2, math.pi * 4)  # only (0, 0)
        assert len(grid) == 1
        plan = EvolutionPlan(CoinSpec.hadamard(), 30)
        res = run_ensemble(grid, InitialStateSpec.local(), plan, fit_window=(0, 30))
        rec = run_walk(grid.qubits[0], InitialStateSpec.local(), plan)
        assert np.abs(res.mean_entropy - rec.entropy).max() <= 1e-12
        assert np.abs(res.mean_dispersion - rec.sigma).max() <= 1e-12

    def test_linear_matches_brute_force_average(self):
        """Independent re-computation oracle for the two-basis-walk path."""
        grid = make_qubit_grid(0.5, 0.5)
        init = InitialStateSpec.local()
        plan = EvolutionPlan(CoinSpec.hadamard(), 100)
        res = run_ensemble(grid, init, plan)

        entropy_sum = np.zeros(101)
        sigma_sum = np.zeros(101)
        for qubit in grid.qubits:
            rec = run_walk(qubit, init, plan)
            entropy_sum += rec.entropy
            sigma_sum += rec.sigma
        n = len(grid)
        assert np.abs(res.mean_entropy - entropy_sum / n).max() <= 1e-12
        assert np.abs(res.mean_dispersion - sigma_sum / n).max() <= 1e-11
        assert res.qubit_count == n

    # both grids end in a partial direct batch: 25 = 16 + 9, 91 = 5 * 16 + 11
    @pytest.mark.parametrize(
        "grid_steps", [(0.7, 1.3), (0.5, 0.5)], ids=["25_qubits", "91_qubits"]
    )
    def test_linear_matches_direct_with_defect(self, grid_steps):
        grid = make_qubit_grid(*grid_steps)
        init = InitialStateSpec.gaussian(2.0, 6)
        plan = EvolutionPlan(CoinSpec.not_defect(-8), 50)
        lin = run_ensemble(grid, init, plan)
        direct = run_ensemble(grid, init, plan, method="direct")
        assert np.abs(lin.mean_entropy - direct.mean_entropy).max() <= 1e-12
        assert np.abs(lin.mean_dispersion - direct.mean_dispersion).max() <= 1e-11
        assert (
            np.abs(lin.mean_distribution.p_total - direct.mean_distribution.p_total).max()
            <= 1e-12
        )

    def test_direct_invariant_to_worker_count(self):
        grid = make_qubit_grid(0.5, 1.0)
        init = InitialStateSpec.local()
        plan = EvolutionPlan(CoinSpec.hadamard(), 40)
        one = run_ensemble(grid, init, plan, method="direct", workers=1)
        three = run_ensemble(grid, init, plan, method="direct", workers=3)
        assert np.array_equal(one.mean_entropy, three.mean_entropy)
        assert np.array_equal(one.mean_dispersion, three.mean_dispersion)
        assert np.array_equal(
            one.mean_distribution.p_total, three.mean_distribution.p_total
        )
        assert one.slope == three.slope

    def test_runs_are_bitwise_reproducible(self):
        grid = make_qubit_grid(0.9, 1.7)
        init = InitialStateSpec.gaussian(1.5, 5)
        plan = EvolutionPlan(CoinSpec.hadamard(), 25)
        a = run_ensemble(grid, init, plan)
        b = run_ensemble(grid, init, plan)
        assert np.array_equal(a.mean_entropy, b.mean_entropy)
        assert np.array_equal(a.mean_dispersion, b.mean_dispersion)
        assert a.slope == b.slope

    def test_averaging_linearity_over_disjoint_subsets(self):
        init = InitialStateSpec.local()
        plan = EvolutionPlan(CoinSpec.hadamard(), 30)
        full = make_qubit_grid(1.0, 1.5)
        qubits = full.qubits
        half = len(qubits) // 2
        first = type(full)(full.alpha_step, full.beta_step, qubits[:half])
        second = type(full)(full.alpha_step, full.beta_step, qubits[half:])
        res_full = run_ensemble(full, init, plan)
        res_a = run_ensemble(first, init, plan)
        res_b = run_ensemble(second, init, plan)
        weighted = (len(first) * res_a.mean_entropy + len(second) * res_b.mean_entropy) / len(
            full
        )
        assert np.abs(res_full.mean_entropy - weighted).max() <= 1e-12

    def test_mean_distribution_sums_to_mean_norm(self):
        grid = make_qubit_grid(1.2, 2.0)
        init = InitialStateSpec.gaussian(2.0, 8)
        plan = EvolutionPlan(CoinSpec.hadamard(), 15)
        res = run_ensemble(grid, init, plan)
        total = float(np.sum(res.mean_distribution.p_total))
        # every walk keeps the (deficit-bearing) envelope norm
        f = init.envelope()
        assert total == pytest.approx(float(np.sum(f * f)), abs=1e-12)

    def test_empty_grid_rejected(self):
        grid = make_qubit_grid(0.5, 0.5)
        empty = type(grid)(0.5, 0.5, ())
        plan = EvolutionPlan(CoinSpec.hadamard(), 5)
        with pytest.raises(ValueError):
            run_ensemble(empty, InitialStateSpec.local(), plan)


class TestFitSlope:
    def test_exact_line(self):
        t = np.arange(0, 3001)
        assert fit_dispersion_slope(t, 0.7 * t, (1000, 3000)) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_constant_series(self):
        t = np.arange(0, 101)
        assert fit_dispersion_slope(t, np.full(101, 5.0), (0, 100)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_line_with_offset(self):
        t = np.arange(0, 500)
        y = 3.0 - 0.25 * t
        assert fit_dispersion_slope(t, y, (100, 400)) == pytest.approx(-0.25, abs=1e-12)

    def test_window_validation(self):
        t = np.arange(0, 100)
        y = t.astype(float)
        with pytest.raises(ValueError):
            fit_dispersion_slope(t, y, (50, 200))
        with pytest.raises(ValueError):
            fit_dispersion_slope(t, y, (-5, 50))
        with pytest.raises(ValueError):
            fit_dispersion_slope(t, y, (60, 40))
        with pytest.raises(ValueError):
            fit_dispersion_slope(np.array([0, 10]), np.array([1.0, 2.0]), (1, 9))


class TestMovingAverage:
    def test_flat_series(self):
        out = moving_average(np.ones(10), 3)
        assert out.shape == (8,)
        assert np.allclose(out, 1.0, atol=1e-15)

    def test_linear_series(self):
        out = moving_average(np.arange(10, dtype=float), 4)
        assert out[0] == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(np.diff(out), 1.0, atol=1e-12)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(5), 0)
        with pytest.raises(ValueError):
            moving_average(np.ones(5), 6)
