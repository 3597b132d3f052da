import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    InitialStateSpec,
    QubitGrid,
    QubitParams,
    build_initial_state,
    dispersion,
    distribution,
    entanglement_entropy,
    fit_dispersion_slope,
    make_qubit_grid,
    moving_average,
    prepared,
    reduced_coin,
    run_ensemble,
    run_walk,
    step,
)


class TestQubitGrid:
    def test_tenth_step_grid_has_2016_qubits(self):
        grid = make_qubit_grid(0.1, 0.1)
        assert len(grid) == 2016
        alphas = sorted(set(grid.alphas.tolist()))
        betas = sorted(set(grid.betas.tolist()))
        assert len(alphas) == 32 and len(betas) == 63

    def test_corner_grid(self):
        grid = make_qubit_grid(math.pi, 2 * math.pi)
        got = list(zip(grid.alphas.tolist(), grid.betas.tolist()))
        assert got == [(0.0, 0.0), (0.0, 2 * math.pi), (math.pi, 0.0), (math.pi, 2 * math.pi)]

    def test_half_step_grid(self):
        assert len(make_qubit_grid(0.5, 0.5)) == 91  # 7 x 13

    def test_alpha_major_ordering(self):
        grid = make_qubit_grid(1.0, 2.0)
        alphas = grid.alphas.tolist()
        assert alphas == sorted(alphas)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            make_qubit_grid(0.0, 0.1)
        with pytest.raises(ValueError):
            make_qubit_grid(0.1, -1.0)

    @pytest.mark.parametrize("steps", [(1e-4, 1e-4), (1e-300, 0.1), (0.1, 5e-324)])
    def test_grid_above_cap_rejected_before_it_is_built(self, steps):
        with pytest.raises(ValueError, match="MAX_QUBITS"):
            make_qubit_grid(*steps)

    @given(
        alpha_step=st.floats(0.05, 4.0, allow_nan=False),
        beta_step=st.floats(0.05, 7.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_grid_points_are_step_multiples_within_range(self, alpha_step, beta_step):
        grid = make_qubit_grid(alpha_step, beta_step)
        n_alpha = len(set(grid.alphas.tolist()))
        n_beta = len(set(grid.betas.tolist()))
        assert len(grid) == n_alpha * n_beta
        stride = max(1, len(grid) // 16)
        for alpha, beta in zip(grid.alphas[::stride], grid.betas[::stride]):
            assert 0.0 <= alpha <= math.pi
            assert 0.0 <= beta <= 2.0 * math.pi
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

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_series_match_repeated_step(self, record_every):
        """The recorded series and final state are those of ``step`` applied t times."""
        qubit = QubitParams(1.1, 0.4)
        init = InitialStateSpec.gaussian(2.0, 6)
        plan = EvolutionPlan(CoinSpec.not_defect(-3), 50, record_every=record_every)
        rec = run_walk(qubit, init, plan)

        times = list(range(0, 51, record_every))
        if times[-1] != 50:
            times.append(50)  # off-stride last record at record_every 7
        state = prepared(build_initial_state(qubit, init), plan)
        sigma, entropy, norm = [], [], []
        for t in range(51):
            if t in times:
                dist = distribution(state)
                sigma.append(dispersion(dist))
                entropy.append(entanglement_entropy(reduced_coin(state)).entropy)
                norm.append(dist.total())
            if t < 50:
                state = step(state, plan.coin)
        assert rec.times.tolist() == times
        assert np.array_equal(rec.sigma, sigma)
        assert np.array_equal(rec.entropy, entropy)
        assert np.array_equal(rec.norm, norm)
        assert rec.final_state.t == state.t == 50
        assert rec.final_state.window == state.window
        assert np.array_equal(rec.final_state.up, state.up)
        assert np.array_equal(rec.final_state.down, state.down)

    def test_initial_entropy_zero_for_product_state(self):
        plan = EvolutionPlan(CoinSpec.hadamard(), 2)
        rec = run_walk(QubitParams(2.0, 1.0), InitialStateSpec.gaussian(2.0, 10), plan)
        assert rec.entropy[0] <= 1e-12


class TestRunEnsemble:
    # sigma0=10 keeps its whole radius-100 envelope, so run_walk's window is the ensemble's;
    # qubit (0, 0) has c = 1 and s = 0, the other two mix both spins with a complex phase
    @pytest.mark.parametrize(
        "init, coin, alpha, beta",
        [
            pytest.param(init, coin, alpha, beta, id=init_id + qubit_id)
            for init, coin, init_id in (
                (InitialStateSpec.local(), CoinSpec.hadamard(), "local_hadamard"),
                (InitialStateSpec.gaussian(10.0), CoinSpec.not_defect(-101), "sigma10_defect"),
            )
            for alpha, beta, qubit_id in (
                (0.0, 0.0, ""),
                (0.75 * math.pi, 0.0, "-qubit_3pi4_0"),
                (math.pi / 3, 1.25 * math.pi, "-qubit_pi3_5pi4"),
            )
        ],
    )
    @pytest.mark.parametrize("method", ["linear", "direct"])
    def test_single_qubit_grid_equals_walk(self, method, init, coin, alpha, beta):
        grid = QubitGrid(np.array([alpha]), np.array([beta]))
        assert len(grid) == 1
        plan = EvolutionPlan(coin, 30)
        res = run_ensemble(grid, init, plan, fit_window=(0, 30), method=method)
        rec = run_walk(QubitParams(alpha, beta), init, plan)
        final = rec.final_distribution()
        if method == "direct":  # a single walk is the one-row case of the direct path
            assert np.array_equal(res.mean_entropy, rec.entropy)
            assert np.array_equal(res.mean_dispersion, rec.sigma)
            assert np.array_equal(res.mean_distribution.p_total, final.p_total)
        else:
            assert np.abs(res.mean_entropy - rec.entropy).max() <= 1e-12
            assert np.abs(res.mean_dispersion - rec.sigma).max() <= 1e-12
            assert np.abs(res.mean_distribution.p_up - final.p_up).max() <= 1e-12
            assert np.abs(res.mean_distribution.p_down - final.p_down).max() <= 1e-12

    def test_linear_matches_brute_force_average(self):
        """Independent re-computation oracle for the two-basis-walk path."""
        grid = make_qubit_grid(0.5, 0.5)
        init = InitialStateSpec.local()
        plan = EvolutionPlan(CoinSpec.hadamard(), 100)
        res = run_ensemble(grid, init, plan)

        entropy_sum = np.zeros(101)
        sigma_sum = np.zeros(101)
        for alpha, beta in zip(grid.alphas, grid.betas):
            rec = run_walk(QubitParams(alpha, beta), init, plan)
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
        for part in ("p_up", "p_down", "p_total"):
            lin_p = getattr(lin.mean_distribution, part)
            assert np.abs(lin_p - getattr(direct.mean_distribution, part)).max() <= 1e-12

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
        half = len(full) // 2
        first = QubitGrid(full.alphas[:half], full.betas[:half])
        second = QubitGrid(full.alphas[half:], full.betas[half:])
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
        empty = QubitGrid(np.empty(0), np.empty(0))
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
