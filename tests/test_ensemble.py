import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk1d.ensemble
from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    InitialStateSpec,
    LatticeWindow,
    QubitGrid,
    QubitParams,
    WalkState,
    build_initial_state,
    distribution,
    entanglement_entropy,
    fit_dispersion_slope,
    make_qubit_grid,
    recorded_steps,
    run_ensemble,
    run_walk,
)
from qwalk1d.core import _coefficients
from qwalk1d.ensemble import _qubit_sums
from qwalk1d.observables import _position_moments
from walks import stepped


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

    @pytest.mark.parametrize(
        "alphas, betas", [([0.5], [0.0, 1.0, 2.0]), ([[0.5]], [[0.5]]), (0.5, 0.5)]
    )
    def test_angle_arrays_must_be_1d_of_equal_length(self, alphas, betas):
        with pytest.raises(ValueError, match="1-D"):
            QubitGrid(alphas, betas)

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
        rec = run_walk(QubitParams(1.0, 0.5), InitialStateSpec.local(), plan, fit_window=(4, 16))
        assert list(rec.times) == [0, 4, 8, 12, 16, 20]
        assert rec.sigma.shape == rec.entropy.shape == rec.norm.shape == (6,)
        assert rec.final_state.window == LatticeWindow(-20, 20)
        assert rec.sigma[0] == 0.0
        assert np.abs(rec.norm - 1.0).max() <= 1e-12
        assert rec.slope == fit_dispersion_slope(rec.times, rec.sigma, (4, 16))
        assert rec.norm_deficit == 0.0

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_series_match_repeated_step(self, record_every):
        """The recorded series and final state are those of one step applied t times.

        The series are the scalar formulas on the light cone, the start's nonzero
        range grown one site per step, bit for bit; on the full window they round
        differently, by at most 1e-15 relative in sigma and 1e-14 in entropy.
        """
        qubit = QubitParams(1.1, 0.4)
        init = InitialStateSpec.gaussian(2.0, 6)
        plan = EvolutionPlan(CoinSpec.not_defect(-3), 50, record_every=record_every)
        rec = run_walk(qubit, init, plan)

        times = list(range(0, 51, record_every))
        if times[-1] != 50:
            times.append(50)  # off-stride last record at record_every 7
        state = build_initial_state(qubit, init, qwalk1d.ensemble.check_run(init, plan)[0])
        sites = state.window.sites()
        occupied = np.flatnonzero((state.up != 0) | (state.down != 0))

        def dispersion(dist):
            return _position_moments(dist.p_total, dist.window.sites().astype(np.float64))[2]

        sigma, entropy, norm = [], [], []
        for t in range(51):
            if t in times:
                live = slice(max(occupied[0] - t, 0), min(occupied[-1] + 1 + t, sites.size))
                cone = WalkState(
                    LatticeWindow(sites[live][0], sites[live][-1]), state.up[live], state.down[live]
                )
                dist = distribution(cone)
                sigma.append(dispersion(dist))
                entropy.append(entanglement_entropy(cone))
                norm.append(dist.total())
                assert abs(sigma[-1] - dispersion(distribution(state))) <= 1e-15 * sigma[-1]
                assert abs(entropy[-1] - entanglement_entropy(state)) <= 1e-14
            if t < 50:
                state = stepped(state, plan.coin)
        assert rec.times.tolist() == times
        assert np.array_equal(rec.sigma, sigma)
        assert np.array_equal(rec.entropy, entropy)
        assert np.array_equal(rec.norm, norm)
        assert rec.final_state.window == state.window
        assert np.array_equal(rec.final_state.up, state.up)
        assert np.array_equal(rec.final_state.down, state.down)

    def test_initial_entropy_zero_for_product_state(self):
        plan = EvolutionPlan(CoinSpec.hadamard(), 2)
        rec = run_walk(QubitParams(2.0, 1.0), InitialStateSpec.gaussian(2.0, 10), plan)
        assert rec.entropy[0] <= 1e-12


class TestRunEnsemble:
    # every run takes its window from check_run, so a single walk is the one-row case of
    # the direct path on every envelope, sigma0=1 too, whose samples past |j| = 54 are
    # exact zeros; qubit (0, 0) has c = 1 and s = 0, the other two mix both spins with a
    # complex phase
    @pytest.mark.parametrize(
        "init, coin, alpha, beta",
        [
            pytest.param(init, coin, alpha, beta, id=init_id + qubit_id)
            for init, coin, init_id in (
                (InitialStateSpec.local(), CoinSpec.hadamard(), "local_hadamard"),
                (InitialStateSpec.gaussian(10.0), CoinSpec.not_defect(-101), "sigma10_defect"),
                (InitialStateSpec.gaussian(1.0), CoinSpec.hadamard(), "sigma1_hadamard"),
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
        rec = run_walk(QubitParams(alpha, beta), init, plan, fit_window=(0, 30))
        final, mean = distribution(rec.final_state), res.mean_distribution
        assert final.window == mean.window
        assert rec.norm_deficit == res.norm_deficit
        if method == "direct":
            assert np.array_equal(res.mean_entropy, rec.entropy)
            assert np.array_equal(res.mean_dispersion, rec.sigma)
            assert np.array_equal(mean.p_up, final.p_up)
            assert np.array_equal(mean.p_down, final.p_down)
            assert res.slope == rec.slope
        else:
            assert np.abs(res.mean_entropy - rec.entropy).max() <= 1e-12
            assert np.abs(res.mean_dispersion - rec.sigma).max() <= 1e-12
            assert np.abs(mean.p_up - final.p_up).max() <= 1e-12
            assert np.abs(mean.p_down - final.p_down).max() <= 1e-12
            assert abs(res.slope - rec.slope) <= 1e-12

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

    # every grid ends in a partial direct batch: 25 = 16 + 9, 91 = 5 * 16 + 11, 7; the
    # 7 qubits of beta step 7.0 all have beta 0, so direct steps them in float64
    @pytest.mark.parametrize(
        "grid_steps, dtype",
        [((0.7, 1.3), np.complex128), ((0.5, 0.5), np.complex128), ((0.5, 7.0), np.float64)],
        ids=["25_qubits", "91_qubits", "7_real_qubits"],
    )
    def test_linear_matches_direct_with_defect(self, grid_steps, dtype, monkeypatch):
        grid = make_qubit_grid(*grid_steps)
        init = InitialStateSpec.gaussian(2.0, 6)
        plan = EvolutionPlan(CoinSpec.not_defect(-8), 50)
        lin = run_ensemble(grid, init, plan)
        stepped_dtypes = set()

        def spy(up, down, *args):
            stepped_dtypes.add(up.dtype)
            return recorded_steps(up, down, *args)

        monkeypatch.setattr(qwalk1d.ensemble, "recorded_steps", spy)
        direct = run_ensemble(grid, init, plan, method="direct")
        assert stepped_dtypes == {np.dtype(dtype)}
        assert np.abs(lin.mean_entropy - direct.mean_entropy).max() <= 1e-12
        assert np.abs(lin.mean_dispersion - direct.mean_dispersion).max() <= 1e-11
        for part in ("p_up", "p_down", "p_total"):
            lin_p = getattr(lin.mean_distribution, part)
            assert np.abs(lin_p - getattr(direct.mean_distribution, part)).max() <= 1e-12

    def test_trojan_sigma_matches_direct_to_rounding(self):
        """Linear sigma on a Trojan walk within 1e-14 relative of ``direct``, which centres each row.

        The defect at -31 folds the packet into two lobes that move right, so by t=1000
        its mean lies about 700 sites from the origin and many sigmas from it.  Moments
        about the basis pair's mean measure 1.26e-15 here (at t=0), an 8x margin;
        moments about the origin, ``m2 - m1^2``, measured 1.08e-13 (at t=882).
        """
        grid = make_qubit_grid(0.5, 0.5)
        init = InitialStateSpec.gaussian(10.0, 30)
        plan = EvolutionPlan(CoinSpec.not_defect(-31), 1000)
        lin = run_ensemble(grid, init, plan)
        direct = run_ensemble(grid, init, plan, method="direct")
        rel = np.abs(lin.mean_dispersion - direct.mean_dispersion) / direct.mean_dispersion
        assert rel.max() <= 1e-14

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
        with pytest.raises(ValueError, match="qubit grid is empty"):
            QubitGrid(np.empty(0), np.empty(0))

    @pytest.mark.parametrize("method", ["run_walk", "linear", "direct"])
    def test_fit_window_checked_before_any_walk(self, method, monkeypatch):
        calls = []
        real = qwalk1d.ensemble.recorded_steps

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qwalk1d.ensemble, "recorded_steps", spy)
        plan = EvolutionPlan(CoinSpec.hadamard(), 1000)
        with pytest.raises(ValueError, match="fit window"):
            if method == "run_walk":
                run_walk(QubitParams(0.5, 0.5), InitialStateSpec.local(), plan, fit_window=(0, 5000))
            else:
                run_ensemble(
                    make_qubit_grid(0.1, 0.1), InitialStateSpec.local(), plan,
                    fit_window=(0, 5000), method=method,
                )
        assert calls == []


@pytest.mark.parametrize(
    "coin", [CoinSpec.hadamard(), CoinSpec.not_defect(-101)], ids=["hadamard", "defect"]
)
@pytest.mark.parametrize(
    "init",
    [InitialStateSpec.local(), InitialStateSpec.gaussian(1.0), InitialStateSpec.gaussian(10.0)],
    ids=["local", "sigma1", "sigma10"],
)
def test_real_walk_matches_its_complex_twin(init, coin):
    """fig1's qubit (3pi/4, 0) walks in float64, bit for bit as in complex128 but for entropy.

    Its coherence is a real dot rather than a complex one, which rounds differently.
    """
    plan = EvolutionPlan(coin, 300)
    window, _ = qwalk1d.ensemble.check_run(init, plan)
    c, s = _coefficients(np.array([0.75 * math.pi]), np.array([0.0]))
    (sigma, entropy, norm), p, up, down = _qubit_sums(init, plan, window, c, s)
    (sigma_z, entropy_z, norm_z), p_z, up_z, down_z = _qubit_sums(
        init, plan, window, c, s.astype(complex)
    )
    assert up.dtype == np.float64 and up_z.dtype == np.complex128
    assert np.array_equal(up, up_z) and np.array_equal(down, down_z)
    final = run_walk(QubitParams(0.75 * math.pi, 0.0), init, plan).final_state
    assert final.up.dtype == final.down.dtype == np.float64  # the state keeps the walk's dtype
    assert np.array_equal(final.up, up[0]) and np.array_equal(final.down, down[0])
    assert np.array_equal(p, p_z)
    assert np.array_equal(sigma, sigma_z) and np.array_equal(norm, norm_z)
    assert np.abs(entropy - entropy_z).max() <= 1e-14


def test_array_holders_compare_by_identity():
    """``==`` on states, distributions and results is a bool, and each is hashable."""
    plan = EvolutionPlan(CoinSpec.hadamard(), 4)
    record = run_walk(QubitParams(0.5, 0.5), InitialStateSpec.local(), plan)
    result = run_ensemble(make_qubit_grid(1.0, 2.0), InitialStateSpec.local(), plan)
    state = record.final_state
    twin = WalkState(state.window, state.up.copy(), state.down.copy())
    for value in (record, result, state, distribution(state)):
        assert (value == value) is True
        assert hash(value) == hash(value)
    assert (state == twin) is False
    assert (distribution(state) == distribution(twin)) is False


@pytest.mark.parametrize("method", ["run_walk", "linear", "direct"])
def test_light_cone_above_max_sites_rejected_before_allocating(method):
    plan = EvolutionPlan(CoinSpec(), 10**8)  # 2e8 + 1 sites: 3.2 GB of amplitudes per walk
    grid = QubitGrid(np.array([0.5, 1.0]), np.array([0.0, 1.0]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_SITES"):
            if method == "run_walk":
                run_walk(QubitParams(0.5, 0.5), InitialStateSpec.local(), plan)
            else:
                run_ensemble(grid, InitialStateSpec.local(), plan, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_linear_peak_memory_within_bytes_per_qubit():
    """The linear path's tracemalloc peak is at most ``_BYTES_PER_QUBIT`` per qubit plus 100 kB.

    198,135 qubits (steps 0.01) for 20 steps from a local start: the 41-site window
    and the 21 records' Grams and rows are a few kB, well inside the allowance.
    Measured 152.1 B per qubit (30.1 MB) against the budget of 160.
    """
    grid = make_qubit_grid(0.01, 0.01)
    plan = EvolutionPlan(CoinSpec.hadamard(), 20)
    tracemalloc.start()
    try:
        run_ensemble(grid, InitialStateSpec.local(), plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= qwalk1d.ensemble._BYTES_PER_QUBIT * len(grid) + 100_000


@pytest.mark.parametrize("coin", [CoinSpec.hadamard(), CoinSpec.not_defect(-1)], ids=["free", "defect"])
def test_linear_peak_memory_within_bytes_per_site(coin):
    """The linear path's tracemalloc peak is at most ``_BYTES_PER_SITE`` per site plus 1 MB.

    2000 local steps recorded every step on the 16-qubit grid: 4001 sites for the
    free walk, about two per record, and 2002 for the defect at -1, which clips the
    window to one site per record, so that the per-record Grams and rows dominate.
    """
    plan = EvolutionPlan(coin, 2000)
    window = qwalk1d.ensemble.check_run(InitialStateSpec.local(), plan)[0]
    tracemalloc.start()
    try:
        run_ensemble(make_qubit_grid(1.0, 2.0), InitialStateSpec.local(), plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= qwalk1d.core._BYTES_PER_SITE * window.size + 1_000_000


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
