import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    InitialStateSpec,
    LatticeWindow,
    PositionDistribution,
    QubitParams,
    ReducedCoinMatrix,
    WalkState,
    build_initial_state,
    dispersion,
    distribution,
    entanglement_entropy,
    evolve,
    far_peak_weight,
    mean_position,
    outer_peak_distance,
    peak_sites,
    prepared,
    reduced_coin,
    step,
)
from qwalk1d.observables import entropy_bits_vec

# sigma(0) of the truncated discrete Gaussian, 40-digit arithmetic
SIGMA0_10_R100 = 10.0
SIGMA0_1_R100 = 0.99999989438385846417


def point_mass(j: int, window: LatticeWindow | None = None) -> PositionDistribution:
    window = window or LatticeWindow(j - 2, j + 2)
    p = np.zeros(window.size)
    p[window.index(j)] = 1.0
    return PositionDistribution(window, p, np.zeros_like(p), p.copy())


def dist_from(values: dict[int, float], window: LatticeWindow) -> PositionDistribution:
    p = np.zeros(window.size)
    for j, v in values.items():
        p[window.index(j)] = v
    return PositionDistribution(window, p, np.zeros_like(p), p.copy())


def two_step_local_state() -> WalkState:
    state = WalkState.zero(LatticeWindow(-2, 2))
    state.up[state.window.index(0)] = 1.0
    coin = CoinSpec.hadamard()
    return step(step(state, coin), coin)


class TestDistribution:
    def test_point_mass_at_t0(self):
        state = build_initial_state(QubitParams(0.0, 0.0), InitialStateSpec.local())
        d = distribution(state)
        assert d.p_total[d.window.index(0)] == 1.0
        assert d.total() == pytest.approx(1.0, abs=1e-15)

    def test_two_step_table(self):
        d = distribution(two_step_local_state())
        idx = d.window.index
        assert d.p_total[idx(-2)] == pytest.approx(0.25, abs=1e-15)
        assert d.p_total[idx(0)] == pytest.approx(0.5, abs=1e-15)
        assert d.p_total[idx(2)] == pytest.approx(0.25, abs=1e-15)
        assert d.p_total[idx(1)] == 0.0

    def test_total_is_sitewise_sum(self):
        state = build_initial_state(QubitParams(1.0, 2.0), InitialStateSpec.gaussian(2.0, 6))
        d = distribution(state)
        assert np.abs(d.p_total - (d.p_up + d.p_down)).max() <= 1e-15


class TestMeanAndDispersion:
    def test_symmetric_pair_mean_zero(self):
        d = dist_from({-1: 0.5, 1: 0.5}, LatticeWindow(-2, 2))
        assert mean_position(d) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_mean(self):
        assert mean_position(point_mass(2)) == pytest.approx(2.0, abs=1e-15)

    def test_two_step_mean_zero(self):
        assert mean_position(distribution(two_step_local_state())) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_point_mass_dispersion_zero(self):
        assert dispersion(point_mass(7)) == 0.0
        assert dispersion(point_mass(-3000, LatticeWindow(-3001, -2999))) == 0.0

    def test_two_step_dispersion(self):
        assert dispersion(distribution(two_step_local_state())) == pytest.approx(
            math.sqrt(2.0), abs=1e-14
        )

    def test_gaussian_initial_dispersion_matches_width(self):
        for sigma0, expected in [(10.0, SIGMA0_10_R100), (1.0, SIGMA0_1_R100)]:
            state = build_initial_state(
                QubitParams(1.0, 0.5), InitialStateSpec.gaussian(sigma0, 100)
            )
            assert dispersion(distribution(state)) == pytest.approx(expected, abs=1e-3)

    def test_reflection_invariance(self):
        window = LatticeWindow(-5, 5)
        rng = np.random.default_rng(7)
        p = rng.random(window.size)
        d = PositionDistribution(window, p, np.zeros_like(p), p.copy())
        mirrored = PositionDistribution(window, p[::-1], np.zeros_like(p), p[::-1].copy())
        assert dispersion(d) == pytest.approx(dispersion(mirrored), abs=1e-12)

    def test_zero_probability_rejected(self):
        empty = PositionDistribution(
            LatticeWindow(0, 2), np.zeros(3), np.zeros(3), np.zeros(3)
        )
        with pytest.raises(ValueError):
            mean_position(empty)
        with pytest.raises(ValueError):
            dispersion(empty)


class TestReducedCoin:
    def test_spin_up_local(self):
        state = build_initial_state(QubitParams(0.0, 0.0), InitialStateSpec.local())
        rc = reduced_coin(state)
        assert rc.up_weight == pytest.approx(1.0, abs=1e-15)
        assert rc.coherence == pytest.approx(0.0, abs=1e-15)

    def test_one_step_no_sitewise_overlap(self):
        state = WalkState.zero(LatticeWindow(-1, 1))
        state.up[state.window.index(0)] = 1.0
        rc = reduced_coin(step(state, CoinSpec.hadamard()))
        assert rc.up_weight == pytest.approx(0.5, abs=1e-15)
        assert abs(rc.coherence) <= 1e-15

    def test_product_state_saturates_cauchy_schwarz(self):
        for alpha, beta in [(0.3, 0.9), (2.0, 5.5), (0.75 * math.pi, 0.0)]:
            state = build_initial_state(
                QubitParams(alpha, beta), InitialStateSpec.gaussian(3.0, 20)
            )
            rc = reduced_coin(state)
            a, b = rc.up_weight, abs(rc.coherence) ** 2
            assert b == pytest.approx(a * (rc.trace - a), abs=1e-14)

    def test_matrix_layout(self):
        rc = ReducedCoinMatrix(0.3, 0.1 + 0.2j, 1.0)
        m = rc.matrix()
        assert m[0, 0] == 0.3 and m[1, 1] == pytest.approx(0.7)
        assert m[0, 1] == 0.1 + 0.2j and m[1, 0] == 0.1 - 0.2j

    def test_nonpositive_trace_rejected(self):
        with pytest.raises(ValueError):
            ReducedCoinMatrix(0.0, 0.0, 0.0)


class TestEntropy:
    def test_separable(self):
        v = entanglement_entropy(ReducedCoinMatrix(1.0, 0.0, 1.0))
        assert (v.lambda_plus, v.lambda_minus) == (1.0, 0.0)
        assert v.entropy == 0.0

    def test_maximally_mixed(self):
        v = entanglement_entropy(ReducedCoinMatrix(0.5, 0.0, 1.0))
        assert v.lambda_plus == pytest.approx(0.5, abs=1e-15)
        assert v.entropy == pytest.approx(1.0, abs=1e-15)

    def test_pure_superposition(self):
        v = entanglement_entropy(ReducedCoinMatrix(0.5, 0.5, 1.0))
        assert v.lambda_plus == pytest.approx(1.0, abs=1e-15)
        assert v.entropy == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_input_normalized_internally(self):
        reference = entanglement_entropy(ReducedCoinMatrix(0.3, 0.1j, 1.0))
        scaled = entanglement_entropy(ReducedCoinMatrix(0.3 * 0.75, 0.075j, 0.75))
        assert scaled.entropy == pytest.approx(reference.entropy, abs=1e-14)
        assert scaled.lambda_plus + scaled.lambda_minus == pytest.approx(1.0, abs=1e-12)

    def test_corrupted_input_rejected(self):
        with pytest.raises(ValueError):
            ReducedCoinMatrix(1.2, 0.0, 1.0)  # weight above the trace
        with pytest.raises(ValueError):
            ReducedCoinMatrix(0.5, 0.9, 1.0)  # coherence beyond Cauchy-Schwarz

    @given(
        amps=st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_eigendecomposition(self, amps):
        up = np.array([complex(a, b) for a, b, _, _ in amps])
        down = np.array([complex(c, d) for _, _, c, d in amps])
        norm = math.sqrt(float(np.sum(np.abs(up) ** 2 + np.abs(down) ** 2)))
        if norm < 1e-6:
            return
        window = LatticeWindow(0, len(amps) - 1)
        state = WalkState(window, up / norm, down / norm)
        rc = reduced_coin(state)
        value = entanglement_entropy(rc)
        eigs = np.linalg.eigvalsh(rc.matrix() / rc.trace)
        direct = -sum(lam * math.log2(lam) for lam in eigs if lam > 1e-300)
        assert value.entropy == pytest.approx(direct, abs=1e-12)
        assert value.lambda_plus + value.lambda_minus == pytest.approx(1.0, abs=1e-12)
        a_n = rc.up_weight / rc.trace
        b2_n = abs(rc.coherence) ** 2 / rc.trace**2
        assert value.lambda_plus * value.lambda_minus == pytest.approx(
            a_n * (1 - a_n) - b2_n, abs=1e-12
        )

    @given(
        coins=st.lists(
            st.tuples(
                st.floats(0, 1),  # Bloch vector length
                st.floats(0, math.pi),
                st.floats(0, 2 * math.pi),
                st.floats(1e-3, 1e3),  # trace
            ),
            min_size=1,
            max_size=8,
        ),
        corrupt=st.integers(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_vector_form_matches_scalar_form(self, coins, corrupt):
        matrices = [
            ReducedCoinMatrix(
                tr * (1.0 + r * math.cos(theta)) / 2.0,
                tr * r * math.sin(theta) * complex(math.cos(phi), -math.sin(phi)) / 2.0,
                tr,
            )
            for r, theta, phi, tr in coins
        ]
        up_weight = np.array([m.up_weight for m in matrices])
        coherence_sq = np.array([abs(m.coherence) ** 2 for m in matrices])
        trace = np.array([m.trace for m in matrices])
        scalar = np.array([entanglement_entropy(m).entropy for m in matrices])
        assert np.array_equal(entropy_bits_vec(up_weight, coherence_sq, trace), scalar)

        i = corrupt % len(matrices)
        nan_weight = up_weight.copy()
        nan_weight[i] = math.nan
        with pytest.raises(ValueError):
            entropy_bits_vec(nan_weight, coherence_sq, trace)
        # |B|^2 beyond A(1 - A) breaks Cauchy-Schwarz
        a = up_weight[i] / trace[i]
        beyond = coherence_sq.copy()
        beyond[i] = (a * (1.0 - a) + 1e-6) * trace[i] ** 2
        with pytest.raises(ValueError):
            entropy_bits_vec(up_weight, beyond, trace)

    @given(
        a=st.floats(0, 1),
        fraction=st.floats(0, 2).filter(lambda f: abs(f - 1.0) > 1e-3),
        trace=st.floats(1e-3, 1e3),
        phase=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_matrix_and_vector_form_reject_the_same_inputs(self, a, fraction, trace, phase):
        # |B|^2 = fraction * A(1 - A) + offset: offset 1e-6 sits far past the
        # 1e-9 slack, so fraction below 1 is valid and above 1 is not
        offset = 1e-6 if fraction > 1.0 else 0.0
        b2 = fraction * a * (1.0 - a) + offset
        coherence = math.sqrt(b2) * trace * complex(math.cos(phase), math.sin(phase))
        up_weight = a * trace
        vector_rejects = matrix_rejects = False
        try:
            entropy_bits_vec(np.array([up_weight]), np.array([abs(coherence) ** 2]), trace)
        except ValueError:
            vector_rejects = True
        try:
            ReducedCoinMatrix(up_weight, coherence, trace)
        except ValueError:
            matrix_rejects = True
        assert vector_rejects == matrix_rejects == (fraction > 1.0)

    def test_invariant_under_global_phase_and_translation(self):
        state = build_initial_state(QubitParams(1.1, 0.7), InitialStateSpec.gaussian(2.0, 8))
        plan = EvolutionPlan(CoinSpec.hadamard(), 6)
        state = evolve(prepared(state, plan), plan)
        base = entanglement_entropy(reduced_coin(state)).entropy

        phased = WalkState(
            state.window, state.up * np.exp(0.3j), state.down * np.exp(0.3j), state.t
        )
        assert entanglement_entropy(reduced_coin(phased)).entropy == pytest.approx(
            base, abs=1e-13
        )

        shifted_window = LatticeWindow(state.window.j_min + 17, state.window.j_max + 17)
        shifted = WalkState(shifted_window, state.up.copy(), state.down.copy(), state.t)
        assert entanglement_entropy(reduced_coin(shifted)).entropy == pytest.approx(
            base, abs=1e-13
        )

    @given(
        alpha=st.floats(0, math.pi, allow_nan=False),
        beta=st.floats(0, 2 * math.pi, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_separable_states_have_zero_entropy(self, alpha, beta):
        state = build_initial_state(QubitParams(alpha, beta), InitialStateSpec.gaussian(1.5, 9))
        assert entanglement_entropy(reduced_coin(state)).entropy <= 1e-12


class TestPeaks:
    def test_peak_sites_and_distance(self):
        d = dist_from({-7: 0.4, -2: 0.1, 3: 0.2, 8: 0.3}, LatticeWindow(-10, 10))
        assert peak_sites(d) == (-7, 8)
        assert outer_peak_distance(d) == 15

    def test_far_peak_weight_isolated_lobes(self):
        # two clean lobes: each side's lobe carries its own mass
        values = {-6: 0.1, -5: 0.2, -4: 0.1, 4: 0.15, 5: 0.3, 6: 0.15}
        d = dist_from(values, LatticeWindow(-9, 9))
        assert far_peak_weight(d, "right") == pytest.approx(0.6 / 1.0, abs=1e-12)
        assert far_peak_weight(d, "left") == pytest.approx(0.4 / 1.0, abs=1e-12)

    def test_far_peak_weight_bridges_parity_comb(self):
        # every other site empty, like a local-state walk
        values = {2: 0.1, 4: 0.5, 6: 0.2, -2: 0.2}
        d = dist_from(values, LatticeWindow(-7, 7))
        assert far_peak_weight(d, "right") == pytest.approx(0.8, abs=1e-12)

    def test_requires_mass_on_both_sides(self):
        with pytest.raises(ValueError):
            peak_sites(point_mass(3, LatticeWindow(-1, 5)))

    def test_side_validated(self):
        d = dist_from({-1: 0.5, 1: 0.5}, LatticeWindow(-2, 2))
        with pytest.raises(ValueError):
            far_peak_weight(d, "up")
