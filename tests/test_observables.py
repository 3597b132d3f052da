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
    WalkState,
    outer_lobes,
)
from qwalk1d.core import SQRT1_2
from qwalk1d.observables import (
    _coin_eigenvalues,
    _position_moments,
    _prob,
    _row_observables,
    entropy_bits_vec,
)
from walks import build_initial_state, distribution, entanglement_entropy, final_state, stepped

# sigma(0) of the truncated discrete Gaussian, 40-digit arithmetic
SIGMA0_10_R100 = 10.0
SIGMA0_1_R100 = 0.99999989438385846417


def point_mass(j: int, window: LatticeWindow | None = None) -> PositionDistribution:
    window = window or LatticeWindow(j - 2, j + 2)
    p = np.zeros(window.size)
    p[j - window.j_min] = 1.0
    return PositionDistribution(window, p, np.zeros_like(p))


def dist_from(values: dict[int, float], window: LatticeWindow) -> PositionDistribution:
    p = np.zeros(window.size)
    for j, v in values.items():
        p[j - window.j_min] = v
    return PositionDistribution(window, p, np.zeros_like(p))


def two_step_local_state() -> WalkState:
    state = WalkState.zero(LatticeWindow(-2, 2))
    state.up[-state.window.j_min] = 1.0
    return stepped(state, CoinSpec.hadamard(), 2)


def dispersion(dist: PositionDistribution) -> float:
    """The row kernel's dispersion of one distribution."""
    return float(_position_moments(dist.p_total, dist.window.sites().astype(np.float64))[2])


def coin_sums(up, down):
    """Trace, ``sum|a|^2`` and ``sum a conj(b)`` of each row, from the row kernel."""
    sites = np.arange(np.shape(up)[-1], dtype=np.float64)
    norm, _, up_weight, coherence = _row_observables(up, down, sites)
    return norm, up_weight, coherence


class TestDistribution:
    def test_point_mass_at_t0(self):
        state = build_initial_state(QubitParams(0.0, 0.0), InitialStateSpec.local())
        d = distribution(state)
        assert d.p_total[-d.window.j_min] == 1.0
        assert d.total() == pytest.approx(1.0, abs=1e-15)

    def test_two_step_table(self):
        d = distribution(two_step_local_state())
        origin = -d.window.j_min
        assert d.p_total[origin - 2] == pytest.approx(0.25, abs=1e-15)
        assert d.p_total[origin] == pytest.approx(0.5, abs=1e-15)
        assert d.p_total[origin + 2] == pytest.approx(0.25, abs=1e-15)
        assert d.p_total[origin + 1] == 0.0

    def test_total_is_sitewise_sum(self):
        state = build_initial_state(QubitParams(1.0, 2.0), InitialStateSpec.gaussian(2.0, 6))
        d = distribution(state)
        assert np.abs(d.p_total - (d.p_up + d.p_down)).max() <= 1e-15


def state_from(up, down) -> WalkState:
    """A state on sites ``0..len(up)-1`` with the given amplitudes."""
    return WalkState(LatticeWindow(0, len(up) - 1), np.asarray(up), np.asarray(down))


class TestMeanAndDispersion:
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
        d = PositionDistribution(window, p, np.zeros_like(p))
        mirrored = PositionDistribution(window, p[::-1], np.zeros_like(p))
        assert dispersion(d) == pytest.approx(dispersion(mirrored), abs=1e-12)

    def test_symmetric_pair_dispersion(self):
        d = dist_from({-1: 0.5, 1: 0.5}, LatticeWindow(-2, 2))
        assert dispersion(d) == pytest.approx(1.0, abs=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        p = rng.random(11)
        d = PositionDistribution(LatticeWindow(-5, 5), p, np.zeros_like(p))
        far = PositionDistribution(LatticeWindow(2995, 3005), p, np.zeros_like(p))
        assert dispersion(far) == pytest.approx(dispersion(d), abs=1e-12)


class TestReducedCoin:
    """The reduced coin matrix's entries, as the row kernel sums them."""

    def test_spin_up_local(self):
        state = build_initial_state(QubitParams(0.0, 0.0), InitialStateSpec.local())
        _, up_weight, coherence = coin_sums(state.up, state.down)
        assert up_weight == pytest.approx(1.0, abs=1e-15)
        assert coherence == pytest.approx(0.0, abs=1e-15)

    def test_one_step_no_sitewise_overlap(self):
        state = WalkState.zero(LatticeWindow(-1, 1))
        state.up[-state.window.j_min] = 1.0
        out = stepped(state, CoinSpec.hadamard())
        _, up_weight, coherence = coin_sums(out.up, out.down)
        assert up_weight == pytest.approx(0.5, abs=1e-15)
        assert abs(coherence) <= 1e-15

    def test_product_state_saturates_cauchy_schwarz(self):
        for alpha, beta in [(0.3, 0.9), (2.0, 5.5), (0.75 * math.pi, 0.0)]:
            state = build_initial_state(
                QubitParams(alpha, beta), InitialStateSpec.gaussian(3.0, 20)
            )
            trace, up_weight, coherence = coin_sums(state.up, state.down)
            a, b = up_weight, abs(coherence) ** 2
            assert b == pytest.approx(a * (trace - a), abs=1e-14)

    def test_matrix_layout(self):
        # row 0 is spin up, and the off-diagonal entry is sum a conj(b), not its conjugate
        trace, up_weight, coherence = coin_sums(
            np.array([[0.6, 0.0], [0.5, 0.5j]]), np.array([[0.8j, 0.0], [0.5, 0.5]])
        )
        assert np.allclose(trace, [1.0, 1.0], rtol=0, atol=1e-15)
        assert np.allclose(up_weight, [0.36, 0.5], rtol=0, atol=1e-15)
        assert np.allclose(coherence, [-0.48j, 0.25 + 0.25j], rtol=0, atol=1e-15)

    def test_nonpositive_trace_rejected(self):
        # a NaN amplitude gives a NaN trace, which is not positive either
        for up, down in [([math.nan], [0.0]), ([0.6], [0.8 * math.nan])]:
            with pytest.raises(ValueError, match="trace must be positive"):
                entanglement_entropy(state_from(up, down))
        # the vector form holds every element to the same rule, before it divides
        for trace in ([0.0], [-1.0], [math.nan], [1.0, 0.0]):
            zeros = np.zeros(len(trace))
            with pytest.raises(ValueError, match="trace must be positive"):
                entropy_bits_vec(zeros, zeros, np.array(trace))

    def test_zero_state_rejected_without_a_warning(self):
        # RuntimeWarnings are errors in this suite: the trace is checked before any
        # division, so a zero state's coin sums raise quietly
        zeros = np.zeros(5)
        with pytest.raises(ValueError, match="trace must be positive"):
            entropy_bits_vec(zeros, zeros, zeros)


class TestEntropy:
    def test_separable(self):
        assert _coin_eigenvalues(1.0, 0.0, 1.0) == (1.0, 0.0)
        assert entanglement_entropy(state_from([1.0], [0.0])) == 0.0

    def test_exact_zero_is_positive_zero(self):
        # -0 log2(-0) would print as "-0" in every single walk's first CSV row
        product = build_initial_state(QubitParams(0.0, 0.0), InitialStateSpec.gaussian(1.5, 9))
        for state in (product, state_from([0.0, 1.0], [0.0, 0.0]), state_from([0.0], [1j])):
            assert math.copysign(1.0, entanglement_entropy(state)) == 1.0
        zeros = entropy_bits_vec(np.array([1.0, 0.0]), np.zeros(2), 1.0)
        assert np.array_equal(np.copysign(1.0, zeros), [1.0, 1.0])

    def test_maximally_mixed(self):
        lambda_plus, _ = _coin_eigenvalues(0.5, 0.0, 1.0)
        assert lambda_plus == pytest.approx(0.5, abs=1e-15)
        # spin up on one site, spin down on the other
        state = state_from([SQRT1_2, 0.0], [0.0, SQRT1_2])
        assert entanglement_entropy(state) == pytest.approx(1.0, abs=1e-15)

    def test_pure_superposition(self):
        lambda_plus, _ = _coin_eigenvalues(0.5, 0.5**2, 1.0)
        assert lambda_plus == pytest.approx(1.0, abs=1e-15)
        state = state_from([SQRT1_2], [SQRT1_2])
        assert entanglement_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_input_normalized_internally(self):
        rng = np.random.default_rng(3)
        up, down = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        norm = math.sqrt(float(np.sum(np.abs(up) ** 2 + np.abs(down) ** 2)))
        reference = state_from(up / norm, down / norm)
        scale = math.sqrt(0.75)  # trace 0.75
        scaled = state_from(reference.up * scale, reference.down * scale)
        assert entanglement_entropy(scaled) == pytest.approx(
            entanglement_entropy(reference), abs=1e-14
        )
        trace, up_weight, coherence = coin_sums(scaled.up, scaled.down)
        lambda_plus, lambda_minus = _coin_eigenvalues(up_weight, abs(coherence) ** 2, trace)
        assert lambda_plus + lambda_minus == pytest.approx(1.0, abs=1e-12)

    def test_corrupted_input_rejected(self):
        with pytest.raises(ValueError):
            _coin_eigenvalues(1.2, 0.0, 1.0)  # weight above the trace
        with pytest.raises(ValueError):
            _coin_eigenvalues(0.5, 0.9**2, 1.0)  # coherence beyond Cauchy-Schwarz

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
        up, down = up / norm, down / norm
        # the reduced coin matrix from this test's own sums
        up_weight, down_weight = np.vdot(up, up).real, np.vdot(down, down).real
        coherence = np.vdot(down, up)  # sum a conj(b)
        trace = up_weight + down_weight
        rho = np.array([[up_weight, coherence], [np.conj(coherence), down_weight]]) / trace
        eigs = np.linalg.eigvalsh(rho)
        direct = -sum(lam * math.log2(lam) for lam in eigs if lam > 1e-300)
        assert entanglement_entropy(state_from(up, down)) == pytest.approx(direct, abs=1e-12)
        lambda_plus, lambda_minus = _coin_eigenvalues(up_weight, abs(coherence) ** 2, trace)
        assert lambda_plus + lambda_minus == pytest.approx(1.0, abs=1e-12)
        a_n = up_weight / trace
        b2_n = abs(coherence) ** 2 / trace**2
        assert lambda_plus * lambda_minus == pytest.approx(a_n * (1 - a_n) - b2_n, abs=1e-12)

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
        # a two-site state per coin matrix tr (1 + r n.sigma) / 2: its eigenvectors,
        # weighted by the square roots of its eigenvalues, one per site
        up = np.empty((len(coins), 2), dtype=np.complex128)
        down = np.empty_like(up)
        for i, (r, theta, phi, tr) in enumerate(coins):
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            phase = complex(math.cos(phi), math.sin(phi))
            plus, minus = math.sqrt(tr * (1 + r) / 2), math.sqrt(tr * (1 - r) / 2)
            up[i] = plus * c, -minus * s * phase.conjugate()
            down[i] = plus * s * phase, minus * c
        states = [state_from(u, d) for u, d in zip(up, down)]
        trace, up_weight, coherence = coin_sums(up, down)
        coherence_sq = _prob(coherence)
        one_by_one = np.array([entanglement_entropy(state) for state in states])
        assert np.array_equal(entropy_bits_vec(up_weight, coherence_sq, trace), one_by_one)

        i = corrupt % len(coins)
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
    )
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_beyond_cauchy_schwarz(self, a, fraction, trace):
        # |B|^2 = fraction * A(1 - A) + offset: offset 1e-6 sits far past the
        # 1e-9 slack, so fraction below 1 is valid and above 1 is not
        offset = 1e-6 if fraction > 1.0 else 0.0
        coherence_sq = (fraction * a * (1.0 - a) + offset) * trace**2
        try:
            entropy_bits_vec(np.array([a * trace]), np.array([coherence_sq]), trace)
        except ValueError:
            rejects = True
        else:
            rejects = False
        assert rejects == (fraction > 1.0)

    def test_invariant_under_global_phase_and_translation(self):
        init, plan = InitialStateSpec.gaussian(2.0, 8), EvolutionPlan(CoinSpec.hadamard(), 6)
        state = final_state(QubitParams(1.1, 0.7), init, plan)
        base = entanglement_entropy(state)

        phased = WalkState(state.window, state.up * np.exp(0.3j), state.down * np.exp(0.3j))
        assert entanglement_entropy(phased) == pytest.approx(
            base, abs=1e-13
        )

        shifted_window = LatticeWindow(state.window.j_min + 17, state.window.j_max + 17)
        shifted = WalkState(shifted_window, state.up.copy(), state.down.copy())
        assert entanglement_entropy(shifted) == pytest.approx(
            base, abs=1e-13
        )

    @given(
        alpha=st.floats(0, math.pi, allow_nan=False),
        beta=st.floats(0, 2 * math.pi, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_separable_states_have_zero_entropy(self, alpha, beta):
        state = build_initial_state(QubitParams(alpha, beta), InitialStateSpec.gaussian(1.5, 9))
        assert entanglement_entropy(state) <= 1e-12


class TestPeaks:
    def test_peak_sites_and_distance(self):
        d = dist_from({-7: 0.4, -2: 0.1, 3: 0.2, 8: 0.3}, LatticeWindow(-10, 10))
        (j_left, _), (j_right, _) = outer_lobes(d)
        assert (j_left, j_right) == (-7, 8)

    def test_far_peak_weight_isolated_lobes(self):
        # two clean lobes: each lobe carries its own mass
        values = {-6: 0.1, -5: 0.2, -4: 0.1, 4: 0.15, 5: 0.3, 6: 0.15}
        (_, left), (_, right) = outer_lobes(dist_from(values, LatticeWindow(-9, 9)))
        assert right == pytest.approx(0.6, abs=1e-12)
        assert left == pytest.approx(0.4, abs=1e-12)

    def test_far_peak_weight_bridges_parity_comb(self):
        # every other site empty, like a local-state walk
        values = {2: 0.1, 4: 0.5, 6: 0.2, -2: 0.2}
        (_, left), (j_right, right) = outer_lobes(dist_from(values, LatticeWindow(-7, 7)))
        assert (j_right, right) == (4, pytest.approx(0.8, abs=1e-12))
        assert left == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize(
        "values, lobes",
        [
            # a rising outer tail on the left, as a local walk has at its back edge
            ({-6: 0.05, -4: 0.3, -2: 0.05, 4: 0.6}, ((-4, 0.4), (4, 0.6))),
            # and on both edges, mirrored
            ({-6: 0.05, -4: 0.3, -2: 0.05, 2: 0.05, 4: 0.5, 6: 0.05}, ((-4, 0.4), (4, 0.6))),
        ],
    )
    def test_comb_lobe_is_reached_across_its_rising_tail(self, values, lobes):
        # on a comb the envelope rises in pairs of equal values; the start of
        # such a pair is not a maximum, so the lobe is the ballistic peak
        (j_left, left), (j_right, right) = outer_lobes(dist_from(values, LatticeWindow(-8, 8)))
        assert ((j_left, left), (j_right, right)) == (
            (lobes[0][0], pytest.approx(lobes[0][1], abs=1e-12)),
            (lobes[1][0], pytest.approx(lobes[1][1], abs=1e-12)),
        )

    @pytest.mark.parametrize("window", [LatticeWindow(1, 5), LatticeWindow(3, 3)])
    def test_point_mass_is_one_lobe_twice(self, window):
        assert outer_lobes(point_mass(3, window)) == ((3, 1.0), (3, 1.0))

    def test_zero_total_raises(self):
        with pytest.raises(ValueError, match="positive total probability, got 0.0$"):
            outer_lobes(dist_from({}, LatticeWindow(-2, 2)))

    def test_nan_total_is_named_in_the_error(self):
        with pytest.raises(ValueError, match="positive total probability, got nan$"):
            outer_lobes(dist_from({0: math.nan}, LatticeWindow(-2, 2)))


@pytest.mark.parametrize("rows, sites", [(1, 6201), (16, 702), (16, 2201)])
def test_row_kernel_equals_scalar_observables_per_row(rows, sites):
    """Each row of the kernel is bit for bit the kernel on that row alone, and the plain sums."""
    rng = np.random.default_rng(rows * sites)
    window = LatticeWindow(-(sites // 2), sites - 1 - sites // 2)
    up, down = rng.normal(size=(2, rows, sites)) + 1j * rng.normal(size=(2, rows, sites))
    up[:, : sites // 3] = 0.0  # a zero margin, as outside the light cone
    sites_f = window.sites().astype(np.float64)
    norm, sigma, up_weight, coherence = _row_observables(up, down, sites_f)
    entropy = entropy_bits_vec(up_weight, _prob(coherence), norm)
    for i in range(rows):
        state = WalkState(window, up[i], down[i])
        dist = distribution(state)
        assert norm[i] == dist.total()
        assert sigma[i] == dispersion(dist)
        assert up_weight[i] == np.sum(dist.p_up)
        assert coherence[i] == np.vdot(down[i], up[i])
        assert entropy[i] == entanglement_entropy(state)  # the kernel on row i alone
        # the plain one-row formula, written out with np.dot
        centered = window.sites() - np.dot(dist.p_total, window.sites()) / dist.total()
        assert sigma[i] == math.sqrt(np.dot(dist.p_total, centered * centered) / dist.total())
