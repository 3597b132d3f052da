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
    QubitParams,
    WalkState,
    WindowOverflowError,
    build_initial_state,
    distribution,
    evolve,
    prepared,
    reachable_window,
    recorded_steps,
    run_walk,
    step,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def spin_up_local(window: LatticeWindow) -> WalkState:
    state = WalkState.zero(window)
    state.up[window.index(0)] = 1.0
    return state


def test_single_step_hand_result():
    state = spin_up_local(LatticeWindow(-1, 1))
    out = step(state, CoinSpec.hadamard())
    assert out.t == 1
    assert out.up[out.window.index(1)] == pytest.approx(SQRT1_2, abs=1e-16)
    assert out.down[out.window.index(-1)] == pytest.approx(SQRT1_2, abs=1e-16)
    assert out.up[out.window.index(0)] == 0.0
    assert out.down[out.window.index(0)] == 0.0


def test_two_step_amplitudes_and_distribution():
    state = spin_up_local(LatticeWindow(-2, 2))
    out = step(step(state, CoinSpec.hadamard()), CoinSpec.hadamard())
    idx = out.window.index
    assert out.up[idx(0)] == pytest.approx(0.5, abs=1e-15)
    assert out.down[idx(0)] == pytest.approx(0.5, abs=1e-15)
    assert out.up[idx(2)] == pytest.approx(0.5, abs=1e-15)
    assert out.down[idx(-2)] == pytest.approx(-0.5, abs=1e-15)
    p = np.abs(out.up) ** 2 + np.abs(out.down) ** 2
    assert p[idx(-2)] == pytest.approx(0.25, abs=1e-15)
    assert p[idx(0)] == pytest.approx(0.5, abs=1e-15)
    assert p[idx(2)] == pytest.approx(0.25, abs=1e-15)


def test_defect_flips_and_moves_right():
    r = 4
    state = WalkState.zero(LatticeWindow(0, 8))
    state.down[state.window.index(r)] = 1.0
    out = step(state, CoinSpec.not_defect(r))
    assert out.up[out.window.index(r + 1)] == 1.0 + 0.0j
    assert distribution(out).total() == pytest.approx(1.0, abs=1e-15)
    occupied = np.flatnonzero((out.up != 0) | (out.down != 0))
    assert list(occupied) == [out.window.index(r + 1)]


def test_defect_spin_up_reflects_left():
    r = 4
    state = WalkState.zero(LatticeWindow(0, 8))
    state.up[state.window.index(r)] = 1.0
    out = step(state, CoinSpec.not_defect(r))
    assert out.down[out.window.index(r - 1)] == 1.0 + 0.0j


def test_light_cone_zeros_are_exact():
    steps = 25
    state = spin_up_local(LatticeWindow(-40, 40))
    coin = CoinSpec.hadamard()
    for t in range(1, steps + 1):
        state = step(state, coin)
        sites = state.sites()
        outside = np.abs(sites) > t
        assert np.all(state.up[outside] == 0.0)
        assert np.all(state.down[outside] == 0.0)


def test_norm_conserved_per_step():
    state = build_initial_state(QubitParams(1.2, 3.4), InitialStateSpec.gaussian(2.0, 8))
    state = state.embedded(LatticeWindow(-60, 60))
    coin = CoinSpec.not_defect(-9)
    norm0 = distribution(state).total()
    for _ in range(50):
        state = step(state, coin)
        assert abs(distribution(state).total() - norm0) <= 50 * 1e-14


def test_overflow_is_fatal_not_clipped():
    state = spin_up_local(LatticeWindow(-2, 2))
    coin = CoinSpec.hadamard()
    state = step(state, coin)
    state = step(state, coin)
    with pytest.raises(WindowOverflowError):
        step(state, coin)


def test_reachable_window_hadamard():
    assert reachable_window((0, 0), CoinSpec.hadamard(), 10) == LatticeWindow(-10, 10)
    assert reachable_window((-3, 5), CoinSpec.hadamard(), 2) == LatticeWindow(-5, 7)


def test_reachable_window_clips_at_defect():
    coin = CoinSpec.not_defect(-101)
    assert reachable_window((-100, 100), coin, 3000) == LatticeWindow(-101, 3100)
    # defect beyond the light cone does not matter
    assert reachable_window((0, 0), CoinSpec.not_defect(-50), 10) == LatticeWindow(-10, 10)
    # defect on the right clips the right edge
    assert reachable_window((0, 0), CoinSpec.not_defect(7), 100) == LatticeWindow(-100, 7)
    # defect inside the support clips nothing
    assert reachable_window((-5, 5), CoinSpec.not_defect(0), 10) == LatticeWindow(-15, 15)
    # nor does a defect on the edge of the support: the NOT gate sends its amplitude past it
    assert reachable_window((0, 0), CoinSpec.not_defect(0), 10) == LatticeWindow(-10, 10)
    coin = CoinSpec.not_defect(-100)
    assert reachable_window((-100, 100), coin, 3000) == LatticeWindow(-3100, 3100)


def test_walk_from_a_defect_on_the_support_edge():
    plan = EvolutionPlan(CoinSpec.not_defect(0), 10)
    qubit = QubitParams(0.75 * math.pi, 0.0)
    record = run_walk(qubit, InitialStateSpec.local(), plan)
    padded = build_initial_state(qubit, InitialStateSpec.local(), LatticeWindow(-10, 10))
    reference = evolve(padded, plan)
    assert record.final_state.window == reference.window
    assert np.array_equal(record.final_state.up, reference.up)
    assert np.array_equal(record.final_state.down, reference.down)


def test_prepared_embeds_only_when_needed():
    plan = EvolutionPlan(CoinSpec.hadamard(), 5)
    state = spin_up_local(LatticeWindow(-1, 1))
    ready = prepared(state, plan)
    assert ready.window == LatticeWindow(-5, 5)
    again = prepared(ready, plan)
    assert again is ready


def test_evolve_requires_presized_window():
    plan = EvolutionPlan(CoinSpec.hadamard(), 10)
    state = spin_up_local(LatticeWindow(-3, 3))
    with pytest.raises(WindowOverflowError):
        evolve(state, plan)


def test_recorded_steps_schedule():
    plan = EvolutionPlan(CoinSpec.hadamard(), 7, record_every=3)
    state = prepared(spin_up_local(LatticeWindow(0, 0)), plan)
    stepped = [state]
    for _ in range(plan.steps):
        stepped.append(step(stepped[-1], plan.coin))
    seen = []  # the time of each yield, found among the stepped states
    for up, down in recorded_steps(state.up.copy(), state.down.copy(), plan, state.window):
        seen += [
            t
            for t, s in enumerate(stepped)
            if np.array_equal(s.up, up) and np.array_equal(s.down, down)
        ]
    final = evolve(state, plan)
    assert seen == [0, 3, 6, 7]
    assert final.t == 7
    assert list(plan.record_times()) == [0, 3, 6, 7]


def test_evolve_leaves_input_and_counts_from_its_time():
    """The generator steps in its input arrays, so evolve must work on copies."""
    plan = EvolutionPlan(CoinSpec.not_defect(-2), 9, record_every=4)
    ready = prepared(
        build_initial_state(QubitParams(0.7, 0.2), InitialStateSpec.gaussian(1.5, 4)), plan
    )
    start = WalkState(ready.window, ready.up, ready.down, t=5)
    up, down = start.up.copy(), start.down.copy()
    final = evolve(start, plan)
    assert np.array_equal(start.up, up) and np.array_equal(start.down, down)
    assert start.t == 5
    assert final.t == 14
    expected = start
    for _ in range(plan.steps):
        expected = step(expected, plan.coin)
    assert expected.t == 14
    assert np.array_equal(final.up, expected.up)
    assert np.array_equal(final.down, expected.down)


def test_evolve_single_step_matches_step():
    plan = EvolutionPlan(CoinSpec.hadamard(), 1)
    state = prepared(
        build_initial_state(QubitParams(0.7, 0.2), InitialStateSpec.local()), plan
    )
    via_evolve = evolve(state.copy(), plan)
    via_step = step(state, plan.coin)
    assert np.array_equal(via_evolve.up, via_step.up)
    assert np.array_equal(via_evolve.down, via_step.down)


def test_plan_validation():
    with pytest.raises(ValueError):
        EvolutionPlan(CoinSpec.hadamard(), 0)
    with pytest.raises(ValueError):
        EvolutionPlan(CoinSpec.hadamard(), 5, record_every=0)


@st.composite
def random_states(draw):
    j_min = draw(st.integers(-8, -2))
    j_max = draw(st.integers(2, 8))
    window = LatticeWindow(j_min, j_max)
    n = window.size
    elements = st.floats(-1.0, 1.0, allow_nan=False, width=32)
    up_re = draw(st.lists(elements, min_size=n, max_size=n))
    up_im = draw(st.lists(elements, min_size=n, max_size=n))
    dn_re = draw(st.lists(elements, min_size=n, max_size=n))
    dn_im = draw(st.lists(elements, min_size=n, max_size=n))
    up = np.array(up_re) + 1j * np.array(up_im)
    down = np.array(dn_re) + 1j * np.array(dn_im)
    return WalkState(window, up, down)


@given(pair=st.tuples(random_states(), random_states()),
       c1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       c2=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_step_is_linear(pair, c1, c2):
    s1, s2 = pair
    window = LatticeWindow(
        min(s1.window.j_min, s2.window.j_min) - 6,
        max(s1.window.j_max, s2.window.j_max) + 6,
    )
    s1 = s1.embedded(window)
    s2 = s2.embedded(window)
    combined = WalkState(window, c1 * s1.up + c2 * s2.up, c1 * s1.down + c2 * s2.down)
    coin = CoinSpec.not_defect(0)
    for _ in range(5):
        s1 = step(s1, coin)
        s2 = step(s2, coin)
        combined = step(combined, coin)
    assert np.abs(combined.up - (c1 * s1.up + c2 * s2.up)).max() <= 1e-12
    assert np.abs(combined.down - (c1 * s1.down + c2 * s2.down)).max() <= 1e-12


@given(sigma0=st.floats(0.5, 5.0, allow_nan=False), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_reflection_never_crosses_defect(sigma0, seed):
    """Amplitude starting right of the defect stays right of it, exactly."""
    rng = np.random.default_rng(seed)
    qubit = QubitParams(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
    defect = -11
    init = InitialStateSpec.gaussian(sigma0, 10, renormalize=True)
    plan = EvolutionPlan(CoinSpec.not_defect(defect), 40)
    state = build_initial_state(qubit, init).embedded(LatticeWindow(-60, 60))
    cut = state.window.index(defect)
    for up, down in recorded_steps(state.up, state.down, plan, state.window):
        assert np.all(up[:cut] == 0.0)
        assert np.all(down[:cut] == 0.0)
