import math
import re

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
    fit_dispersion_slope,
    make_qubit_grid,
    reachable_window,
    recorded_steps,
    run_ensemble,
    run_walk,
)
from qwalk1d.ensemble import check_run
from oracle import ring_evolve
from walks import final_state, stepped

SQRT1_2 = 1.0 / math.sqrt(2.0)


def spin_up_local(window: LatticeWindow) -> WalkState:
    state = WalkState.zero(window)
    state.up[-window.j_min] = 1.0
    return state


def test_single_step_hand_result():
    state = spin_up_local(LatticeWindow(-1, 1))
    out = stepped(state, CoinSpec.hadamard())
    assert out.up[1 - out.window.j_min] == pytest.approx(SQRT1_2, abs=1e-16)
    assert out.down[-1 - out.window.j_min] == pytest.approx(SQRT1_2, abs=1e-16)
    assert out.up[-out.window.j_min] == 0.0
    assert out.down[-out.window.j_min] == 0.0


def test_two_step_amplitudes_and_distribution():
    state = spin_up_local(LatticeWindow(-2, 2))
    out = stepped(state, CoinSpec.hadamard(), 2)
    origin = -out.window.j_min
    assert out.up[origin] == pytest.approx(0.5, abs=1e-15)
    assert out.down[origin] == pytest.approx(0.5, abs=1e-15)
    assert out.up[origin + 2] == pytest.approx(0.5, abs=1e-15)
    assert out.down[origin - 2] == pytest.approx(-0.5, abs=1e-15)
    p = np.abs(out.up) ** 2 + np.abs(out.down) ** 2
    assert p[origin - 2] == pytest.approx(0.25, abs=1e-15)
    assert p[origin] == pytest.approx(0.5, abs=1e-15)
    assert p[origin + 2] == pytest.approx(0.25, abs=1e-15)


def test_defect_flips_and_moves_right():
    r = 4
    state = WalkState.zero(LatticeWindow(0, 8))
    state.down[r - state.window.j_min] = 1.0
    out = stepped(state, CoinSpec.not_defect(r))
    assert out.up[r + 1 - out.window.j_min] == 1.0 + 0.0j
    assert distribution(out).total() == pytest.approx(1.0, abs=1e-15)
    occupied = np.flatnonzero((out.up != 0) | (out.down != 0))
    assert list(occupied) == [r + 1 - out.window.j_min]


def test_defect_spin_up_reflects_left():
    r = 4
    state = WalkState.zero(LatticeWindow(0, 8))
    state.up[r - state.window.j_min] = 1.0
    out = stepped(state, CoinSpec.not_defect(r))
    assert out.down[r - 1 - out.window.j_min] == 1.0 + 0.0j


def test_light_cone_zeros_are_exact():
    plan = EvolutionPlan(CoinSpec.hadamard(), 25)
    state = spin_up_local(LatticeWindow(-40, 40))
    sites = state.window.sites()
    walk = recorded_steps(state.up, state.down, plan, state.window)
    for t, (up, down, _) in zip(plan.record_times(), walk):
        outside = np.abs(sites) > t
        assert np.all(up[outside] == 0.0)
        assert np.all(down[outside] == 0.0)


def _cone_start(window: LatticeWindow, rows: dict[int, tuple[int, int]]):
    """``(k, N)`` amplitudes, nonzero in row ``k`` on the sites ``rows[k]`` (inclusive) alone."""
    up = np.zeros((max(rows, default=0) + 1, window.size), dtype=np.complex128)
    for k, (lo, hi) in rows.items():
        up[k, lo - window.j_min : hi - window.j_min + 1] = np.linspace(0.3, 0.9, hi - lo + 1) + 0.2j
    return up, (0.5 - 0.4j) * up


@pytest.mark.parametrize(
    "window, rows, coin, steps",
    [
        (LatticeWindow(-20, 20), {0: (4, 5), 1: (7, 7)}, CoinSpec.hadamard(), 12),
        (LatticeWindow(-26, 26), {0: (-6, 6)}, CoinSpec.not_defect(-3), 20),
        (LatticeWindow(-11, 40), {0: (-10, 10)}, CoinSpec.not_defect(-11), 30),
        (LatticeWindow(-40, 11), {0: (-10, 10)}, CoinSpec.not_defect(11), 30),
        (LatticeWindow(-5, 5), {}, CoinSpec.hadamard(), 6),
    ],
    ids=[
        "off_centre_interior",
        "defect_inside_cone",
        "defect_on_window_edge",
        "defect_on_right_window_edge",
        "all_zero",
    ],
)
def test_live_is_the_start_range_grown_one_site_per_step(window, rows, coin, steps):
    # the run's window: the fig2 geometry clips it at the mirror, one site left of the start
    for lo, hi in rows.values():
        assert window.contains(reachable_window((lo, hi), coin, steps))
    up, down = _cone_start(window, rows)
    if rows:
        lo = min(lo for lo, _ in rows.values()) - window.j_min
        hi = max(hi for _, hi in rows.values()) - window.j_min + 1
    plan = EvolutionPlan(coin, steps)
    for t, (up, down, live) in zip(plan.record_times(), recorded_steps(up, down, plan, window)):
        expected = slice(max(lo - t, 0), min(hi + t, window.size)) if rows else slice(0, 0)
        assert live == expected
        occupied = np.flatnonzero(np.any(up != 0, axis=0) | np.any(down != 0, axis=0))
        assert occupied.size == 0 or live.start <= occupied[0] <= occupied[-1] < live.stop


def test_off_centre_overflow_raises_at_the_full_window_time():
    # the time the amplitude first leaves the window, found on a padded window
    window, start, steps = LatticeWindow(-3, 6), (3, 4), 8
    padded = LatticeWindow(-20, 20)
    plan = EvolutionPlan(CoinSpec.hadamard(), steps)
    outside = (padded.sites() < window.j_min) | (padded.sites() > window.j_max)
    walk = recorded_steps(*_cone_start(padded, {0: start}), plan, padded)
    leaves = next(
        t
        for t, (up, down, _) in zip(plan.record_times(), walk)
        if np.any(up[:, outside] != 0) or np.any(down[:, outside] != 0)
    )
    assert leaves == 3  # the right front reaches site 6 at t = 2, the left one site -3 at t = 6
    walk = recorded_steps(*_cone_start(window, {0: start}), plan, window)
    for t in range(leaves):
        assert next(walk)[2].stop == min(start[1] - window.j_min + 1 + t, window.size)
    with pytest.raises(WindowOverflowError, match=f"t={leaves}"):
        next(walk)


def test_norm_conserved_per_step():
    window = LatticeWindow(-60, 60)
    state = build_initial_state(QubitParams(1.2, 3.4), InitialStateSpec.gaussian(2.0, 8), window)
    plan = EvolutionPlan(CoinSpec.not_defect(-9), 50)
    norm0 = distribution(state).total()
    for up, down, _ in recorded_steps(state.up, state.down, plan, window):
        assert abs(distribution(WalkState(window, up, down)).total() - norm0) <= 50 * 1e-14


def test_overflow_is_fatal_not_clipped():
    state = spin_up_local(LatticeWindow(-2, 2))
    walk = recorded_steps(state.up, state.down, EvolutionPlan(CoinSpec.hadamard(), 3), state.window)
    for _ in range(3):  # t = 0, 1, 2: the light cone reaches the edges at t = 2
        next(walk)
    with pytest.raises(WindowOverflowError, match="t=3"):
        next(walk)


@pytest.mark.parametrize(
    "defect, spin, overflows",
    [(0, "up", True), (4, "down", True), (0, "down", False), (4, "up", False)],
    ids=["up_at_left_defect", "down_at_right_defect", "down_at_left_defect", "up_at_right_defect"],
)
def test_overflow_guard_at_a_defect_on_the_window_edge(defect, spin, overflows):
    # the NOT gate sends spin up left and spin down right; spin down at a left-edge
    # defect is the fig2 geometry, whose window is clipped at the defect
    window = LatticeWindow(0, 4)
    state = WalkState.zero(window)
    getattr(state, spin)[defect - window.j_min] = 1.0
    plan = EvolutionPlan(CoinSpec.not_defect(defect), 1)
    walk = recorded_steps(state.up, state.down, plan, window)
    next(walk)
    if overflows:
        with pytest.raises(WindowOverflowError):
            next(walk)
    else:
        up, down, _ = next(walk)
        flipped, site = (up, defect + 1) if spin == "down" else (down, defect - 1)
        assert flipped[site - window.j_min] == 1.0
        assert np.count_nonzero(up) + np.count_nonzero(down) == 1


def test_reachable_window_hadamard():
    assert reachable_window((0, 0), CoinSpec.hadamard(), 10) == LatticeWindow(-10, 10)
    assert reachable_window((-3, 5), CoinSpec.hadamard(), 2) == LatticeWindow(-5, 7)


@pytest.mark.parametrize(
    "size",
    [
        lambda plan: reachable_window((0, 0), plan.coin, plan.steps),
        lambda plan: run_walk(QubitParams(0.0, 0.0), InitialStateSpec.local(), plan),
    ],
    ids=["reachable_window", "run_walk"],
)
def test_light_cone_above_max_sites_rejected(size):
    # 2e8 + 1 sites: sized before any amplitude array is
    with pytest.raises(ValueError, match="MAX_SITES"):
        size(EvolutionPlan(CoinSpec(), 10**8))


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
    final = final_state(qubit, InitialStateSpec.local(), plan)
    padded = build_initial_state(qubit, InitialStateSpec.local(), LatticeWindow(-10, 10))
    reference = stepped(padded, plan.coin, plan.steps)
    assert final.window == reference.window
    assert np.array_equal(final.up, reference.up)
    assert np.array_equal(final.down, reference.down)
    dist = run_walk(qubit, InitialStateSpec.local(), plan).mean_distribution
    expected = distribution(reference)
    assert np.array_equal(dist.p_up, expected.p_up)
    assert np.array_equal(dist.p_down, expected.p_down)


def test_run_walk_window_is_the_sampled_light_cone():
    # sized from the envelope's sampled range, not from its nonzero sites: at sigma0=1
    # the samples past |j| = 54 are exact zeros, and the window still holds them
    plan = EvolutionPlan(CoinSpec.hadamard(), 5)
    qubit = QubitParams(0.7, 0.2)
    init = InitialStateSpec.gaussian(1.0)
    start = build_initial_state(qubit, init, LatticeWindow(*init.support()))
    occupied = start.window.sites()[(start.up != 0) | (start.down != 0)]
    assert (occupied.min(), occupied.max()) == (-54, 54)
    record = run_walk(qubit, init, plan)
    assert record.mean_distribution.window == LatticeWindow(-105, 105) == check_run(init, plan)[0]
    local = run_walk(qubit, InitialStateSpec.local(), plan)
    assert local.mean_distribution.window == LatticeWindow(-5, 5)


def test_recorded_steps_schedule():
    plan = EvolutionPlan(CoinSpec.hadamard(), 7, record_every=3)
    state = spin_up_local(reachable_window((0, 0), plan.coin, plan.steps))
    states = [state]
    for _ in range(plan.steps):
        states.append(stepped(states[-1], plan.coin))
    seen = []  # the time of each yield, found among the stepped states
    for up, down, _ in recorded_steps(state.up, state.down, plan, state.window):
        seen += [
            t
            for t, s in enumerate(states)
            if np.array_equal(s.up, up) and np.array_equal(s.down, down)
        ]
    assert seen == [0, 3, 6, 7]
    assert list(plan.record_times()) == [0, 3, 6, 7]


def test_recorded_steps_yield_the_stepped_walk_and_never_write_the_input():
    """Each yield is a view of the loop's own frames, so a caller copies what it keeps."""
    plan = EvolutionPlan(CoinSpec.not_defect(-2), 9, record_every=4)
    init = InitialStateSpec.gaussian(1.5, 4)
    start = build_initial_state(QubitParams(0.7, 0.2), init, check_run(init, plan)[0])
    up, down = start.up.copy(), start.down.copy()
    expected, expected_t = start, 0
    walk = recorded_steps(up, down, plan, start.window)
    for t, (new_up, new_down, _) in zip(plan.record_times(), walk):
        assert not np.shares_memory(new_up, new_down)
        if t > expected_t:
            expected, expected_t = stepped(expected, plan.coin, t - expected_t), t
        assert np.array_equal(new_up, expected.up) and np.array_equal(new_down, expected.down)
    assert expected_t == 9
    assert up.tobytes() == start.up.tobytes() and down.tobytes() == start.down.tobytes()


@pytest.mark.parametrize(
    "dtype, walk_dtype",
    [(np.int64, np.float64), (np.float32, np.float64), (np.complex64, np.complex128)],
    ids=["int", "float32", "complex64"],
)
def test_recorded_steps_step_in_float64_or_complex128(dtype, walk_dtype):
    # the dtype rule of WalkState: a narrower input steps as its exact widening would
    plan = EvolutionPlan(CoinSpec.not_defect(1), 4)
    window = reachable_window((-1, 1), plan.coin, plan.steps)
    up = np.zeros((2, window.size), dtype=dtype)
    origin = -window.j_min
    up[0, origin], up[1, origin - 1 : origin + 2] = 1, (3, -2, 1)
    down = (up[::-1] * (1j if np.iscomplexobj(up) else 1)).astype(dtype)
    walk = recorded_steps(up, down, plan, window)
    twin = recorded_steps(up.astype(walk_dtype), down.astype(walk_dtype), plan, window)
    for (new_up, new_down, _), (twin_up, twin_down, _) in zip(walk, twin):
        assert new_up.dtype == new_down.dtype == walk_dtype
        assert new_up.tobytes() == twin_up.tobytes() and new_down.tobytes() == twin_down.tobytes()


@st.composite
def ring_cases(draw):
    """A start, its plan and its :func:`reachable_window`, the defect anywhere near the cone."""
    lo = draw(st.integers(-20, 20))
    hi = lo + draw(st.integers(0, 5))
    steps = draw(st.integers(1, 12))
    # inside the support, on its edges, clipping either window edge, or past the cone
    offset = draw(st.none() | st.integers(-steps - 2, hi - lo + steps + 2))
    coin = CoinSpec() if offset is None else CoinSpec.not_defect(lo + offset)
    plan = EvolutionPlan(coin, steps, record_every=draw(st.integers(1, steps)))
    window = reachable_window((lo, hi), coin, steps)
    rows = draw(st.integers(1, 3))
    elements = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    up, down = np.zeros((2, rows, window.size), dtype=np.complex128)
    size = rows * (hi - lo + 1)
    for spin in (up, down):
        values = draw(st.lists(elements, min_size=size, max_size=size))
        spin[:, lo - window.j_min : hi - window.j_min + 1] = np.reshape(values, (rows, -1))
    return up, down, plan, window


@given(case=ring_cases())
@settings(max_examples=60, deadline=None)
def test_recorded_steps_match_the_ring_oracle(case):
    up, down, plan, window = case
    # a ring wider than the light cone on both sides, so nothing wraps
    ring = LatticeWindow(window.j_min - plan.steps - 2, window.j_max + plan.steps + 2)
    inside = slice(window.j_min - ring.j_min, window.j_max - ring.j_min + 1)
    states = []
    for row_up, row_down in zip(up, down):
        state = WalkState.zero(ring)
        state.up[inside], state.down[inside] = row_up, row_down
        states.append(state)
    occupied = np.flatnonzero(np.any(up != 0, axis=0) | np.any(down != 0, axis=0))
    oracle_t = 0
    for t, (new_up, new_down, live) in zip(
        plan.record_times(), recorded_steps(up, down, plan, window)
    ):
        states = [ring_evolve(state, plan.coin, t - oracle_t) for state in states]
        oracle_t = t
        for row, state in enumerate(states):
            assert np.abs(new_up[row] - state.up[inside]).max() <= 1e-12
            assert np.abs(new_down[row] - state.down[inside]).max() <= 1e-12
        if occupied.size:
            lo, hi = max(occupied[0] - t, 0), min(occupied[-1] + 1 + t, window.size)
        else:
            lo = hi = 0
        assert live == slice(lo, hi)
        outside = np.ones(window.size, dtype=bool)
        outside[live] = False
        assert not np.any(new_up[:, outside]) and not np.any(new_down[:, outside])


@pytest.mark.parametrize(
    "up_shape, down_shape", [((2, 5), (5,)), ((2, 4), (2, 4)), ((5,), (6,))],
    ids=["one_down_row", "last_axis_not_window", "unequal"],
)
def test_recorded_steps_refuse_amplitudes_off_the_window(up_shape, down_shape):
    # one down row would otherwise be broadcast into every up row, silently
    plan = EvolutionPlan(CoinSpec.hadamard(), 1)
    walk = recorded_steps(np.zeros(up_shape), np.zeros(down_shape), plan, LatticeWindow(-2, 2))
    with pytest.raises(ValueError, match=re.escape(f"must share shape (..., 5), got {up_shape}")):
        next(walk)


def test_run_walk_single_step_matches_ring():
    plan = EvolutionPlan(CoinSpec.hadamard(), 1)
    qubit, init = QubitParams(0.7, 0.2), InitialStateSpec.local()
    final = final_state(qubit, init, plan)
    # the three-site ring [-1, 1] holds the one-step light cone without wrapping
    oracle = ring_evolve(build_initial_state(qubit, init, final.window), plan.coin, 1)
    assert final.window == oracle.window == LatticeWindow(-1, 1)
    assert np.abs(final.up - oracle.up).max() <= 1e-15
    assert np.abs(final.down - oracle.down).max() <= 1e-15


def test_plan_validation():
    with pytest.raises(ValueError):
        EvolutionPlan(CoinSpec.hadamard(), 0)
    with pytest.raises(ValueError):
        EvolutionPlan(CoinSpec.hadamard(), 5, record_every=0)


# every integer input of the package, each given the value under test
INTEGER_INPUTS = {
    "steps": lambda v: EvolutionPlan(CoinSpec.hadamard(), v),
    "record_every": lambda v: EvolutionPlan(CoinSpec.hadamard(), 6, record_every=v),
    "window_bound": lambda v: LatticeWindow(v, 3),
    "window_max": lambda v: LatticeWindow(-3, v),
    "defect_site": lambda v: CoinSpec(v),
    "not_defect": lambda v: CoinSpec.not_defect(v),
    "truncation_radius": lambda v: InitialStateSpec(2.0, v),
    "gaussian_radius": lambda v: InitialStateSpec.gaussian(2.0, v),
    "ring_steps": lambda v: ring_evolve(WalkState.zero(LatticeWindow(-4, 4)), CoinSpec.hadamard(), v),
    "fit_start": lambda v: fit_dispersion_slope(np.arange(7), np.arange(7.0), (v, 6)),
    "fit_end": lambda v: fit_dispersion_slope(np.arange(7), np.arange(7.0), (0, v)),
    "walk_fit_window": lambda v: run_walk(
        QubitParams(1.0, 0.0), InitialStateSpec.local(), EvolutionPlan(CoinSpec.hadamard(), 6),
        fit_window=(0, v),
    ),
    "ensemble_fit_window": lambda v: run_ensemble(
        make_qubit_grid(1.0, 2.0), InitialStateSpec.local(), EvolutionPlan(CoinSpec.hadamard(), 6),
        fit_window=(v, 6),
    ),
}


@pytest.mark.parametrize("build", INTEGER_INPUTS.values(), ids=INTEGER_INPUTS.keys())
def test_plan_and_window_take_only_integers(build):
    # one rule, one exception type, by every spelling: a bool is not an integer here
    for value in (2.5, True, "3"):
        with pytest.raises(ValueError, match="integer"):
            build(value)


def test_plan_and_window_accept_numpy_integers():
    plan = EvolutionPlan(CoinSpec.hadamard(), np.int64(5), record_every=np.int32(2))
    assert plan.record_times().tolist() == [0, 2, 4, 5]
    window = LatticeWindow(np.int64(-2), np.int32(3))
    assert window.size == 6
    _, fit_window = check_run(InitialStateSpec.local(), plan, (np.int64(0), np.int32(5)))
    # a bound left out takes the last-2000-steps default
    (_, default_start), (_, default_end) = (
        check_run(InitialStateSpec.local(), plan, bounds) for bounds in ((None, 5), (0, None))
    )
    stored = {
        "steps": plan.steps,
        "record_every": plan.record_every,
        "j_min": window.j_min,
        "j_max": window.j_max,
        "defect_site": CoinSpec(np.int64(-101)).defect_site,
        "not_defect": CoinSpec.not_defect(np.int32(-101)).defect_site,
        "truncation_radius": InitialStateSpec(2.0, np.int32(7)).truncation_radius,
        "gaussian_radius": InitialStateSpec.gaussian(2.0, np.int64(7)).truncation_radius,
        "fit_start": fit_window[0],
        "fit_end": fit_window[1],
        "default_fit_start": default_start[0],
        "default_fit_end": default_end[1],
    }
    assert {name: type(value) for name, value in stored.items()} == dict.fromkeys(stored, int)
    assert default_start == default_end == (0, 5)
    assert stored["gaussian_radius"] == 7


# the linearity test's window: a state on [-8, 8] stays inside it for five steps
LINEARITY_WINDOW = LatticeWindow(-14, 14)


@st.composite
def random_amplitudes(draw):
    """``(up, down)`` on ``LINEARITY_WINDOW``, nonzero only on a random range inside [-8, 8]."""
    lo = draw(st.integers(-8, -2)) - LINEARITY_WINDOW.j_min
    hi = draw(st.integers(2, 8)) - LINEARITY_WINDOW.j_min
    n = hi - lo + 1
    elements = st.floats(-1.0, 1.0, allow_nan=False, width=32)
    re_up, im_up, re_down, im_down = (
        np.array(draw(st.lists(elements, min_size=n, max_size=n))) for _ in range(4)
    )
    amplitudes = np.zeros((2, LINEARITY_WINDOW.size), dtype=np.complex128)
    amplitudes[0, lo : hi + 1] = re_up + 1j * im_up
    amplitudes[1, lo : hi + 1] = re_down + 1j * im_down
    return amplitudes


@given(pair=st.tuples(random_amplitudes(), random_amplitudes()),
       c1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       c2=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_step_is_linear(pair, c1, c2):
    # rows: the two states and their combination, stepped as one batch
    s1, s2 = pair
    up, down = np.stack((s1, s2, c1 * s1 + c2 * s2), axis=1)
    plan = EvolutionPlan(CoinSpec.not_defect(0), 5, record_every=5)
    *_, (up, down, _) = recorded_steps(up, down, plan, LINEARITY_WINDOW)
    assert np.abs(up[2] - (c1 * up[0] + c2 * up[1])).max() <= 1e-12
    assert np.abs(down[2] - (c1 * down[0] + c2 * down[1])).max() <= 1e-12


@given(sigma0=st.floats(0.5, 5.0, allow_nan=False), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_reflection_never_crosses_defect(sigma0, seed):
    """Amplitude starting right of the defect stays right of it, exactly."""
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
    defect = -11
    plan = EvolutionPlan(CoinSpec.not_defect(defect), 40)
    window = LatticeWindow(-60, 60)
    # raw Gaussian samples over |j| <= 10: reflection is linear, so their scale is free
    j = window.sites()
    f = np.where(np.abs(j) <= 10, np.exp(-(j * j) / (4.0 * sigma0 * sigma0)), 0.0)
    up = np.cos(alpha / 2) * f
    down = np.exp(1j * beta) * np.sin(alpha / 2) * f
    cut = defect - window.j_min
    for up, down, _ in recorded_steps(up, down, plan, window):
        assert np.all(up[:cut] == 0.0)
        assert np.all(down[:cut] == 0.0)
