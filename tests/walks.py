"""Stepping helpers for the tests: states through the library's one stepping loop."""

from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    InitialStateSpec,
    QubitParams,
    WalkState,
    build_initial_state,
    recorded_steps,
)
from qwalk1d.ensemble import check_run


def stepped(state: WalkState, coin: CoinSpec, steps: int = 1) -> WalkState:
    """``state`` after ``steps`` steps of :func:`recorded_steps` on its window, as a new state."""
    plan = EvolutionPlan(coin, steps, record_every=steps)
    *_, (up, down, _) = recorded_steps(state.up, state.down, plan, state.window)
    return WalkState(state.window, up, down)


def final_state(qubit: QubitParams, init: InitialStateSpec, plan: EvolutionPlan) -> WalkState:
    """The amplitudes ``run_walk(qubit, init, plan)`` ends on, which the run does not return.

    The run's start, ``qubit`` over ``init`` in the window :func:`check_run` gives it,
    stepped ``plan.steps`` times by the same kernel.
    """
    start = build_initial_state(qubit, init, check_run(init, plan)[0])
    return stepped(start, plan.coin, plan.steps)
