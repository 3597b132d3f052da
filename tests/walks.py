"""Stepping helper for the tests: one state through the library's one stepping loop."""

from qwalk1d import CoinSpec, EvolutionPlan, WalkState, recorded_steps


def stepped(state: WalkState, coin: CoinSpec, steps: int = 1) -> WalkState:
    """``state`` after ``steps`` steps of :func:`recorded_steps` on its window, as a new state."""
    plan = EvolutionPlan(coin, steps, record_every=steps)
    *_, (up, down, _) = recorded_steps(state.up, state.down, plan, state.window)
    return WalkState(state.window, up, down)
