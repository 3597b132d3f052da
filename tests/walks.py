"""Single-state helpers for the tests: build, step and measure one ``WalkState``.

No run builds or returns a state; these put one through the library's own
parts.  A state is the one-row case of the run's builder, it steps through
the library's one stepping loop, and its distribution and entropy come from
the squares and the row kernel every single walk and ``direct`` batch uses.
"""

import numpy as np

from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    InitialStateSpec,
    LatticeWindow,
    PositionDistribution,
    QubitParams,
    WalkState,
    recorded_steps,
)
from qwalk1d.core import _coefficients, _product_states
from qwalk1d.ensemble import check_run
from qwalk1d.observables import _prob, _row_observables, entropy_bits_vec


def build_initial_state(
    qubit: QubitParams, init: InitialStateSpec, window: LatticeWindow | None = None
) -> WalkState:
    """Product state of ``qubit`` over the envelope of ``init`` at t=0.

    The one-row case of ``core._product_states``.  When ``window`` is omitted
    the state occupies :meth:`InitialStateSpec.support`; to evolve it, pass
    the run's window (``ensemble.check_run``).
    """
    if window is None:
        window = LatticeWindow(*init.support())
    c, s = _coefficients(np.array([qubit.alpha]), np.array([qubit.beta]))
    up, down = _product_states(init, window, c, s)
    return WalkState(window, up[0], down[0])


def distribution(state: WalkState) -> PositionDistribution:
    return PositionDistribution(state.window, _prob(state.up), _prob(state.down))


def entanglement_entropy(state: WalkState) -> float:
    """The coin's von Neumann entropy in bits: ``entropy_bits_vec`` on the row kernel's sums.

    The trace, ``sum|a|^2`` and ``sum a conj(b)`` are ``_row_observables`` on the
    state as one row, so a zero state's moments warn (0/0) before the trace check.
    """
    up, down, sites = state.up[None], state.down[None], state.window.sites().astype(np.float64)
    trace, _, up_weight, coherence = _row_observables(up, down, sites)
    return float(entropy_bits_vec(up_weight, _prob(coherence), trace)[0])


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
