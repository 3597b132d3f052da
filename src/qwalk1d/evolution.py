"""Time evolution of walk states via the amplitude recurrence.

One step applies the coin at every site and then shifts spin-up amplitude
one site right and spin-down amplitude one site left:

    a(j, t+1) = [a(j-1, t) + b(j-1, t)] / sqrt(2)
    b(j, t+1) = [a(j+1, t) - b(j+1, t)] / sqrt(2)

except where the previous-step site is the NOT defect ``r``, whose
contribution degenerates to a pure swap:

    a(r+1, t+1) = b(r, t)
    b(r-1, t+1) = a(r, t)

The update is double buffered: the t-arrays are read in full before the
t+1 arrays are written, because each output site reads both neighbors.
Amplitude that would cross the window edge raises
:class:`WindowOverflowError` instead of being clipped; clipping would
silently destroy norm conservation.

:func:`recorded_steps` is the one loop that runs a plan, for single walks,
ensembles and cross-checks alike: it steps ``(..., N)`` amplitude arrays
and yields them at the plan's record times.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import SQRT1_2, CoinSpec, LatticeWindow, WalkState

__all__ = [
    "WindowOverflowError",
    "EvolutionPlan",
    "reachable_window",
    "prepared",
    "step",
    "recorded_steps",
    "evolve",
]


class WindowOverflowError(RuntimeError):
    """Amplitude reached the window edge; the evolution plan was mis-sized."""


@dataclass(frozen=True)
class EvolutionPlan:
    """How far to run a walk and how often to record it."""

    coin: CoinSpec
    steps: int
    record_every: int = 1

    def __post_init__(self) -> None:
        for name, value in (("steps", self.steps), ("record_every", self.record_every)):
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value}")

    def record_times(self) -> np.ndarray:
        """Record times: 0, every ``record_every`` steps, and the last step."""
        times = np.arange(0, self.steps + 1, self.record_every, dtype=np.int64)
        if times[-1] != self.steps:
            times = np.append(times, self.steps)
        return times


def reachable_window(
    support: tuple[int, int],
    coin: CoinSpec,
    steps: int,
) -> LatticeWindow:
    """Smallest window containing every site reachable within ``steps``.

    The light cone grows one site per step on each side.  A NOT defect is a
    perfect chiral mirror, so amplitude starting strictly on one side of it
    never crosses: the window is clipped at a defect outside the support.
    """
    lo, hi = support
    if lo > hi:
        raise ValueError(f"invalid support [{lo}, {hi}]")
    j_min = lo - steps
    j_max = hi + steps
    r = coin.defect_site
    if r is not None:
        if r < lo:
            j_min = max(j_min, r)
        if r > hi:
            j_max = min(j_max, r)
    return LatticeWindow(j_min, j_max)


def prepared(state: WalkState, plan: EvolutionPlan) -> WalkState:
    """State re-embedded into a window sized for the whole plan.

    Returns ``state`` unchanged when its window already covers the
    reachable sites.  A zero state needs no room and is returned as is.
    """
    support = state.support()
    if support is None:
        return state
    needed = reachable_window(support, plan.coin, plan.steps)
    if state.window.contains(needed):
        return state
    merged = LatticeWindow(
        min(needed.j_min, state.window.j_min),
        max(needed.j_max, state.window.j_max),
    )
    return state.embedded(merged)


def step(state: WalkState, coin: CoinSpec) -> WalkState:
    """Advance one time step; returns a new state at ``t + 1``."""
    up, down = np.empty_like(state.up), np.empty_like(state.down)
    _advance(state.up, state.down, up, down, coin, state.window, state.t)
    return WalkState(state.window, up, down, state.t + 1)


def _advance(up, down, new_up, new_down, coin: CoinSpec, window: LatticeWindow, t: int) -> None:
    """Coin and shift ``(..., N)`` arrays from ``t`` into the distinct arrays ``new_*``.

    The lattice runs along the last axis; leading axes are independent walks.
    """
    # Coin and shift in one pass, written straight into the t+1 arrays:
    # new_up[j] = coined_up[j-1] and new_down[j] = coined_down[j+1].
    new_up[..., 0] = 0.0
    np.add(up[..., :-1], down[..., :-1], out=new_up[..., 1:])
    new_up *= SQRT1_2
    new_down[..., -1] = 0.0
    np.subtract(up[..., 1:], down[..., 1:], out=new_down[..., :-1])
    new_down *= SQRT1_2
    # coined amplitude of the edge sites, which the shift would push out
    leaving_up = (up[..., -1] + down[..., -1]) * SQRT1_2
    leaving_down = (up[..., 0] - down[..., 0]) * SQRT1_2
    if coin.defect_site is not None and window.contains(coin.defect_site):
        # the NOT gate at the defect swaps the spins instead of mixing them
        i = coin.defect_site - window.j_min
        if i + 1 < window.size:
            new_up[..., i + 1] = down[..., i]
        else:
            leaving_up = down[..., i]
        if i > 0:
            new_down[..., i - 1] = up[..., i]
        else:
            leaving_down = up[..., i]

    if np.count_nonzero(leaving_up) or np.count_nonzero(leaving_down):
        raise WindowOverflowError(
            f"amplitude would leave window [{window.j_min}, {window.j_max}] "
            f"at t={t + 1}; size the window for the full run (see reachable_window)"
        )


def recorded_steps(
    up: np.ndarray, down: np.ndarray, plan: EvolutionPlan, window: LatticeWindow
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step ``(..., N)`` amplitudes over ``window``, yielding ``(up, down)`` at each record time.

    The arrays passed in are one of two alternating buffer pairs, so they
    are overwritten; a yielded pair is valid until the generator resumes.
    """
    spare = np.empty_like(up), np.empty_like(down)
    t = 0
    for t_record in plan.record_times():
        while t < t_record:
            _advance(up, down, *spare, plan.coin, window, t)
            (up, down), spare = spare, (up, down)
            t += 1
        yield up, down


def evolve(state: WalkState, plan: EvolutionPlan) -> WalkState:
    """Advance ``state`` by ``plan.steps`` steps; the input is left untouched.

    The window must already be sized for the full run (see
    :func:`prepared`); otherwise the walk fails fast instead of dying
    mid-run.
    """
    support = state.support()
    if support is not None:
        needed = reachable_window(support, plan.coin, plan.steps)
        if not state.window.contains(needed):
            raise WindowOverflowError(
                f"window [{state.window.j_min}, {state.window.j_max}] cannot hold "
                f"the light cone [{needed.j_min}, {needed.j_max}] of a "
                f"{plan.steps}-step run"
            )
    up, down = state.up.copy(), state.down.copy()
    for up, down in recorded_steps(up, down, plan, state.window):
        pass
    return WalkState(state.window, up, down, state.t + plan.steps)
