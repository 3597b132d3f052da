"""Time evolution of walk states via the amplitude recurrence.

One step applies the coin at every site and then shifts spin-up amplitude
one site right and spin-down amplitude one site left:

    a(j, t+1) = [a(j-1, t) + b(j-1, t)] / sqrt(2)
    b(j, t+1) = [a(j+1, t) - b(j+1, t)] / sqrt(2)

except where the previous-step site is the NOT defect ``r``, whose
contribution degenerates to a pure swap:

    a(r+1, t+1) = b(r, t)
    b(r-1, t+1) = a(r, t)

The update is double buffered: the t-arrays are read before the t+1
arrays are written, because each output site reads both neighbors.
A run's window is sized before its first step, from the light cone
(:func:`reachable_window`, called by ``ensemble.check_run``).  Amplitude
that would still cross the window edge raises :class:`WindowOverflowError`
instead of being clipped; clipping would silently destroy norm
conservation.

:func:`recorded_steps` is the one loop that runs a plan, for single walks,
ensembles and cross-checks alike: it steps ``(..., N)`` amplitude arrays
with the one kernel, ``_advance``, and yields them at the plan's record
times with their light cone ``live``.  The cone starts as the input's
nonzero columns and grows one site per step on each side, clipped to the
window; outside it the arrays are exactly zero, so only the cone is
stepped, and callers reduce over it alone.  The arrays stay full width,
and every site the cone covers is computed as a full-window step would,
so the states are the same bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import SQRT1_2, CoinSpec, LatticeWindow, _integer, check_site_count

__all__ = [
    "WindowOverflowError",
    "EvolutionPlan",
    "reachable_window",
    "recorded_steps",
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
        for name in ("steps", "record_every"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))

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
    A window above :data:`~qwalk1d.core.MAX_SITES` sites raises ValueError,
    so every run that sizes its window here fails before it allocates.
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
    window = LatticeWindow(j_min, j_max)
    check_site_count(window.size, f"a {steps}-step walk reaches")
    return window


def _advance(
    up, down, new_up, new_down, coin: CoinSpec, window: LatticeWindow, t: int, live: slice
) -> slice:
    """Coin and shift ``(..., N)`` arrays from ``t`` into the distinct arrays ``new_*``.

    The lattice runs along the last axis; leading axes are independent walks.
    ``up`` and ``down`` must be exactly zero outside the cone ``live``, and
    ``new_*`` outside the cone returned, ``live`` grown one site each way and
    clipped to the window; only the returned cone of ``new_*`` is written.
    """
    n = window.size
    if live.start == live.stop:
        return live
    lo, hi = max(live.start - 1, 0), min(live.stop + 1, n)
    # Coin and shift in one pass, written straight into the t+1 arrays:
    # new_up[j] = coined_up[j-1] and new_down[j] = coined_down[j+1].
    a, b = max(lo, 1), min(hi, n - 1)
    shifted_up, shifted_down = new_up[..., a:hi], new_down[..., lo:b]
    np.add(up[..., a - 1 : hi - 1], down[..., a - 1 : hi - 1], out=shifted_up)
    shifted_up *= SQRT1_2
    np.subtract(up[..., lo + 1 : b + 1], down[..., lo + 1 : b + 1], out=shifted_down)
    shifted_down *= SQRT1_2
    # coined amplitude of the edge sites, which the shift would push out; only a
    # cone that touches an edge has any
    leaving_up = leaving_down = 0.0
    if hi == n:
        leaving_up = (up[..., -1] + down[..., -1]) * SQRT1_2
        new_down[..., -1] = 0.0
    if lo == 0:
        leaving_down = (up[..., 0] - down[..., 0]) * SQRT1_2
        new_up[..., 0] = 0.0
    if coin.defect_site is not None and window.contains(coin.defect_site):
        # the NOT gate at the defect swaps the spins instead of mixing them
        i = coin.defect_site - window.j_min
        if i + 1 < n:
            new_up[..., i + 1] = down[..., i]
        elif hi == n:
            leaving_up = down[..., i]
        if i > 0:
            new_down[..., i - 1] = up[..., i]
        elif lo == 0:
            leaving_down = up[..., i]

    if (lo == 0 or hi == n) and (np.count_nonzero(leaving_up) or np.count_nonzero(leaving_down)):
        raise WindowOverflowError(
            f"amplitude would leave window [{window.j_min}, {window.j_max}] "
            f"at t={t + 1}; size the window for the full run (see reachable_window)"
        )
    return slice(lo, hi)


def recorded_steps(
    up: np.ndarray, down: np.ndarray, plan: EvolutionPlan, window: LatticeWindow
) -> Iterator[tuple[np.ndarray, np.ndarray, slice]]:
    """Step ``(..., N)`` amplitudes over ``window``; yield ``(up, down, live)`` at each record time.

    ``live`` is the light cone, a slice of the last axis outside which both
    arrays are exactly zero: at t=0 the range of the input's nonzero
    columns over all rows, then one site wider on each side per step,
    clipped to the window.  An all-zero input's cone stays empty.  Only the cone is
    stepped, and a caller reduces over it alone.  The arrays passed in are
    one of two alternating full-width buffer pairs, so they are
    overwritten; a yielded pair is valid until the generator resumes.
    """
    spare = np.zeros_like(up), np.zeros_like(down)
    rows = tuple(range(up.ndim - 1))
    occupied = np.flatnonzero(np.any(up != 0, axis=rows) | np.any(down != 0, axis=rows))
    live = slice(int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else slice(0, 0)
    t = 0
    for t_record in plan.record_times():
        while t < t_record:
            live = _advance(up, down, *spare, plan.coin, window, t, live)
            (up, down), spare = spare, (up, down)
            t += 1
        yield up, down, live
