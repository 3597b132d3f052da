"""Time evolution of walk states via the amplitude recurrence.

One step applies the coin at every site and then shifts spin-up amplitude
one site right and spin-down amplitude one site left:

    a(j, t+1) = [a(j-1, t) + b(j-1, t)] / sqrt(2)
    b(j, t+1) = [a(j+1, t) - b(j+1, t)] / sqrt(2)

except where the previous-step site is the NOT defect ``r``, whose
contribution degenerates to a pure swap:

    a(r+1, t+1) = b(r, t)
    b(r-1, t+1) = a(r, t)

A run's window is sized before its first step, from the light cone
(:func:`reachable_window`, called by ``ensemble.check_run``).  Amplitude that
would still cross the window edge raises :class:`WindowOverflowError` instead
of being clipped; clipping would silently destroy norm conservation.

:func:`recorded_steps` is the one loop that runs a plan, for single walks,
ensembles and cross-checks alike.  It copies ``(..., N)`` amplitudes into
two buffer pairs, as every site reads both neighbours' old values, with two
zero ghost sites each side of the window; steps the light cone ``live``
with the one kernel, ``_advance``; and yields the window at the plan's
record times.  The cone starts as the input's nonzero columns and grows
one site per step each way, clipped to the window; outside it the arrays
are exactly zero.  With the ghosts one stencil steps every site, edge
sites included, bit for bit as a full-window step would.
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
    up, down, new_up, new_down, defect: int | None, window: LatticeWindow, t: int, live: slice
) -> slice:
    """Coin and shift ``(..., N + 4)`` buffers from ``t`` into the distinct buffers ``new_*``.

    Window site ``k`` is index ``k + 2`` of the last axis and ``defect`` the
    NOT defect's index; two ghost sites flank each side.  ``up`` and ``down``
    are exactly zero outside the cone ``live``, ``new_*`` outside the cone
    returned: ``live`` grown one site each way, clipped to the window.  The
    inner ghosts take what would leave it.
    """
    if live.start == live.stop:
        return live
    lo, hi = live.start - 1, live.stop + 1
    # coin and shift in one pass: new_up[j] = coined_up[j-1], new_down[j] = coined_down[j+1]
    shifted_up, shifted_down = new_up[..., lo:hi], new_down[..., lo:hi]
    np.add(up[..., lo - 1 : hi - 1], down[..., lo - 1 : hi - 1], out=shifted_up)
    shifted_up *= SQRT1_2
    np.subtract(up[..., lo + 1 : hi + 1], down[..., lo + 1 : hi + 1], out=shifted_down)
    shifted_down *= SQRT1_2
    if defect is not None:
        # the NOT gate at the defect swaps the spins instead of mixing them
        new_up[..., defect + 1] = down[..., defect]
        new_down[..., defect - 1] = up[..., defect]
    right = up.shape[-1] - 2  # the inner right ghost
    if lo < 2 or hi > right:  # the grown cone reaches a ghost: check it, zero it, clip
        if np.count_nonzero(new_down[..., 1]) or np.count_nonzero(new_up[..., right]):
            raise WindowOverflowError(
                f"amplitude would leave window [{window.j_min}, {window.j_max}] "
                f"at t={t + 1}; size the window for the full run (see reachable_window)"
            )
        new_down[..., 1] = new_up[..., right] = 0.0
        lo, hi = max(lo, 2), min(hi, right)
    return slice(lo, hi)


def recorded_steps(
    up: np.ndarray, down: np.ndarray, plan: EvolutionPlan, window: LatticeWindow
) -> Iterator[tuple[np.ndarray, np.ndarray, slice]]:
    """Step ``(..., N)`` amplitudes over ``window``; yield ``(up, down, live)`` at each record time.

    ``live`` is the light cone, a slice of the last axis outside which both
    arrays are exactly zero: at t=0 the range of the input's nonzero
    columns over all rows, then one site wider on each side per step,
    clipped to the window; an all-zero input's cone stays empty.  Only the
    cone is stepped.  The input is never written: each yield is a view of
    one of two alternating buffer pairs, valid until the generator resumes.
    """
    if up.shape != down.shape or up.shape[-1:] != (window.size,):
        raise ValueError(
            f"up and down must share shape (..., {window.size}), got {up.shape} and {down.shape}"
        )
    rows = tuple(range(up.ndim - 1))
    occupied = np.flatnonzero(np.any(up != 0, axis=rows) | np.any(down != 0, axis=rows)) + 2
    live = slice(int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else slice(2, 2)
    buffers = np.zeros((4, *up.shape[:-1], window.size + 4), np.result_type(up, down))
    buffers[0, ..., 2:-2], buffers[1, ..., 2:-2] = up, down
    up, down, *spare = buffers  # two buffer pairs; the input is no longer referenced
    r = plan.coin.defect_site
    defect = r - window.j_min + 2 if r is not None and window.contains(r) else None
    t = 0
    for t_record in plan.record_times():
        while t < t_record:
            live = _advance(up, down, *spare, defect, window, t, live)
            (up, down), spare = spare, (up, down)
            t += 1
        yield up[..., 2:-2], down[..., 2:-2], slice(live.start - 2, live.stop - 2)
