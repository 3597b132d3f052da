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
one pair of frames, each moving with its spin, so the shift moves no data
and a step is the coin alone, in place over the light cone ``live``; and it
yields the window at the plan's record times.  The cone starts as the
input's nonzero columns and grows one site per step each way, clipped to
the window; outside it the arrays are exactly zero.
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


def recorded_steps(
    up: np.ndarray, down: np.ndarray, plan: EvolutionPlan, window: LatticeWindow
) -> Iterator[tuple[np.ndarray, np.ndarray, slice]]:
    """Step ``(..., N)`` amplitudes over ``window``; yield ``(up, down, live)`` at each record time.

    ``live`` is the light cone, a slice of the last axis outside which both
    arrays are exactly zero: at t=0 the range of the input's nonzero
    columns over all rows, then one site wider on each side per step,
    clipped to the window; an all-zero input's cone stays empty.  Only the
    cone is stepped, in the dtype ``np.result_type(up, down, np.float64)``
    that :class:`WalkState` also takes.  The input is never written: each
    yield is a view of the loop's one frame pair, valid until the generator
    resumes.

    Spin up at window index ``k`` and time ``t`` is frame index ``k + T - t``
    and spin down ``k + t``, with ``T = plan.steps``; each frame holds
    ``N + T`` sites, under ``2N`` for every window :func:`reachable_window`
    sizes.
    """
    if up.shape != down.shape or up.shape[-1:] != (window.size,):
        raise ValueError(
            f"up and down must share shape (..., {window.size}), got {up.shape} and {down.shape}"
        )
    rows = tuple(range(up.ndim - 1))
    occupied = np.flatnonzero(np.any(up != 0, axis=rows) | np.any(down != 0, axis=rows))
    lo, hi = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
    n, steps = window.size, plan.steps
    frames = np.zeros((2, *up.shape[:-1], n + steps), np.result_type(up, down, np.float64))
    frames[0, ..., steps:], frames[1, ..., :n] = up, down
    u, d = frames
    scratch = np.empty_like(u[..., :n])
    r = plan.coin.defect_site
    defect = r - window.j_min if r is not None and window.contains(r) else None
    t = 0
    for t_record in plan.record_times():
        while t < t_record:
            if lo < hi:
                a, b = u[..., lo + steps - t : hi + steps - t], d[..., lo + t : hi + t]
                swap = defect is not None and lo <= defect < hi
                if swap:  # the NOT gate at the defect swaps the spins instead of mixing them
                    flipped = b[..., defect - lo].copy(), a[..., defect - lo].copy()
                coined = np.add(a, b, out=scratch[..., : hi - lo])
                np.subtract(a, b, out=b)
                b *= SQRT1_2
                np.multiply(coined, SQRT1_2, out=a)
                if swap:
                    a[..., defect - lo], b[..., defect - lo] = flipped
                # coined down at site 0 and coined up at site N - 1 would leave the window
                if (lo == 0 and np.count_nonzero(b[..., 0])) or (
                    hi == n and np.count_nonzero(a[..., -1])
                ):
                    raise WindowOverflowError(
                        f"amplitude would leave window [{window.j_min}, {window.j_max}] "
                        f"at t={t + 1}; size the window for the full run (see reachable_window)"
                    )
                lo, hi = max(lo - 1, 0), min(hi + 1, n)
            t += 1
        yield u[..., steps - t : steps - t + n], d[..., t : t + n], slice(lo, hi)
