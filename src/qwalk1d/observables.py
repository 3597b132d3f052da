"""Observables of a walk state.

Everything here is a pure function of its inputs.  States whose total
probability differs from 1 (e.g. a truncated Gaussian envelope, whose
deficit is reported, not corrected) are handled by normalizing internally,
so dispersion and entropy stay well defined without touching the amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LatticeWindow, WalkState

__all__ = [
    "PositionDistribution",
    "distribution",
    "entanglement_entropy",
    "outer_lobes",
]

# Valid inputs give a radicand (A - 1/2)^2 + |B|^2 <= 1/4; above this or NaN means corruption.
RADICAND_CEILING = 0.25 + 1e-9

# Envelope maxima below this fraction of the highest seed no lobe.
_LOBE_FLOOR = 0.05


@dataclass(frozen=True, eq=False)
class PositionDistribution:
    """Spin-resolved site probabilities ``|a(j)|^2`` and ``|b(j)|^2``."""

    window: LatticeWindow
    p_up: np.ndarray
    p_down: np.ndarray

    @property
    def p_total(self) -> np.ndarray:
        """``p_up + p_down``, the position marginal."""
        return self.p_up + self.p_down

    def total(self) -> float:
        """Total probability; equals the state norm."""
        return float(np.sum(self.p_total))


def distribution(state: WalkState) -> PositionDistribution:
    return PositionDistribution(state.window, _prob(state.up), _prob(state.down))


def entanglement_entropy(state: WalkState) -> float:
    """Spin-position entanglement: the coin's von Neumann entropy in bits.

    The position is traced out, leaving the coin matrix
    ``[[sum|a|^2, sum a b*], [c.c., sum|b|^2]]``; this is
    :func:`entropy_bits_vec` on that one matrix, summed as
    :func:`_row_observables` sums one row, without its position moments.
    """
    p_up = _prob(state.up)
    trace = np.sum(p_up + _prob(state.down))
    coherence = _row_dot(state.down.conj(), state.up)
    return float(entropy_bits_vec(np.sum(p_up), _prob(coherence), trace))


def entropy_bits_vec(up_weight, coherence_sq, trace):
    """Coin entropy in bits from ``sum|a|^2``, ``|sum a b*|^2`` and norm, over arrays."""
    lam_plus, lam_minus = _coin_eigenvalues(up_weight, coherence_sq, trace)
    # 0.0 first, so that a pure coin state gives +0.0 rather than -0.0
    return 0.0 - _xlog2_vec(lam_plus) - _xlog2_vec(lam_minus)


def _coin_eigenvalues(up_weight, coherence_sq, trace):
    """Eigenvalues ``(lambda_plus, lambda_minus)`` of the trace-normalized coin matrix.

    With ``A = up_weight / trace`` and ``|B|^2 = coherence_sq / trace^2`` they
    follow in closed form from the determinant:
    ``lambda_pm = 1/2 +- sqrt(1/4 - A(1-A) + |B|^2)``.  The radicand equals
    ``(A - 1/2)^2 + |B|^2``, so it is non-negative up to rounding (clamped
    at zero) and at most 1/4 for a valid state; a radicand above
    ``RADICAND_CEILING``, or NaN, raises, as does a trace that is not
    positive (or NaN) at any element.  These are the only corrupted-input rules.
    """
    if not np.all(np.greater(trace, 0.0)):  # before dividing, so a zero trace stays quiet
        raise ValueError(f"trace must be positive, got {np.min(trace)}")
    a = np.asarray(up_weight, dtype=np.float64) / trace
    b2 = np.asarray(coherence_sq, dtype=np.float64) / (trace * trace)
    radicand = 0.25 - a * (1.0 - a) + b2
    if not radicand.max() <= RADICAND_CEILING:  # NaN propagates through max
        raise ValueError(
            f"eigenvalue radicand above {RADICAND_CEILING}; not valid coin states "
            "(coherence beyond the Cauchy-Schwarz bound, weight outside [0, trace], or NaN)"
        )
    split = np.sqrt(np.maximum(radicand, 0.0))
    return np.minimum(0.5 + split, 1.0), np.maximum(0.5 - split, 0.0)


def _xlog2_vec(x: np.ndarray) -> np.ndarray:
    """``x log2(x)`` on [0, 1], with ``0 log2(0) = +0.0``."""
    return x * np.log2(np.where(x > 0.0, x, 1.0))


def _row_observables(up, down, sites):
    """Norm, dispersion, ``sum|a|^2`` and ``sum a conj(b)`` of each row.

    The one set of formulas for single walks and ``direct`` batches; the norm
    is the coin matrix's trace, and :func:`entanglement_entropy` is the same
    sums on one state.  A row's numbers come from that row alone, bit for bit.
    Callers pass the sites of the batch's light cone (``recorded_steps``'s
    ``live``), so a row's range is its batch's cone.  Every qubit has
    ``max(|c|, |s|) >= 1/sqrt(2)``, so that cone is the envelope's nonzero
    range grown one site per step, the same for every batch of a run.
    """
    p_up, p_total = _prob(up), _prob(down)
    p_total += p_up
    norm, _, sigma = _position_moments(p_total, sites)
    return norm, sigma, p_up.sum(axis=-1), _row_dot(down.conj(), up)


def _position_moments(p_total, sites):
    """Norm, mean and dispersion of each row of site probabilities (a radicand of non-negatives)."""
    norm = p_total.sum(axis=-1)
    mean = _row_dot(p_total, sites) / norm
    centered = sites - mean[..., None]
    centered *= centered
    radicand = _row_dot(p_total, centered) / norm
    return norm, mean, np.sqrt(radicand)


def _row_dot(x, y):
    """``np.dot(x[i], y[i])`` per row, bit for bit (the same BLAS dot; a gemv sums otherwise)."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _prob(z):
    """``|z|^2`` as ``z * z`` for a real ``z``, else ``z.real**2 + z.imag**2``: the one ``|z|^2``.

    Every distribution, and the squared coherence of single walks and ``direct``
    batches, comes from it; the linear ensemble path applies the same formula
    to its coherence's real and imaginary rows.  A real input builds no zero
    imaginary array, and gives the bits a complex one with zero imaginary parts
    would.  The complex sum is taken in place, which saves the kernel an array
    per call.
    """
    if z.dtype.kind != "c":
        return z * z
    p = z.real**2
    p += z.imag**2
    return p


def outer_lobes(dist: PositionDistribution) -> tuple[tuple[int, float], tuple[int, float]]:
    """The leftmost and the rightmost lobe of the position marginal, as ``(site, weight)``.

    Lobes are found on the adjacent-pair envelope ``p[i] + p[i+1]``, which
    bridges the every-other-site comb of local-state walks.  On a comb the
    envelope climbs in steps of two equal values, so its maxima are taken
    over runs of equal values: a run higher than both of its neighbours,
    and at or above ``_LOBE_FLOOR`` times the highest, is a candidate.  The
    leftmost and the rightmost seed a lobe each, which extends both ways
    while the envelope does not increase, i.e. up to the nearest envelope
    minima.  A lobe's site is its most probable one, and its weight the
    probability it encloses as a fraction of the total.  A distribution
    with one maximum gives the same lobe twice.
    """
    total = dist.total()
    if not total > 0.0:
        raise ValueError(f"lobes need a positive total probability, got {total}")
    # a zero past j_max gives the last site, and so a one-site window, a pair
    p = np.append(dist.p_total, 0.0)
    env = p[:-1] + p[1:]
    starts = np.flatnonzero(np.diff(env, prepend=np.nan) != 0.0)  # first pair of each run
    level = np.concatenate(([-np.inf], env[starts], [-np.inf]))
    run = level[1:-1]
    peaks = starts[(run > level[:-2]) & (run > level[2:]) & (run >= _LOBE_FLOOR * env.max())]

    def lobe(seed: int) -> tuple[int, float]:
        lo = hi = seed
        while lo > 0 and env[lo - 1] <= env[lo]:
            lo -= 1
        while hi + 1 < env.size and env[hi + 1] <= env[hi]:
            hi += 1
        weights = p[lo : hi + 2]  # pairs lo..hi cover sites lo..hi+1
        return dist.window.j_min + lo + int(np.argmax(weights)), float(np.sum(weights)) / total

    return lobe(int(peaks[0])), lobe(int(peaks[-1]))
