"""Observables of a walk state.

Everything here is a pure function of its inputs.  States whose total
probability differs from 1 (e.g. a truncated Gaussian envelope kept
unrenormalized) are handled by normalizing internally, so dispersion and
entropy stay well defined without touching the amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LatticeWindow, WalkState

__all__ = [
    "PositionDistribution",
    "ReducedCoinMatrix",
    "EntropyValue",
    "distribution",
    "mean_position",
    "dispersion",
    "reduced_coin",
    "entanglement_entropy",
    "peak_sites",
    "outer_peak_distance",
    "far_peak_weight",
]

# Valid inputs give a radicand (A - 1/2)^2 + |B|^2 <= 1/4; above this or NaN means corruption.
RADICAND_CEILING = 0.25 + 1e-9


@dataclass(frozen=True)
class PositionDistribution:
    """Spin-resolved site probabilities ``|a(j)|^2`` and ``|b(j)|^2``."""

    window: LatticeWindow
    p_up: np.ndarray
    p_down: np.ndarray
    p_total: np.ndarray

    def sites(self) -> np.ndarray:
        return self.window.sites()

    def total(self) -> float:
        """Total probability; equals the state norm."""
        return float(np.sum(self.p_total))


def distribution(state: WalkState) -> PositionDistribution:
    p_up = state.up.real**2 + state.up.imag**2
    p_down = state.down.real**2 + state.down.imag**2
    return PositionDistribution(state.window, p_up, p_down, p_up + p_down)


def mean_position(dist: PositionDistribution) -> float:
    """Probability-weighted mean site ``<j>``."""
    total = dist.total()
    if total <= 0.0:
        raise ValueError("mean position undefined for zero total probability")
    sites = dist.window.sites().astype(np.float64)
    return float(np.dot(dist.p_total, sites)) / total


def dispersion(dist: PositionDistribution) -> float:
    """Standard deviation of the position marginal.

    Computed as the second moment about the mean, which cannot go negative
    by cancellation; any tiny negative radicand from rounding is clamped
    to zero.
    """
    total = dist.total()
    if total <= 0.0:
        raise ValueError("dispersion undefined for zero total probability")
    sites = dist.window.sites().astype(np.float64)
    mean = float(np.dot(dist.p_total, sites)) / total
    centered = sites - mean
    radicand = float(np.dot(dist.p_total, centered * centered)) / total
    return math.sqrt(max(radicand, 0.0))


@dataclass(frozen=True)
class ReducedCoinMatrix:
    """Coin density matrix with the position degree of freedom traced out.

    ``up_weight`` is ``sum_j |a(j)|^2``, ``coherence`` is
    ``sum_j a(j) conj(b(j))`` and ``trace`` the total probability, so the
    (unnormalized) matrix is ``[[up_weight, coherence],
    [conj(coherence), trace - up_weight]]``.
    """

    up_weight: float
    coherence: complex
    trace: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.up_weight)
            and math.isfinite(self.trace)
            and math.isfinite(abs(self.coherence))
        ):
            raise ValueError("reduced coin matrix entries must be finite")
        if self.trace <= 0.0:
            raise ValueError(f"trace must be positive, got {self.trace}")
        # |B|^2 <= A(1 - A) + 1e-9: Cauchy-Schwarz, and A in [0, 1], within the slack
        _coin_eigenvalues(self.up_weight, abs(self.coherence) ** 2, self.trace)

    def matrix(self) -> np.ndarray:
        """The 2x2 matrix itself (unnormalized)."""
        b = complex(self.coherence)
        return np.array(
            [[self.up_weight, b], [b.conjugate(), self.trace - self.up_weight]],
            dtype=np.complex128,
        )


@dataclass(frozen=True)
class EntropyValue:
    """Eigenvalues of the normalized coin matrix and their entropy in bits."""

    lambda_plus: float
    lambda_minus: float
    entropy: float


def reduced_coin(state: WalkState) -> ReducedCoinMatrix:
    up_weight = float(np.vdot(state.up, state.up).real)
    down_weight = float(np.vdot(state.down, state.down).real)
    coherence = complex(np.vdot(state.down, state.up))  # sum_j a(j) conj(b(j))
    return ReducedCoinMatrix(up_weight, coherence, up_weight + down_weight)


def entanglement_entropy(rc: ReducedCoinMatrix) -> EntropyValue:
    """Von Neumann entropy of the coin, in bits (:func:`entropy_bits_vec` on one matrix)."""
    lam_plus, lam_minus = _coin_eigenvalues(rc.up_weight, abs(rc.coherence) ** 2, rc.trace)
    entropy = -_xlog2_vec(lam_plus) - _xlog2_vec(lam_minus)
    return EntropyValue(float(lam_plus), float(lam_minus), float(entropy))


def entropy_bits_vec(up_weight, coherence_sq, trace):
    """Coin entropy in bits from ``sum|a|^2``, ``|sum a b*|^2`` and norm, over arrays."""
    lam_plus, lam_minus = _coin_eigenvalues(up_weight, coherence_sq, trace)
    return -_xlog2_vec(lam_plus) - _xlog2_vec(lam_minus)


def _coin_eigenvalues(up_weight, coherence_sq, trace):
    """Eigenvalues ``(lambda_plus, lambda_minus)`` of the trace-normalized coin matrix.

    With ``A = up_weight / trace`` and ``|B|^2 = coherence_sq / trace^2`` they
    follow in closed form from the determinant:
    ``lambda_pm = 1/2 +- sqrt(1/4 - A(1-A) + |B|^2)``.  The radicand equals
    ``(A - 1/2)^2 + |B|^2``, so it is non-negative up to rounding (clamped
    at zero) and at most 1/4 for a valid state; a radicand above
    ``RADICAND_CEILING``, or NaN, raises.  This is the only corrupted-input rule.
    """
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
    out = np.zeros_like(x)
    np.multiply(x, np.log2(x, out=np.zeros_like(x), where=x > 0.0), out=out, where=x > 0.0)
    return out


def peak_sites(dist: PositionDistribution) -> tuple[int, int]:
    """Sites of maximal probability strictly left and right of the origin.

    Ties resolve to the site closest to the origin, which keeps the result
    deterministic for the parity comb of local-state walks.
    """
    sites = dist.window.sites()
    p = dist.p_total
    left = sites < 0
    right = sites > 0
    if not left.any() or not right.any():
        raise ValueError("window does not straddle the origin")
    p_left = p[left]
    p_right = p[right]
    if p_left.sum() <= 0.0 or p_right.sum() <= 0.0:
        raise ValueError("peak sites need probability on both sides of the origin")
    j_left = int(sites[left][p_left.size - 1 - int(np.argmax(p_left[::-1]))])
    j_right = int(sites[right][int(np.argmax(p_right))])
    return j_left, j_right


def outer_peak_distance(dist: PositionDistribution) -> int:
    """Distance between the two outermost probability maxima."""
    j_left, j_right = peak_sites(dist)
    return j_right - j_left


def far_peak_weight(dist: PositionDistribution, side: str = "right") -> float:
    """Fraction of total probability carried by the outer peak lobe.

    The lobe is found on the adjacent-pair envelope ``p[i] + p[i+1]``
    (which bridges the every-other-site comb of local-state walks): seed
    at the side's maximum, then extend outward and inward while the
    envelope is non-increasing, i.e. up to the nearest envelope minima.
    Returns the enclosed probability as a fraction of the total.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    total = dist.total()
    if total <= 0.0:
        raise ValueError("far peak weight undefined for zero total probability")
    p = dist.p_total
    if p.size < 2:
        return 1.0
    env = p[:-1] + p[1:]
    # pair i covers sites (j_min + i, j_min + i + 1); seed on pairs fully
    # on the requested side of the origin
    pair_site = dist.window.sites()[:-1]
    if side == "right":
        mask = pair_site >= 1
    else:
        mask = pair_site <= -2
    if not mask.any():
        raise ValueError(f"window has no sites on the {side} side")
    candidates = np.flatnonzero(mask)
    seed = int(candidates[int(np.argmax(env[candidates]))])
    lo = seed
    while lo > 0 and env[lo - 1] <= env[lo]:
        lo -= 1
    hi = seed
    while hi + 1 < env.size and env[hi + 1] <= env[hi]:
        hi += 1
    return float(np.sum(p[lo : hi + 2])) / total
