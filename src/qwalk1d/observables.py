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

    @property
    def p_total(self) -> np.ndarray:
        """``p_up + p_down``, the position marginal."""
        return self.p_up + self.p_down

    def sites(self) -> np.ndarray:
        return self.window.sites()

    def total(self) -> float:
        """Total probability; equals the state norm."""
        return float(np.sum(self.p_total))


def distribution(state: WalkState) -> PositionDistribution:
    return PositionDistribution(state.window, _prob(state.up), _prob(state.down))


def mean_position(dist: PositionDistribution) -> float:
    """Probability-weighted mean site ``<j>``."""
    if dist.total() <= 0.0:
        raise ValueError("mean position undefined for zero total probability")
    return float(_position_moments(dist.p_total, dist.sites().astype(np.float64))[1])


def dispersion(dist: PositionDistribution) -> float:
    """Standard deviation of the position marginal.

    Computed as the second moment about the mean, which cannot go negative
    by cancellation; any tiny negative radicand from rounding is clamped
    to zero.
    """
    if dist.total() <= 0.0:
        raise ValueError("dispersion undefined for zero total probability")
    return float(_position_moments(dist.p_total, dist.sites().astype(np.float64))[2])


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
        _coin_eigenvalues(self.up_weight, _abs_sq(self.coherence), self.trace)

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
    up_w, down_w, coherence = _coin_sums(state.up, state.down)
    return ReducedCoinMatrix(float(up_w), complex(coherence), float(up_w + down_w))


def entanglement_entropy(rc: ReducedCoinMatrix) -> EntropyValue:
    """Von Neumann entropy of the coin, in bits (:func:`entropy_bits_vec` on one matrix)."""
    lam_plus, lam_minus = _coin_eigenvalues(rc.up_weight, _abs_sq(rc.coherence), rc.trace)
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


def _row_observables(up, down, sites, work=(None,) * 4):
    """Norm, dispersion, ``sum|a|^2``, ``sum|b|^2`` and ``sum a conj(b)`` of each row.

    The one set of formulas for single walks, ``direct`` batches and scalar observables;
    a row's numbers come from that row alone, bit for bit.  A stepping loop passes
    ``work``, three real and one complex array of the amplitudes' shape, to reuse.
    """
    p_total, p_down, tmp, conj = work
    p_total = np.add(np.square(up.real, out=p_total), np.square(up.imag, out=tmp), out=p_total)
    p_down = np.add(np.square(down.real, out=p_down), np.square(down.imag, out=tmp), out=p_down)
    norm, _, sigma = _position_moments(np.add(p_total, p_down, out=p_total), sites, tmp)
    return (norm, sigma, *_coin_sums(up, down, conj))


def _coin_sums(up, down, conj=None):
    """``sum|a|^2``, ``sum|b|^2`` and ``sum a conj(b)`` of each row; ``conj`` is scratch."""
    conj = np.conjugate(down, out=conj)
    coherence, down_weight = _row_dot(conj, up), _row_dot(conj, down).real
    up_weight = _row_dot(np.conjugate(up, out=conj), up).real
    return up_weight, down_weight, coherence


def _position_moments(p_total, sites, tmp=None):
    """Norm, mean and dispersion about the mean of each row of site probabilities."""
    norm = np.sum(p_total, axis=-1)
    mean = _row_dot(p_total, sites) / norm
    centered = np.subtract(sites, mean[..., None], out=tmp)
    radicand = _row_dot(p_total, np.multiply(centered, centered, out=centered)) / norm
    return norm, mean, np.sqrt(np.maximum(radicand, 0.0))


def _row_dot(x, y):
    """``np.dot(x[i], y[i])`` per row, bit for bit (the same BLAS dot; a gemv sums otherwise)."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _prob(z):
    """``|z|^2`` as ``z.real**2 + z.imag**2``, the form every distribution's bytes come from.

    :func:`_abs_sq` is the other ``|z|^2``: it keeps the single-walk entropy bytes.
    """
    return z.real**2 + z.imag**2


def _abs_sq(z):
    """``abs(z) ** 2`` as Python gives it for one complex (libm hypot and pow), over arrays."""
    return np.float_power(np.hypot(np.real(z), np.imag(z)), 2.0)


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
