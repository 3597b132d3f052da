"""Domain types for one-dimensional discrete-time quantum walks.

A walk state lives on a bounded integer window of the lattice and carries
two complex amplitude fields, one per spin component.  The coin acting on
the spin is a Hadamard everywhere, optionally replaced by a NOT gate
(spin flip) at a single defect site, so a coin is its optional defect
site.  Initial states place a qubit
``cos(alpha/2)|up> + e^{i beta} sin(alpha/2)|down>`` over either a delta
distribution at the origin or a truncated Gaussian envelope, so an
envelope is its optional width ``sigma0``.  One builder,
:func:`_product_states`, lays any number of such qubits over an envelope;
:func:`build_initial_state` is its one-row case.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SQRT1_2",
    "MAX_SITES",
    "DEFAULT_TRUNCATION_RADIUS",
    "HADAMARD_MATRIX",
    "NOT_MATRIX",
    "QubitParams",
    "LatticeWindow",
    "CoinSpec",
    "InitialStateSpec",
    "WalkState",
    "coin_matrix",
    "gaussian_envelope",
    "build_initial_state",
    "check_site_count",
]

SQRT1_2 = 1.0 / math.sqrt(2.0)

HADAMARD_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) * SQRT1_2
NOT_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

# Largest window a run may need; at its peak a linear ensemble holds about
# _BYTES_PER_SITE bytes per site (tracemalloc), ~0.23 GB at the cap.
MAX_SITES = 1_000_000
_BYTES_PER_SITE = 225

# Gaussian support half-width, in sites, when none is given
DEFAULT_TRUNCATION_RADIUS = 100

# An unrenormalized envelope may exceed unit squared norm by lattice aliasing,
# about 2 exp(-2 pi^2 sigma0^2): 5.4e-9 at sigma0 = 1, past this near sigma0 = 0.86.
_NORM_EXCESS_LIMIT = 1e-6


def check_site_count(sites: int, what: str) -> None:
    """Raise ValueError when ``what`` spans more than :data:`MAX_SITES` sites."""
    if sites > MAX_SITES:
        raise ValueError(
            f"{what} {sites} sites, more than MAX_SITES={MAX_SITES}; an ensemble "
            f"needs about {_BYTES_PER_SITE} bytes per site "
            f"({sites * _BYTES_PER_SITE / 1e9:.3g} GB)"
        )


@dataclass(frozen=True)
class QubitParams:
    """Bloch angles of the initial coin state.

    The qubit is ``cos(alpha/2)|up> + e^{i beta} sin(alpha/2)|down>`` with
    ``alpha`` in [0, pi] and ``beta`` in [0, 2*pi].  Out-of-range angles are
    rejected rather than folded, so sweep generators can never silently
    alias two distinct grid points.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("Bloch angles must be finite")
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError(f"alpha must lie in [0, pi], got {self.alpha}")
        if not 0.0 <= self.beta <= 2.0 * math.pi:
            raise ValueError(f"beta must lie in [0, 2*pi], got {self.beta}")


@dataclass(frozen=True, order=True)
class LatticeWindow:
    """Contiguous range of lattice sites ``j_min..j_max`` (both inclusive)."""

    j_min: int
    j_max: int

    def __post_init__(self) -> None:
        for bound in (self.j_min, self.j_max):
            if not isinstance(bound, (int, np.integer)):
                raise ValueError(f"window bounds must be integer sites, got {bound}")
        if self.j_min > self.j_max:
            raise ValueError(f"empty window: j_min={self.j_min} > j_max={self.j_max}")

    @property
    def size(self) -> int:
        return self.j_max - self.j_min + 1

    def sites(self) -> np.ndarray:
        """All site coordinates as an int64 array."""
        return np.arange(self.j_min, self.j_max + 1, dtype=np.int64)

    def index(self, j: int) -> int:
        """Array index of site ``j``; raises if outside the window."""
        if not self.contains(j):
            raise ValueError(f"site {j} outside window [{self.j_min}, {self.j_max}]")
        return j - self.j_min

    def contains(self, other: "LatticeWindow | int") -> bool:
        if isinstance(other, LatticeWindow):
            return self.j_min <= other.j_min and other.j_max <= self.j_max
        return self.j_min <= other <= self.j_max


@dataclass(frozen=True)
class CoinSpec:
    """Coin field: Hadamard at every site but ``defect_site``, if one is given.

    ``defect_site=None`` (the default) is the uniform Hadamard coin.  At an
    integer defect site the coin is exactly the spin-flip matrix
    ``[[0, 1], [1, 0]]``, which reverses the walker instead of splitting it.
    """

    defect_site: int | None = None

    def __post_init__(self) -> None:
        if self.defect_site is not None and not isinstance(self.defect_site, (int, np.integer)):
            raise ValueError("defect site must be an integer lattice site")

    @classmethod
    def hadamard(cls) -> "CoinSpec":
        return cls()

    @classmethod
    def not_defect(cls, site: int) -> "CoinSpec":
        return cls(operator.index(site))


def coin_matrix(spec: CoinSpec, j: int) -> np.ndarray:
    """2x2 unitary the coin applies at site ``j`` (a fresh array)."""
    if spec.defect_site is not None and j == spec.defect_site:
        return NOT_MATRIX.copy()
    return HADAMARD_MATRIX.copy()


@dataclass(frozen=True)
class InitialStateSpec:
    """Position envelope of the initial state.

    ``sigma0=None`` (the default) is the local state: all weight on site 0,
    with no truncation radius and no renormalization.  A width ``sigma0``
    samples the Gaussian ``f(j) = exp(-j^2 / (4 sigma0^2)) / (2 pi sigma0^2)^(1/4)``
    on integer sites with ``|j| <= truncation_radius`` and zero outside.  With
    ``renormalize=False`` (the default) the envelope keeps the continuum
    normalization constant; the squared-norm deficit from truncating is
    reported by :meth:`norm_deficit` instead of being corrected, and an
    envelope too narrow for the lattice (squared norm above 1 + 1e-6) is
    rejected.  The radius is capped by :data:`MAX_SITES` before sampling.
    """

    sigma0: float | None = None
    truncation_radius: int | None = None
    renormalize: bool = False

    def __post_init__(self) -> None:
        if self.sigma0 is None:
            if self.truncation_radius is not None:
                raise ValueError("a truncation radius applies only to a Gaussian (give sigma0)")
            if self.renormalize:
                raise ValueError("renormalize applies only to a Gaussian (give sigma0)")
            return
        if not math.isfinite(self.sigma0) or self.sigma0 <= 0.0:
            raise ValueError(f"Gaussian shape requires sigma0 > 0, got {self.sigma0}")
        if not isinstance(self.truncation_radius, (int, np.integer)) or self.truncation_radius < 1:
            raise ValueError(
                "Gaussian shape requires an integer truncation_radius >= 1, "
                f"got {self.truncation_radius}"
            )
        check_site_count(2 * self.truncation_radius + 1, "the Gaussian envelope spans")
        # sigma0 far from the lattice scale overflows the samples or underflows all to zero
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                norm_sq = float(np.sum(self.envelope() ** 2))
        except FloatingPointError as exc:
            raise ValueError(f"sigma0={self.sigma0} gives no finite envelope: {exc}") from None
        if not norm_sq > 0.0:
            raise ValueError(f"sigma0={self.sigma0} gives an envelope with zero norm")
        if norm_sq > 1.0 + _NORM_EXCESS_LIMIT:
            raise ValueError(
                f"sigma0={self.sigma0} samples to squared norm {norm_sq:.6g}, not a state; "
                "renormalize the envelope (--renormalize true)"
            )

    @classmethod
    def local(cls) -> "InitialStateSpec":
        return cls()

    @classmethod
    def gaussian(
        cls,
        sigma0: float,
        truncation_radius: int = DEFAULT_TRUNCATION_RADIUS,
        renormalize: bool = False,
    ) -> "InitialStateSpec":
        radius = operator.index(truncation_radius)  # an integer, not a rounded float
        return cls(float(sigma0), radius, renormalize)

    def support(self) -> tuple[int, int]:
        """Smallest site range carrying nonzero envelope weight."""
        if self.sigma0 is None:
            return (0, 0)
        return (-self.truncation_radius, self.truncation_radius)

    def envelope(self) -> np.ndarray:
        """Envelope values ``f(j)`` over :meth:`support`, left to right."""
        if self.sigma0 is None:
            return np.ones(1)
        f = gaussian_envelope(self.sigma0, self.truncation_radius)
        if self.renormalize:
            f = f / math.sqrt(float(np.sum(f * f)))
        return f

    def norm_deficit(self) -> float:
        """``1 - sum_j f(j)^2``, the squared-norm error left by truncation.

        It is computed as that difference, so it resolves losses only down
        to double rounding (~1e-16): the sigma0=10, radius-100 loss of
        8.8e-24 reads as 0.0.
        """
        f = self.envelope()
        return 1.0 - float(np.sum(f * f))


def gaussian_envelope(sigma0: float, truncation_radius: int) -> np.ndarray:
    """Truncated Gaussian ``f(j)`` for ``j = -radius..radius``.

    Uses the continuum normalization ``(2 pi sigma0^2)^(-1/4)``, so the
    discrete squared sum is close to but not exactly 1.
    """
    j = np.arange(-truncation_radius, truncation_radius + 1, dtype=np.float64)
    return np.exp(-(j * j) / (4.0 * sigma0 * sigma0)) / (2.0 * math.pi * sigma0 * sigma0) ** 0.25


@dataclass
class WalkState:
    """Walk amplitudes over a window at a given time step.

    ``up[i]`` and ``down[i]`` hold the spin-up and spin-down amplitudes of
    site ``window.j_min + i``.  Outside the reachable light cone both
    fields are exactly zero, which the step operation preserves bit for bit.
    """

    window: LatticeWindow
    up: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)
    t: int = 0

    def __post_init__(self) -> None:
        self.up = np.ascontiguousarray(self.up, dtype=np.complex128)
        self.down = np.ascontiguousarray(self.down, dtype=np.complex128)
        if self.up.shape != (self.window.size,) or self.down.shape != (self.window.size,):
            raise ValueError(
                f"amplitude arrays must have shape ({self.window.size},), "
                f"got {self.up.shape} and {self.down.shape}"
            )
        if self.t < 0:
            raise ValueError("time step must be non-negative")

    @classmethod
    def zero(cls, window: LatticeWindow, t: int = 0) -> "WalkState":
        n = window.size
        return cls(window, np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128), t)

    def sites(self) -> np.ndarray:
        return self.window.sites()

    def support(self) -> tuple[int, int] | None:
        """Site range of nonzero amplitude, or None for the zero state."""
        occupied = np.flatnonzero((self.up != 0) | (self.down != 0))
        if occupied.size == 0:
            return None
        return (
            int(self.window.j_min + occupied[0]),
            int(self.window.j_min + occupied[-1]),
        )

    def copy(self) -> "WalkState":
        return WalkState(self.window, self.up.copy(), self.down.copy(), self.t)

    def embedded(self, window: LatticeWindow) -> "WalkState":
        """Same amplitudes inside a larger window (zero padding)."""
        if not window.contains(self.window):
            raise ValueError(
                f"target window [{window.j_min}, {window.j_max}] does not contain "
                f"[{self.window.j_min}, {self.window.j_max}]"
            )
        out = WalkState.zero(window, self.t)
        lo = window.index(self.window.j_min)
        out.up[lo : lo + self.window.size] = self.up
        out.down[lo : lo + self.window.size] = self.down
        return out


def build_initial_state(
    qubit: QubitParams,
    init: InitialStateSpec,
    window: LatticeWindow | None = None,
) -> WalkState:
    """Product state of ``qubit`` over the envelope of ``init`` at t=0.

    The one-row case of :func:`_product_states`.  When ``window`` is
    omitted the state occupies the minimal support window; pass a
    pre-sized window (or embed later) before evolving.
    """
    lo, hi = init.support()
    if window is None:
        window = LatticeWindow(lo, hi)
    elif not window.contains(LatticeWindow(lo, hi)):
        raise ValueError(
            f"window [{window.j_min}, {window.j_max}] does not cover "
            f"initial support [{lo}, {hi}]"
        )
    c, s = _coefficients(np.array([qubit.alpha]), np.array([qubit.beta]))
    up, down = _product_states(init, window, c, s)
    return WalkState(window, up[0], down[0])


def _coefficients(alphas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spin coefficients ``cos(alpha/2)`` and ``e^{i beta} sin(alpha/2)`` of each qubit."""
    return np.cos(0.5 * alphas), np.exp(1j * betas) * np.sin(0.5 * alphas)


def _product_states(
    init: InitialStateSpec, window: LatticeWindow, c: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes ``(k, N)`` of the states ``c_i |up> + s_i |down>`` over the envelope."""
    f = init.envelope()
    lo = window.index(init.support()[0])
    up = np.zeros((c.size, window.size), dtype=np.complex128)
    down = np.zeros_like(up)
    up[:, lo : lo + f.size] = c[:, None] * f
    down[:, lo : lo + f.size] = s[:, None] * f
    return up, down
