"""Domain types for one-dimensional discrete-time quantum walks.

A walk state lives on a bounded integer window of the lattice and carries
two complex amplitude fields, one per spin component.  The coin acting on
the spin is a Hadamard everywhere, optionally replaced by a NOT gate
(spin flip) at a single defect site, so a coin is its optional defect
site.  Initial states place a qubit
``cos(alpha/2)|up> + e^{i beta} sin(alpha/2)|down>`` over either a delta
distribution at the origin or a truncated Gaussian envelope, so an
envelope is its optional width ``sigma0``.  One builder,
:func:`_product_states`, lays any number of such qubits over an envelope,
and every run starts from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SQRT1_2",
    "QubitParams",
    "LatticeWindow",
    "CoinSpec",
    "InitialStateSpec",
    "WalkState",
]

SQRT1_2 = 1.0 / math.sqrt(2.0)

# Largest window a run may need; at its peak a linear ensemble holds at most about
# _BYTES_PER_SITE bytes per site, ~0.7 GB at the cap (tracemalloc peak, sigma0 = 1,
# recorded every step, 2000 against 4000 steps: 662 B per extra site where a defect
# clips the window to one site per record, as on every fig2 and fig3 defect run, the
# per-record Grams (384 B) and weight rows (192 B) dominating; 348 B on a free walk,
# about two sites per record).
MAX_SITES = 1_000_000
_BYTES_PER_SITE = 700

# Least Gaussian support half-width, in sites, when none is given; a wider envelope
# is cut at 10 sigma0, losing at most erfc(10/sqrt(2)) ~ 1.5e-23 of its squared norm
DEFAULT_TRUNCATION_RADIUS = 100

# A sampled envelope may exceed unit squared norm by lattice aliasing, about
# 2 exp(-2 pi^2 sigma0^2): 5.4e-9 at sigma0 = 1, past this near sigma0 = 0.86.
_NORM_EXCESS_LIMIT = 1e-6


def _integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as a Python int: the one integer rule of the package.

    A bool, a float or any other non-integer raises ValueError (numpy
    integers pass), as does a value below ``minimum`` when one is given.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a Python float; a bool or any non-real raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


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
        alphas, betas = _check_bloch_angles(np.array([self.alpha]), np.array([self.beta]))
        object.__setattr__(self, "alpha", float(alphas[0]))
        object.__setattr__(self, "beta", float(betas[0]))


def _check_bloch_angles(alphas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angles as float64 arrays: the one Bloch-angle rule of a qubit and a grid.

    Else ValueError: two 1-D arrays of equal length, of an integer or real-float
    dtype (:func:`_real`'s message), finite, alphas in [0, pi], betas in [0, 2*pi].
    """
    if alphas.ndim != 1 or alphas.shape != betas.shape:
        raise ValueError(
            f"Bloch angles need two 1-D arrays of equal length, "
            f"got shapes {alphas.shape} and {betas.shape}"
        )
    for name, values in (("alpha", alphas), ("beta", betas)):
        if values.dtype.kind not in "iuf":
            raise ValueError(f"{name} must be a real number, got {values!r}")
    alphas, betas = alphas.astype(np.float64, copy=False), betas.astype(np.float64, copy=False)
    if not (np.isfinite(alphas).all() and np.isfinite(betas).all()):
        raise ValueError("Bloch angles must be finite")
    for name, values, bound, text in (
        ("alpha", alphas, math.pi, "pi"),
        ("beta", betas, 2.0 * math.pi, "2*pi"),
    ):
        outside = (values < 0.0) | (values > bound)
        if outside.any():
            raise ValueError(f"{name} must lie in [0, {text}], got {values[outside][0]}")
    return alphas, betas


@dataclass(frozen=True)
class LatticeWindow:
    """Contiguous range of lattice sites ``j_min..j_max`` (both inclusive)."""

    j_min: int
    j_max: int

    def __post_init__(self) -> None:
        for name in ("j_min", "j_max"):
            object.__setattr__(self, name, _integer(getattr(self, name), f"window bound {name}"))
        if self.j_min > self.j_max:
            raise ValueError(f"empty window: j_min={self.j_min} > j_max={self.j_max}")

    @property
    def size(self) -> int:
        return self.j_max - self.j_min + 1

    def sites(self) -> np.ndarray:
        """All site coordinates as an int64 array."""
        return np.arange(self.j_min, self.j_max + 1, dtype=np.int64)

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
        if self.defect_site is not None:
            object.__setattr__(self, "defect_site", _integer(self.defect_site, "defect site"))

    @classmethod
    def hadamard(cls) -> "CoinSpec":
        return cls()

    @classmethod
    def not_defect(cls, site: int) -> "CoinSpec":
        return cls(site)


@dataclass(frozen=True)
class InitialStateSpec:
    """Position envelope of the initial state.

    ``sigma0=None`` (the default) is the local state: all weight on site 0,
    with no truncation radius.  A width ``sigma0`` samples the Gaussian
    ``f(j) = exp(-j^2 / (4 sigma0^2)) / (2 pi sigma0^2)^(1/4)`` on integer
    sites with ``|j| <= truncation_radius`` and zero outside, keeping that
    continuum constant: the truncation deficit is reported by
    :meth:`norm_deficit`, never corrected, and an envelope too narrow for
    the lattice (squared norm above 1 + 1e-6) is rejected.  A radius left
    out is ``max(DEFAULT_TRUNCATION_RADIUS, ceil(10 sigma0))``, a 10-sigma
    cut that is 100 for every sigma0 <= 10; a given one is used as it is.
    Either is capped by :data:`MAX_SITES` before sampling.
    """

    sigma0: float | None = None
    truncation_radius: int | None = None

    def __post_init__(self) -> None:
        if self.sigma0 is None:
            if self.truncation_radius is not None:
                raise ValueError("a truncation radius applies only to a Gaussian (give sigma0)")
            return
        object.__setattr__(self, "sigma0", _real(self.sigma0, "sigma0"))
        if not math.isfinite(self.sigma0) or self.sigma0 <= 0.0:
            raise ValueError(f"Gaussian shape requires sigma0 > 0, got {self.sigma0}")
        radius = self.truncation_radius
        if radius is None:  # capped first: the ceil of an infinite product overflows
            radius = max(DEFAULT_TRUNCATION_RADIUS, math.ceil(min(10.0 * self.sigma0, MAX_SITES)))
        object.__setattr__(self, "truncation_radius", _integer(radius, "truncation_radius", 1))
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
                "the lattice needs sigma0 above about 0.86"
            )

    @classmethod
    def local(cls) -> "InitialStateSpec":
        return cls()

    @classmethod
    def gaussian(cls, sigma0: float, truncation_radius: int | None = None) -> "InitialStateSpec":
        return cls(sigma0, truncation_radius)

    def support(self) -> tuple[int, int]:
        """Site range the envelope is sampled on: ``|j| <= truncation_radius``, or site 0.

        Every run sizes its window from this range (``ensemble.check_run``).
        It is not the nonzero range: samples near its edges may underflow to
        exact zeros (past ``|j| = 54`` at sigma0=1 and radius 100).
        """
        if self.sigma0 is None:
            return (0, 0)
        return (-self.truncation_radius, self.truncation_radius)

    def envelope(self) -> np.ndarray:
        """Envelope values ``f(j)`` over :meth:`support`, left to right."""
        if self.sigma0 is None:
            return np.ones(1)
        sigma0 = self.sigma0
        j = np.arange(-self.truncation_radius, self.truncation_radius + 1, dtype=np.float64)
        return np.exp(-(j * j) / (4.0 * sigma0 * sigma0)) / (2.0 * math.pi * sigma0 * sigma0) ** 0.25

    def norm_deficit(self) -> float:
        """``1 - sum_j f(j)^2``, the squared-norm error left by truncation.

        It is computed as that difference, so it resolves losses only down
        to double rounding (~1e-16): the sigma0=10, radius-100 loss of
        8.8e-24 reads as 0.0.
        """
        f = self.envelope()
        return 1.0 - float(np.sum(f * f))


@dataclass(eq=False)
class WalkState:
    """Walk amplitudes over a window.

    ``up[i]`` and ``down[i]`` hold the spin-up and spin-down amplitudes of
    site ``window.j_min + i``: float64 when both inputs are real (integers
    included), else complex128.  No run builds or returns one: runs step the
    arrays of :func:`_product_states` through ``evolution.recorded_steps``,
    which copies them into frames of its own and never writes its inputs.
    """

    window: LatticeWindow
    up: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        up, down = np.asarray(self.up), np.asarray(self.down)
        dtype = np.result_type(up, down, np.float64)
        self.up = np.ascontiguousarray(up, dtype=dtype)
        self.down = np.ascontiguousarray(down, dtype=dtype)
        if self.up.shape != (self.window.size,) or self.down.shape != (self.window.size,):
            raise ValueError(
                f"amplitude arrays must have shape ({self.window.size},), "
                f"got {self.up.shape} and {self.down.shape}"
            )

    @classmethod
    def zero(cls, window: LatticeWindow) -> "WalkState":
        n = window.size
        return cls(window, np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128))


def _coefficients(alphas: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spin coefficients ``cos(alpha/2)`` and ``e^{i beta} sin(alpha/2)`` of each qubit.

    The one dtype rule of a walk: when every beta is 0 (-0.0 included), ``s`` is
    the float64 ``sin(alpha/2)``, and the walks it starts run real end to end;
    ``(1+0j) * x`` has real part exactly ``x``, so their amplitudes are the same
    bits.  Any nonzero beta makes ``s`` complex128 for every qubit.
    """
    c, s = np.cos(0.5 * alphas), np.sin(0.5 * alphas)
    return c, (np.exp(1j * betas) * s if betas.any() else s)


def _product_states(
    init: InitialStateSpec, window: LatticeWindow, c: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes ``(k, N)`` of the states ``c_i |up> + s_i |down>`` over the envelope.

    Real when ``c`` and ``s`` are (the linear path's basis pair, and any qubits
    whose betas are all 0, by :func:`_coefficients`), else complex.
    ``window`` must cover :meth:`InitialStateSpec.support`.
    """
    lo, hi = init.support()
    if not window.contains(LatticeWindow(lo, hi)):
        raise ValueError(
            f"window [{window.j_min}, {window.j_max}] does not cover "
            f"initial support [{lo}, {hi}]"
        )
    f = init.envelope()
    up = np.zeros((c.size, window.size), dtype=np.result_type(c, s))
    down = np.zeros_like(up)
    support = slice(lo - window.j_min, hi - window.j_min + 1)
    up[:, support] = c[:, None] * f
    down[:, support] = s[:, None] * f
    return up, down
