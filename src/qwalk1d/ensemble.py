"""Qubit-grid sweeps: many walks from one envelope, averaged observables.

All walks in a sweep share the evolution operator; only the initial coin
state differs.  Evolution is linear, so every walk is a fixed combination
of just two basis walks (spin-up start and spin-down start over the same
envelope):

    a_i(j,t) = c_i * a_up(j,t) + s_i * a_down(j,t)      c_i = cos(alpha_i/2)
    b_i(j,t) = c_i * b_up(j,t) + s_i * b_down(j,t)      s_i = e^{i beta_i} sin(alpha_i/2)

Every per-qubit observable used here (norm, position moments, reduced
coin entries) is a quadratic form in the amplitudes, so it reduces to a
handful of lattice sums over the basis walks combined with per-qubit
coefficients.  The default "linear" method exploits this and costs two
walks regardless of grid size: every per-qubit number it reports, and its
mean distribution, is one Hermitian form (:func:`_form`) of the basis
pair's lattice sums; only the reduced coin's off-diagonal entry, which is
not Hermitian, is a four-term sum of its own.  The "direct" method, the
independent cross-check, evolves every qubit in fixed-size batches through
the per-qubit path whose one-row case is :func:`run_walk`.  Both run in one
process and reduce in a fixed order, so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InitialStateSpec,
    LatticeWindow,
    QubitParams,
    WalkState,
    _coefficients,
    _product_states,
    build_initial_state,
)
from .evolution import EvolutionPlan, prepared, reachable_window, recorded_steps
from .observables import (
    PositionDistribution,
    _abs_sq,
    _prob,
    _row_observables,
    distribution,
    entropy_bits_vec,
)

__all__ = [
    "QubitGrid",
    "WalkRecord",
    "EnsembleResult",
    "make_qubit_grid",
    "run_walk",
    "run_ensemble",
    "fit_dispersion_slope",
    "default_fit_window",
    "moving_average",
    "MAX_QUBITS",
]

# Qubits the direct method evolves as one batch, bounding its array sizes; of
# 4 to 64, 16 ran fastest with the lowest peak memory on 128 qubits x 500 steps.
_BLOCK = 16

# Largest grid make_qubit_grid builds; at its peak the linear method holds
# about _BYTES_PER_QUBIT bytes per qubit (tracemalloc), ~0.23 GB at the cap.
MAX_QUBITS = 1_000_000
_BYTES_PER_QUBIT = 225


@dataclass(frozen=True, eq=False)
class QubitGrid:
    """Initial qubits as Bloch angles: qubit ``n`` is ``(alphas[n], betas[n])``.

    Averaging and reduction follow this order.
    """

    alphas: np.ndarray
    betas: np.ndarray

    def __len__(self) -> int:
        return self.alphas.size


def make_qubit_grid(alpha_step: float, beta_step: float) -> QubitGrid:
    """Grid ``(i*alpha_step, k*beta_step)`` of initial qubits, alpha-major.

    Includes every multiple of the step that does not exceed pi
    (resp. 2*pi), endpoint included when it lands exactly: 2016 qubits at
    step 0.1, and at most :data:`MAX_QUBITS`.
    """
    if not (math.isfinite(alpha_step) and alpha_step > 0.0):
        raise ValueError(f"alpha_step must be positive, got {alpha_step}")
    if not (math.isfinite(beta_step) and beta_step > 0.0):
        raise ValueError(f"beta_step must be positive, got {beta_step}")
    alphas = _step_multiples(alpha_step, math.pi)
    betas = _step_multiples(beta_step, 2.0 * math.pi)
    if alphas.size * betas.size > MAX_QUBITS:
        count = (math.pi / alpha_step + 1.0) * (2.0 * math.pi / beta_step + 1.0)
        raise ValueError(
            f"grid steps ({alpha_step}, {beta_step}) give about {count:.3g} qubits, more "
            f"than MAX_QUBITS={MAX_QUBITS}; the linear method needs about {_BYTES_PER_QUBIT} "
            f"bytes per qubit ({count * _BYTES_PER_QUBIT / 1e9:.3g} GB)"
        )
    return QubitGrid(np.repeat(alphas, betas.size), np.tile(betas, alphas.size))


def _step_multiples(step: float, bound: float) -> np.ndarray:
    """Every ``i * step <= bound`` (products, not sums, so points reproduce).

    One spare multiple covers a rounded quotient; past the cap the axis is cut.
    """
    values = np.arange(math.floor(min(bound / step, MAX_QUBITS)) + 2) * step
    return values[values <= bound]


@dataclass
class WalkRecord:
    """Per-step observables of one walk plus its final state."""

    qubit: QubitParams
    times: np.ndarray
    sigma: np.ndarray
    entropy: np.ndarray
    norm: np.ndarray
    final_state: WalkState

    def final_distribution(self) -> PositionDistribution:
        return distribution(self.final_state)


def run_walk(qubit: QubitParams, init: InitialStateSpec, plan: EvolutionPlan) -> WalkRecord:
    """One walk's sigma, entropy and norm series: one row of ``direct``, on its own window."""
    start = prepared(build_initial_state(qubit, init), plan)
    sigma, entropy, norm, up, down = _walk_series(start.up, start.down, plan, start.window)
    final = WalkState(start.window, up, down, plan.steps)
    return WalkRecord(qubit, plan.record_times(), sigma, entropy, norm, final)


def _walk_series(up: np.ndarray, down: np.ndarray, plan: EvolutionPlan, window: LatticeWindow):
    """Step ``(..., N)`` amplitudes (overwritten) through ``plan``.

    Returns the ``sigma``, ``entropy`` and ``norm`` series, one row per
    record time, then the final ``up`` and ``down``.
    """
    sites = window.sites().astype(np.float64)
    work = (*np.empty((3, *up.shape)), np.empty(up.shape, dtype=np.complex128))
    # the five row sums per record time; all but the last, the coherence, are real
    sums = np.empty((5, plan.record_times().size, *up.shape[:-1]), dtype=np.complex128)
    for slot, (up, down) in enumerate(recorded_steps(up, down, plan, window)):
        sums[:, slot] = _row_observables(up, down, sites, work)
    norm, sigma, up_weight, down_weight = sums[:4].real
    entropy = entropy_bits_vec(up_weight, _abs_sq(sums[4]), up_weight + down_weight)
    return sigma, entropy, norm, up, down


@dataclass
class EnsembleResult:
    """Grid-averaged observables.

    ``mean_dispersion`` and ``mean_entropy`` are arithmetic means of the
    per-qubit series (the dispersion of each walk is averaged, not the
    dispersion of the averaged distribution).  ``mean_distribution`` is
    the averaged spin-resolved probability field at the final step.
    ``slope`` is the least-squares slope of ``mean_dispersion`` over
    ``fit_window``.
    """

    times: np.ndarray
    mean_dispersion: np.ndarray
    mean_entropy: np.ndarray
    mean_distribution: PositionDistribution
    slope: float
    qubit_count: int
    fit_window: tuple[int, int]
    norm_deficit: float


def run_ensemble(
    grid: QubitGrid,
    init: InitialStateSpec,
    plan: EvolutionPlan,
    *,
    fit_window: tuple[int, int] | None = None,
    method: str = "linear",
    workers: int | None = None,
) -> EnsembleResult:
    """Run every qubit of ``grid`` and average the observables.

    ``method="linear"`` (default) evolves two basis walks and combines
    them per qubit; ``method="direct"`` evolves every qubit's state, in
    batches of a fixed size.  Both run in this process; ``workers`` is
    accepted for callers that pass a worker count and has no effect.
    Output is deterministic for both methods.
    """
    if len(grid) == 0:
        raise ValueError("qubit grid is empty")
    if fit_window is None:
        fit_window = default_fit_window(plan.steps)
    if method == "linear":
        times, mean_sigma, mean_entropy, mean_dist = _run_linear(grid, init, plan)
    elif method == "direct":
        times, mean_sigma, mean_entropy, mean_dist = _run_direct(grid, init, plan)
    else:
        raise ValueError(f"unknown ensemble method {method!r}")
    slope = fit_dispersion_slope(times, mean_sigma, fit_window)
    return EnsembleResult(
        times=times,
        mean_dispersion=mean_sigma,
        mean_entropy=mean_entropy,
        mean_distribution=mean_dist,
        slope=slope,
        qubit_count=len(grid),
        fit_window=fit_window,
        norm_deficit=init.norm_deficit(),
    )


def _run_linear(grid: QubitGrid, init: InitialStateSpec, plan: EvolutionPlan):
    c, s = _coefficients(grid.alphas, grid.betas)
    # weights of the up-basis walk, the down-basis walk and their cross term
    w_uu, w_dd, w_ud = w = (c * c, (s * s.conj()).real, c * s.conj())
    cs = c * s

    window = reachable_window(init.support(), plan.coin, plan.steps)
    sites = window.sites().astype(np.float64)
    sites_sq = sites * sites

    times = plan.record_times()
    mean_sigma = np.empty(times.size)
    mean_entropy = np.empty(times.size)

    # the basis pair: row 0 starts spin-up, row 1 spin-down
    basis = _product_states(init, window, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for slot, (up, down) in enumerate(recorded_steps(*basis, plan, window)):
        (au, ad), (bu, bd) = up, down
        # per site: |a_up|^2 + |b_up|^2, the down walk's, and their cross term
        k_uu, k_dd = up.real**2 + up.imag**2 + down.real**2 + down.imag**2
        k_ud = au * ad.conj() + bu * bd.conj()
        norm = _form(w, np.sum(k_uu), np.sum(k_dd), np.sum(k_ud))
        m1 = _form(w, np.dot(k_uu, sites), np.dot(k_dd, sites), np.dot(k_ud, sites)) / norm
        m2 = _form(w, np.dot(k_uu, sites_sq), np.dot(k_dd, sites_sq), np.dot(k_ud, sites_sq)) / norm
        mean_sigma[slot] = float(np.mean(np.sqrt(np.maximum(m2 - m1 * m1, 0.0))))

        # reduced coin entries per qubit; the coherence is not Hermitian, so not a _form
        up_weight = _form(w, np.vdot(au, au).real, np.vdot(ad, ad).real, np.vdot(ad, au))
        t_uu = np.vdot(bu, au)  # sum a_up conj(b_up)
        t_ud = np.vdot(bd, au)  # sum a_up conj(b_down)
        t_du = np.vdot(bu, ad)  # sum a_down conj(b_up)
        t_dd = np.vdot(bd, ad)  # sum a_down conj(b_down)
        coherence = w_uu * t_uu + w_ud * t_ud + cs * t_du + w_dd * t_dd
        mean_entropy[slot] = float(np.mean(entropy_bits_vec(up_weight, _prob(coherence), norm)))

    # the same form with the qubit-averaged weights, site by site, is the mean distribution
    mean_w = [np.mean(weight) for weight in w]
    p_up = _form(mean_w, _prob(au), _prob(ad), au * ad.conj())
    p_down = _form(mean_w, _prob(bu), _prob(bd), bu * bd.conj())
    return times, mean_sigma, mean_entropy, PositionDistribution(window, p_up, p_down)


def _form(w, uu, dd, ud):
    """``w_uu*uu + w_dd*dd + 2 Re(w_ud*ud)``, the Hermitian form of ``v = (c, s)``.

    With ``w = (c^2, |s|^2, c conj(s))`` and ``uu``, ``dd``, ``ud`` the basis pair's
    sums of ``|x_up|^2``, ``|x_down|^2`` and ``x_up conj(x_down)``, it is the qubit's
    ``sum |c x_up + s x_down|^2``.  Every per-qubit number of the linear path, and
    its mean distribution, is one.
    """
    w_uu, w_dd, w_ud = w
    return w_uu * uu + w_dd * dd + 2.0 * (w_ud * ud).real


def _run_direct(grid: QubitGrid, init: InitialStateSpec, plan: EvolutionPlan):
    c, s = _coefficients(grid.alphas, grid.betas)
    window = reachable_window(init.support(), plan.coin, plan.steps)
    times = plan.record_times()
    series_sum = np.zeros((2, times.size))  # sigma, entropy
    p_sum = np.zeros((2, window.size))  # p_up, p_down
    for lo in range(0, len(grid), _BLOCK):
        states = _product_states(init, window, c[lo : lo + _BLOCK], s[lo : lo + _BLOCK])
        sigma, entropy, _, up, down = _walk_series(*states, plan, window)
        for i in range(up.shape[0]):  # sum in qubit order
            series_sum += (sigma[:, i], entropy[:, i])
            p_sum += (_prob(up[i]), _prob(down[i]))
    n = float(len(grid))
    mean_sigma, mean_entropy = series_sum / n
    p_up, p_down = p_sum / n
    mean_dist = PositionDistribution(window, p_up, p_down)
    return times, mean_sigma, mean_entropy, mean_dist


def default_fit_window(steps: int) -> tuple[int, int]:
    """The fit window a run uses unless told otherwise: the last 2000 steps."""
    return (max(0, steps - 2000), steps)


def fit_dispersion_slope(
    times: np.ndarray,
    values: np.ndarray,
    fit_window: tuple[int, int],
) -> float:
    """Ordinary least-squares slope of ``values`` vs ``times`` in a window.

    ``fit_window`` is inclusive on both ends and must lie within the
    recorded time range and select at least two distinct times.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    start, end = fit_window
    if start > end:
        raise ValueError(f"degenerate fit window [{start}, {end}]")
    if times.size == 0 or start < times.min() or end > times.max():
        raise ValueError(
            f"fit window [{start}, {end}] outside recorded range "
            f"[{times.min() if times.size else 'nan'}, {times.max() if times.size else 'nan'}]"
        )
    mask = (times >= start) & (times <= end)
    t = times[mask]
    y = values[mask]
    if t.size < 2 or t.min() == t.max():
        raise ValueError(f"fit window [{start}, {end}] selects fewer than two distinct times")
    t_centered = t - t.mean()
    return float(np.dot(t_centered, y) / np.dot(t_centered, t_centered))


def moving_average(values: np.ndarray, width: int) -> np.ndarray:
    """Simple moving average, ``len(values) - width + 1`` points."""
    if width < 1 or width > len(values):
        raise ValueError(f"window width {width} invalid for {len(values)} samples")
    kernel = np.full(width, 1.0 / width)
    return np.convolve(np.asarray(values, dtype=np.float64), kernel, mode="valid")
