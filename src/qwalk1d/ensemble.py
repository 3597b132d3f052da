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
walks regardless of grid size.  The envelope and coins are real, so the
basis pair is stepped in float64, and every per-qubit number is linear in
the qubit's weights ``(c^2, |s|^2, c conj(s))``, its Bloch vector
``(1, x, y, z)`` in other coordinates.  Per record, one GEMM gives the
pair's Gram matrices ``A diag((j - centre)^k) A^T`` (k = 0, 1, 2, moments
about the pair's mean position); per block of records, one GEMM of their
coefficient rows with the qubits' weights gives every qubit's norm,
moments, spin-up weight and coherence.  The mean distribution is one
Hermitian form (:func:`_form`) with the qubit-averaged weights.  The
"direct" method, the independent cross-check, evolves every qubit in
fixed-size batches through the one per-qubit driver whose one-qubit case
is :func:`run_walk`.  Its amplitudes are float64 when every beta of the
run is 0, as for the single walks of fig1, and complex128 otherwise
(``core._coefficients`` holds that one dtype rule; the paper's grids
are complex).  Both run in one process, sum each record over its
light cone alone (``recorded_steps``'s ``live``) and reduce in a fixed
order, so results are bitwise reproducible.
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
    _check_bloch_angles,
    _coefficients,
    _integer,
    _product_states,
    _real,
)
from .evolution import EvolutionPlan, reachable_window, recorded_steps
from .observables import PositionDistribution, _prob, _row_observables, entropy_bits_vec

__all__ = [
    "QubitGrid",
    "WalkRecord",
    "EnsembleResult",
    "make_qubit_grid",
    "run_walk",
    "run_ensemble",
    "fit_dispersion_slope",
]

# Qubits the direct method evolves as one batch, bounding its array sizes.  On
# 128 qubits x 500 steps (sigma0=1, defect at -101), stepping and summing the
# light cone, 8/16/32/64 took a median 1.28-1.49/1.03-1.14/0.89/0.96 s with
# tracemalloc peaks of 1.2/2.3/4.5/8.8 MB (2 vCPUs).  In the benchmark's
# direct_crosscheck, 32 gains only 3-4% (1.04-1.05 s against 1.08-1.11 s) for
# 2 MB more peak RSS, so 16 stays.  Rows are independent and summed in qubit
# order, so the block size moves no byte.
_BLOCK = 16

# Records whose per-qubit numbers are one GEMM: as many as keep records x qubits
# within this, and at least one, so 4 at 2016 qubits and 1 above 8192 qubits.
# That keeps the memory flat, and the GEMM below OpenBLAS's threading threshold:
# 64-record blocks put it on two threads, which cost more CPU time than they
# saved wall time.
_BLOCK_ELEMENTS = 8192

# Largest grid make_qubit_grid builds; at its peak the linear method holds
# about _BYTES_PER_QUBIT bytes per qubit, ~0.16 GB at the cap (tracemalloc:
# 152 B on 198k- and 791k-qubit grids, 20 steps, one-record blocks).
MAX_QUBITS = 1_000_000
_BYTES_PER_QUBIT = 160


@dataclass(frozen=True, eq=False)
class QubitGrid:
    """Initial qubits as Bloch angles: qubit ``n`` is ``(alphas[n], betas[n])``.

    Averaging and reduction follow this order.  Two non-empty 1-D arrays of
    equal length, stored as float64 and checked by the rule :class:`QubitParams`
    passes (``core._check_bloch_angles``).
    """

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self) -> None:
        alphas, betas = _check_bloch_angles(np.asarray(self.alphas), np.asarray(self.betas))
        if alphas.size == 0:
            raise ValueError("qubit grid is empty")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)

    def __len__(self) -> int:
        return self.alphas.size


def make_qubit_grid(alpha_step: float, beta_step: float) -> QubitGrid:
    """Grid ``(i*alpha_step, k*beta_step)`` of initial qubits, alpha-major.

    Includes every multiple of the step that does not exceed pi
    (resp. 2*pi), endpoint included when it lands exactly: 2016 qubits at
    step 0.1, and at most :data:`MAX_QUBITS`.
    """
    alphas = _step_multiples(alpha_step, math.pi, "alpha_step")
    betas = _step_multiples(beta_step, 2.0 * math.pi, "beta_step")
    if alphas.size * betas.size > MAX_QUBITS:
        count = (math.pi / alpha_step + 1.0) * (2.0 * math.pi / beta_step + 1.0)
        raise ValueError(
            f"grid steps ({alpha_step}, {beta_step}) give about {count:.3g} qubits, more "
            f"than MAX_QUBITS={MAX_QUBITS}; the linear method needs about {_BYTES_PER_QUBIT} "
            f"bytes per qubit ({count * _BYTES_PER_QUBIT / 1e9:.3g} GB)"
        )
    return QubitGrid(np.repeat(alphas, betas.size), np.tile(betas, alphas.size))


def _step_multiples(step: float, bound: float, what: str) -> np.ndarray:
    """Every ``i * step <= bound``, ``step`` a positive real (products, so points reproduce).

    One spare multiple covers a rounded quotient; past the cap the axis is cut.
    """
    step = _real(step, what)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"{what} must be positive, got {step}")
    values = np.arange(math.floor(min(bound / step, MAX_QUBITS)) + 2) * step
    return values[values <= bound]


@dataclass(eq=False)
class WalkRecord:
    """Per-step observables of one walk plus its final state, slope and norm deficit."""

    times: np.ndarray
    sigma: np.ndarray
    entropy: np.ndarray
    norm: np.ndarray
    final_state: WalkState
    slope: float
    norm_deficit: float


def run_walk(
    qubit: QubitParams, init: InitialStateSpec, plan: EvolutionPlan, *,
    fit_window: tuple[int, int] | None = None,
) -> WalkRecord:
    """One walk's series and slope, checked by :func:`check_run`: the one-qubit ``direct`` run."""
    window, fit_window = check_run(init, plan, fit_window)
    c, s = _coefficients(np.array([qubit.alpha]), np.array([qubit.beta]))
    (sigma, entropy, norm), _, up, down = _qubit_sums(init, plan, window, c, s)
    final = WalkState(window, up[0], down[0])
    times = plan.record_times()
    slope = fit_dispersion_slope(times, sigma, fit_window)
    return WalkRecord(times, sigma, entropy, norm, final, slope, init.norm_deficit())


@dataclass(eq=False)
class EnsembleResult:
    """Grid-averaged observables.

    ``mean_dispersion`` and ``mean_entropy`` are arithmetic means of the
    per-qubit series (the dispersion of each walk is averaged, not the
    dispersion of the averaged distribution).  ``mean_distribution`` is
    the averaged spin-resolved probability field at the final step.
    ``slope`` is the least-squares slope of ``mean_dispersion`` over
    the run's fit window.
    """

    times: np.ndarray
    mean_dispersion: np.ndarray
    mean_entropy: np.ndarray
    mean_distribution: PositionDistribution
    slope: float
    qubit_count: int
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
    if method not in ("linear", "direct"):
        raise ValueError(f"unknown ensemble method {method!r}")
    window, fit_window = check_run(init, plan, fit_window)
    run = _run_linear if method == "linear" else _run_direct
    times, mean_sigma, mean_entropy, mean_dist = run(grid, init, plan, window)
    slope = fit_dispersion_slope(times, mean_sigma, fit_window)
    return EnsembleResult(
        times=times,
        mean_dispersion=mean_sigma,
        mean_entropy=mean_entropy,
        mean_distribution=mean_dist,
        slope=slope,
        qubit_count=len(grid),
        norm_deficit=init.norm_deficit(),
    )


def _run_linear(
    grid: QubitGrid, init: InitialStateSpec, plan: EvolutionPlan, window: LatticeWindow
):
    times = plan.record_times()
    grams, (au, ad), (bu, bd) = _basis_grams(init, plan, window)
    rows = _weight_rows(grams)
    weights, mean_w = _qubit_weights(grid)
    mean_sigma = np.empty(times.size)
    mean_entropy = np.empty(times.size)
    block = max(1, _BLOCK_ELEMENTS // len(grid))
    for lo in range(0, times.size, block):
        records = slice(lo, lo + block)
        sums = (rows[records].reshape(-1, 4) @ weights).reshape(-1, 6, len(grid))
        norm, m1, m2, up_weight, re, im = sums.transpose(1, 0, 2)
        mean = m1 / norm
        mean_sigma[records] = np.mean(np.sqrt(np.maximum(m2 / norm - mean * mean, 0.0)), axis=1)
        mean_entropy[records] = np.mean(entropy_bits_vec(up_weight, re**2 + im**2, norm), axis=1)

    # the qubit-averaged weights' Hermitian form, site by site, is the mean distribution
    p_up = _form(mean_w, _prob(au), _prob(ad), au * ad.conj())
    p_down = _form(mean_w, _prob(bu), _prob(bd), bu * bd.conj())
    return times, mean_sigma, mean_entropy, PositionDistribution(window, p_up, p_down)


def _basis_grams(init: InitialStateSpec, plan: EvolutionPlan, window: LatticeWindow):
    """Step the real basis pair; return its Grams ``(T, 3, 4, 4)`` and final ``up``, ``down``.

    Row 0 of the pair starts spin-up, row 1 spin-down.  Per record, with
    ``A = [a_up; a_down; b_up; b_down]`` over the light cone ``live`` and
    ``d = j - centre`` about the pair's mean position, one GEMM
    ``A [A; A d; A d^2]^T`` gives ``A diag(d^k) A^T`` for k = 0, 1, 2.
    """
    sites = window.sites().astype(np.float64)
    buffer = np.empty(12 * window.size)
    grams = np.empty((plan.record_times().size, 4, 12))
    basis = _product_states(init, window, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for slot, (up, down, live) in enumerate(recorded_steps(*basis, plan, window)):
        width = live.stop - live.start
        stack = buffer[: 12 * width].reshape(12, width)
        a, a_d, a_dd = stack[:4], stack[4:8], stack[8:]
        prob = np.square(np.concatenate((up[:, live], down[:, live]), out=a), out=a_d)
        d = sites[live] - (prob @ sites[live]).sum() / prob.sum()
        np.multiply(np.multiply(a, d, out=a_d), d, out=a_dd)
        np.matmul(a, stack.T, out=grams[slot])
    return grams.reshape(-1, 4, 3, 4).transpose(0, 2, 1, 3), up, down


def _qubit_weights(grid: QubitGrid):
    """The form weights ``w = (c^2, |s|^2, c conj(s))`` of every qubit, and their grid means.

    Per qubit as the real ``(4, Q)`` columns ``(c^2, |s|^2, Re, Im of c conj(s))``,
    its Bloch vector ``(1, x, y, z)`` in other coordinates: ``c^2 = (1+z)/2``,
    ``|s|^2 = (1-z)/2`` and ``c conj(s) = (x - iy)/2``.  A function of its own, so
    that ``c``, ``s`` and the complex weights are freed before the record blocks.
    """
    c, s = _coefficients(grid.alphas, grid.betas)
    w_uu, w_dd, w_ud = w = (c * c, (s * s.conj()).real, c * s.conj())
    return np.stack((w_uu, w_dd, w_ud.real, w_ud.imag)), [np.mean(weight) for weight in w]


def _weight_rows(grams: np.ndarray) -> np.ndarray:
    """Each record's six per-qubit sums as rows ``(T, 6, 4)`` over the qubit weights.

    ``grams[t, k]`` is ``A diag(d^k) A^T``, ``d = j - centre``, over the rows
    ``a_up, a_down, b_up, b_down`` of ``A``.  The sums are the norm, its first and
    second moments about the centre, ``sum|a|^2`` and ``sum a conj(b)`` (real,
    imaginary).  The basis walks are real, so each but the coherence is
    :func:`_form` with a real ``ud``, ``w_uu*uu + w_dd*dd + 2 Re(w_ud) ud``; with
    ``c s = conj(w_ud)``, the coherence is
    ``w_uu*G02 + w_dd*G13 + w_ud*G03 + conj(w_ud)*G12`` over ``grams[t, 0]``.
    """
    g, g0 = grams, grams[:, 0]
    rows = np.zeros((g.shape[0], 6, 4))
    # norm and moments: |a|^2 + |b|^2 of the up walk, of the down walk, and their cross term
    rows[:, :3, 0] = g[:, :, 0, 0] + g[:, :, 2, 2]
    rows[:, :3, 1] = g[:, :, 1, 1] + g[:, :, 3, 3]
    rows[:, :3, 2] = 2.0 * (g[:, :, 0, 1] + g[:, :, 2, 3])
    rows[:, 3, :3] = np.stack((g0[:, 0, 0], g0[:, 1, 1], 2.0 * g0[:, 0, 1]), axis=1)
    rows[:, 4, :3] = np.stack((g0[:, 0, 2], g0[:, 1, 3], g0[:, 0, 3] + g0[:, 1, 2]), axis=1)
    rows[:, 5, 3] = g0[:, 0, 3] - g0[:, 1, 2]
    return rows


def _form(w, uu, dd, ud):
    """``w_uu*uu + w_dd*dd + 2 Re(w_ud*ud)``, the Hermitian form of ``v = (c, s)``.

    With ``w = (c^2, |s|^2, c conj(s))`` and ``uu``, ``dd``, ``ud`` the basis pair's
    sums of ``|x_up|^2``, ``|x_down|^2`` and ``x_up conj(x_down)``, it is the qubit's
    ``sum |c x_up + s x_down|^2``.  The linear path's mean distribution is one, and
    so, as rows of :func:`_weight_rows`, is every per-qubit number but the coherence.
    """
    w_uu, w_dd, w_ud = w
    return w_uu * uu + w_dd * dd + 2.0 * (w_ud * ud).real


def _run_direct(
    grid: QubitGrid, init: InitialStateSpec, plan: EvolutionPlan, window: LatticeWindow
):
    c, s = _coefficients(grid.alphas, grid.betas)
    (sigma, entropy, _), (p_up, p_down), _, _ = _qubit_sums(init, plan, window, c, s)
    n = float(len(grid))
    mean_dist = PositionDistribution(window, p_up / n, p_down / n)
    return plan.record_times(), sigma / n, entropy / n, mean_dist


def _qubit_sums(
    init: InitialStateSpec, plan: EvolutionPlan, window: LatticeWindow,
    c: np.ndarray, s: np.ndarray,
):
    """Step the qubits ``c_i |up> + s_i |down>`` in batches of ``_BLOCK``; sum them in qubit order.

    The one per-qubit driver: :func:`run_walk` is its one-qubit case.  Returns the
    sums over qubits of the ``(sigma, entropy, norm)`` series, one column per record
    time, and of the final ``(p_up, p_down)``, then the last batch's final ``up``
    and ``down``.
    """
    sites = window.sites().astype(np.float64)
    times = plan.record_times()
    series_sum = np.zeros((3, times.size))
    p_sum = np.zeros((2, window.size))
    for lo in range(0, c.size, _BLOCK):
        up, down = _product_states(init, window, c[lo : lo + _BLOCK], s[lo : lo + _BLOCK])
        # the four row sums per record time, in the batch's dtype; all but the coherence are real
        sums = np.empty((4, times.size, up.shape[0]), dtype=up.dtype)
        for slot, (up, down, live) in enumerate(recorded_steps(up, down, plan, window)):
            sums[:, slot] = _row_observables(up[:, live], down[:, live], sites[live])
        norm, sigma, up_weight = sums[:3].real
        entropy = entropy_bits_vec(up_weight, _prob(sums[3]), norm)
        for i in range(up.shape[0]):  # sum in qubit order
            series_sum += (sigma[:, i], entropy[:, i], norm[:, i])
            p_sum += (_prob(up[i]), _prob(down[i]))
    return series_sum, p_sum, up, down


def check_run(
    init: InitialStateSpec, plan: EvolutionPlan, fit_window: tuple[int | None, int | None] | None = None
) -> tuple[LatticeWindow, tuple[int, int]]:
    """A run's window and fit window, checked before any walk.

    The fit window defaults to the last 2000 steps: a bound left out (``None``)
    is ``max(0, steps - 2000)`` or ``steps``.  The light-cone cap comes first,
    so no record schedule is sized past ``MAX_SITES``.
    """
    window = reachable_window(init.support(), plan.coin, plan.steps)
    start, end = (None, None) if fit_window is None else fit_window
    start = max(0, plan.steps - 2000) if start is None else start
    end = plan.steps if end is None else end
    times = plan.record_times()
    fit_dispersion_slope(times, times, (start, end))
    return window, (int(start), int(end))


def fit_dispersion_slope(
    times: np.ndarray,
    values: np.ndarray,
    fit_window: tuple[int, int],
) -> float:
    """Ordinary least-squares slope of ``values`` vs ``times`` in a window.

    ``fit_window`` is two integers, inclusive on both ends; it must lie
    within the recorded time range and select at least two distinct times.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    start, end = (_integer(bound, "fit window bound") for bound in fit_window)
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

