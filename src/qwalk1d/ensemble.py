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
walks regardless of grid size; the "direct" method really evolves every
qubit's state, in fixed-size batches, and exists as the independent
cross-check.  Both run in one process and reduce in a fixed order, so
results are bitwise reproducible.
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
    build_initial_state,
)
from .evolution import EvolutionPlan, _advance, evolve, prepared, reachable_window
from .observables import (
    PositionDistribution,
    dispersion,
    distribution,
    entanglement_entropy,
    entropy_bits_vec,
    reduced_coin,
)

__all__ = [
    "QubitGrid",
    "WalkRecord",
    "EnsembleResult",
    "make_qubit_grid",
    "run_walk",
    "run_ensemble",
    "fit_dispersion_slope",
    "moving_average",
]

# Qubits the direct method evolves as one batch, bounding its array sizes; of
# 4 to 64, 16 ran fastest with the lowest peak memory on 128 qubits x 500 steps.
_BLOCK = 16


@dataclass(frozen=True)
class QubitGrid:
    """Bloch-angle grid ``(i*alpha_step, k*beta_step)`` within range.

    Includes every multiple of the step that does not exceed pi
    (resp. 2*pi), endpoint included when it lands exactly.  Ordering is
    alpha-major and fixed; averaging and reduction follow it.
    """

    alpha_step: float
    beta_step: float
    qubits: tuple[QubitParams, ...]

    def __len__(self) -> int:
        return len(self.qubits)


def make_qubit_grid(alpha_step: float, beta_step: float) -> QubitGrid:
    """Grid of initial qubits; step 0.1 on both angles yields 2016 points."""
    if not (math.isfinite(alpha_step) and alpha_step > 0.0):
        raise ValueError(f"alpha_step must be positive, got {alpha_step}")
    if not (math.isfinite(beta_step) and beta_step > 0.0):
        raise ValueError(f"beta_step must be positive, got {beta_step}")
    alphas = _step_multiples(alpha_step, math.pi)
    betas = _step_multiples(beta_step, 2.0 * math.pi)
    qubits = tuple(QubitParams(a, b) for a in alphas for b in betas)
    return QubitGrid(alpha_step, beta_step, qubits)


def _step_multiples(step: float, bound: float) -> list[float]:
    # i*step (not cumulative addition) so grid points are reproducible
    values = []
    i = 0
    while i * step <= bound:
        values.append(i * step)
        i += 1
    return values


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
    """Evolve one walk, recording dispersion, entropy and norm over time."""
    state = prepared(build_initial_state(qubit, init), plan)
    times: list[int] = []
    sigmas: list[float] = []
    entropies: list[float] = []
    norms: list[float] = []

    def record(t: int, s: WalkState) -> None:
        dist = distribution(s)
        times.append(t)
        sigmas.append(dispersion(dist))
        entropies.append(entanglement_entropy(reduced_coin(s)).entropy)
        norms.append(dist.total())

    final = evolve(state, plan, observer=record)
    return WalkRecord(
        qubit=qubit,
        times=np.asarray(times, dtype=np.int64),
        sigma=np.asarray(sigmas),
        entropy=np.asarray(entropies),
        norm=np.asarray(norms),
        final_state=final,
    )


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
        fit_window = (max(0, plan.steps - 2000), plan.steps)
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


def _recorded_steps(up: np.ndarray, down: np.ndarray, plan: EvolutionPlan, window: LatticeWindow):
    """Step ``(up, down)`` in two alternating buffer pairs, yielding at each record time."""
    spare = np.empty_like(up), np.empty_like(down)
    t = 0
    for t_record in plan.record_times():
        while t < t_record:
            _advance(up, down, *spare, plan.coin, window, t)
            (up, down), spare = spare, (up, down)
            t += 1
        yield up, down


def _qubit_coefficients(grid: QubitGrid) -> tuple[np.ndarray, np.ndarray]:
    alphas = np.array([q.alpha for q in grid.qubits])
    betas = np.array([q.beta for q in grid.qubits])
    c = np.cos(0.5 * alphas)
    s = np.exp(1j * betas) * np.sin(0.5 * alphas)
    return c, s


def _run_linear(grid: QubitGrid, init: InitialStateSpec, plan: EvolutionPlan):
    c, s = _qubit_coefficients(grid)
    w_uu = c * c                 # weight of the up-basis walk
    w_dd = (s * s.conj()).real   # weight of the down-basis walk
    w_ud = c * s.conj()          # cross weight (complex)
    cs = c * s

    window = reachable_window(init.support(), plan.coin, plan.steps)
    sites = window.sites().astype(np.float64)
    sites_sq = sites * sites

    times = plan.record_times()
    mean_sigma = np.empty(times.size)
    mean_entropy = np.empty(times.size)

    def form(kern_uu, kern_dd, kern_ud) -> np.ndarray:
        return w_uu * kern_uu + w_dd * kern_dd + 2.0 * (w_ud * kern_ud).real

    # lattice-size work arrays, reused so the loop does not churn the allocator;
    # filled in the order of the plain expressions, so sums are bitwise the same
    k, k_tmp = np.empty((2, window.size)), np.empty((2, window.size))
    k_ud, k_ud_tmp = np.empty(window.size, complex), np.empty(window.size, complex)

    def record(slot: int, up: np.ndarray, down: np.ndarray) -> None:
        (au, ad), (bu, bd) = up, down
        np.square(up.real, out=k)  # row 0: |a_up|^2 + |b_up|^2, row 1: the down walk's
        for part in (up.imag, down.real, down.imag):
            np.add(k, np.square(part, out=k_tmp), out=k)
        k_uu, k_dd = k
        np.multiply(au, np.conjugate(ad, out=k_ud_tmp), out=k_ud)
        np.add(k_ud, np.multiply(bu, np.conjugate(bd, out=k_ud_tmp), out=k_ud_tmp), out=k_ud)

        norm = form(np.sum(k_uu), np.sum(k_dd), np.sum(k_ud))
        m1 = form(np.dot(k_uu, sites), np.dot(k_dd, sites), np.dot(k_ud, sites)) / norm
        m2 = form(np.dot(k_uu, sites_sq), np.dot(k_dd, sites_sq), np.dot(k_ud, sites_sq)) / norm
        mean_sigma[slot] = float(np.mean(np.sqrt(np.maximum(m2 - m1 * m1, 0.0))))

        # reduced coin entries per qubit
        a_uu = float(np.vdot(au, au).real)
        a_dd = float(np.vdot(ad, ad).real)
        a_ud = complex(np.vdot(ad, au))  # sum a_up conj(a_down)
        up_weight = w_uu * a_uu + w_dd * a_dd + 2.0 * (w_ud * a_ud).real

        t_uu = complex(np.vdot(bu, au))  # sum a_up conj(b_up)
        t_ud = complex(np.vdot(bd, au))  # sum a_up conj(b_down)
        t_du = complex(np.vdot(bu, ad))  # sum a_down conj(b_up)
        t_dd = complex(np.vdot(bd, ad))  # sum a_down conj(b_down)
        coherence = w_uu * t_uu + w_ud * t_ud + cs * t_du + w_dd * t_dd
        coherence_sq = coherence.real**2 + coherence.imag**2
        mean_entropy[slot] = float(np.mean(entropy_bits_vec(up_weight, coherence_sq, norm)))

    # the basis pair: row 0 starts spin-up, row 1 spin-down
    basis = _product_states(init, window, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for slot, (up, down) in enumerate(_recorded_steps(*basis, plan, window)):
        record(slot, up, down)
    mean_dist = _combined_distribution(window, up, down, w_uu, w_dd, w_ud)
    return times, mean_sigma, mean_entropy, mean_dist


def _combined_distribution(
    window: LatticeWindow, up: np.ndarray, down: np.ndarray, w_uu, w_dd, w_ud
) -> PositionDistribution:
    (au, ad), (bu, bd) = up, down
    m_uu = float(np.mean(w_uu))
    m_dd = float(np.mean(w_dd))
    m_ud = complex(np.mean(w_ud))
    p_up = (
        m_uu * (au.real**2 + au.imag**2)
        + m_dd * (ad.real**2 + ad.imag**2)
        + 2.0 * (m_ud * (au * ad.conj())).real
    )
    p_down = (
        m_uu * (bu.real**2 + bu.imag**2)
        + m_dd * (bd.real**2 + bd.imag**2)
        + 2.0 * (m_ud * (bu * bd.conj())).real
    )
    return PositionDistribution(window, p_up, p_down, p_up + p_down)


def _run_direct(grid: QubitGrid, init: InitialStateSpec, plan: EvolutionPlan):
    c, s = _qubit_coefficients(grid)
    window = reachable_window(init.support(), plan.coin, plan.steps)
    sites = window.sites().astype(np.float64)
    times = plan.record_times()
    sum_sigma = np.zeros(times.size)
    sum_entropy = np.zeros(times.size)
    sum_up = np.zeros(window.size)
    sum_down = np.zeros(window.size)
    for start in range(0, len(grid), _BLOCK):
        block = slice(start, start + _BLOCK)
        sigma = np.empty((times.size, c[block].size))
        entropy = np.empty_like(sigma)
        states = _product_states(init, window, c[block], s[block])
        for slot, (up, down) in enumerate(_recorded_steps(*states, plan, window)):
            sigma[slot], entropy[slot] = _qubit_series(up, down, sites)
        p_up = up.real**2 + up.imag**2
        p_down = down.real**2 + down.imag**2
        for i in range(p_up.shape[0]):  # sum in qubit order
            sum_sigma += sigma[:, i]
            sum_entropy += entropy[:, i]
            sum_up += p_up[i]
            sum_down += p_down[i]
    n = float(len(grid))
    p_up = sum_up / n
    p_down = sum_down / n
    mean_dist = PositionDistribution(window, p_up, p_down, p_up + p_down)
    return times, sum_sigma / n, sum_entropy / n, mean_dist


def _qubit_series(up: np.ndarray, down: np.ndarray, sites: np.ndarray):
    """Per-row dispersion (as :func:`dispersion` computes it) and coin entropy."""
    p_up = up.real**2 + up.imag**2
    p_total = p_up + (down.real**2 + down.imag**2)
    norm = np.sum(p_total, axis=1)
    centered = sites - (p_total @ sites / norm)[:, None]
    sigma = np.sqrt(np.maximum(np.sum(p_total * (centered * centered), axis=1) / norm, 0.0))
    coherence = np.sum(up * down.conj(), axis=1)  # sum a conj(b)
    coherence_sq = coherence.real**2 + coherence.imag**2
    return sigma, entropy_bits_vec(np.sum(p_up, axis=1), coherence_sq, norm)


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
