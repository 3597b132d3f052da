"""Acceptance gate.

Each test checks one numbered criterion at its stated tolerance and
prints a pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Every check must be green.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    InitialStateSpec,
    LatticeWindow,
    PositionDistribution,
    QubitParams,
    WalkState,
    build_initial_state,
    distribution,
    entanglement_entropy,
    make_qubit_grid,
    outer_lobes,
    reachable_window,
    recorded_steps,
    run_ensemble,
    run_walk,
)
from qwalk1d.cli import emit_results, main, parse_config
from qwalk1d.core import SQRT1_2
from qwalk1d.ensemble import check_run
from qwalk1d.observables import _position_moments
from oracle import ring_evolve
from walks import stepped

DATA_DIR = Path(__file__).parent / "data"
STEPS = 3000
DEFECT_SITE = -101
REFERENCE_QUBIT = QubitParams(0.75 * math.pi, 0.0)

INITIAL_STATES = {
    "local": InitialStateSpec.local(),
    "gaussian_sigma1": InitialStateSpec.gaussian(1.0),
    "gaussian_sigma10": InitialStateSpec.gaussian(10.0),
}
COINS = {
    "hadamard": CoinSpec.hadamard(),
    "defect": CoinSpec.not_defect(DEFECT_SITE),
}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _run_start(qubit: QubitParams, init: InitialStateSpec, plan: EvolutionPlan) -> WalkState:
    """The state a run starts from: ``qubit`` over ``init``, in the run's window."""
    return build_initial_state(qubit, init, check_run(init, plan)[0])


def _reference_walk(init: InitialStateSpec, coin: CoinSpec, snapshots=(1000, 2000, 3000)):
    plan = EvolutionPlan(coin, STEPS)
    start = _run_start(REFERENCE_QUBIT, init, plan)
    entropies: list[float] = []
    norms: list[float] = []
    dists: dict[int, object] = {}
    walk = recorded_steps(start.up, start.down, plan, start.window)
    for t, (up, down, _) in zip(plan.record_times().tolist(), walk):
        s = WalkState(start.window, up, down)
        d = distribution(s)
        entropies.append(entanglement_entropy(s))
        norms.append(d.total())
        if t in snapshots:
            dists[t] = d
    return SimpleNamespace(
        entropy=np.asarray(entropies), norm=np.asarray(norms), dists=dists
    )


@pytest.fixture(scope="module")
def reference_walks():
    """Single 3000-step walks from the reference qubit, both coins."""
    return {
        (ilabel, clabel): _reference_walk(init, coin)
        for ilabel, init in INITIAL_STATES.items()
        for clabel, coin in COINS.items()
    }


def _csv_columns(path: Path) -> dict[str, np.ndarray]:
    header, *rows = path.read_text().splitlines()
    columns = zip(*(map(float, row.split(",")) for row in rows))
    return dict(zip(header.split(","), map(np.array, columns)))


def _csv_distribution(path: Path) -> PositionDistribution:
    columns = _csv_columns(path)
    window = LatticeWindow(int(columns["j"][0]), int(columns["j"][-1]))
    return PositionDistribution(window, columns["p_up"], columns["p_down"])


@pytest.fixture(scope="module")
def full_ensembles(fig2_preset):
    """The six full-size 2016-qubit, 3000-step ensembles, read back from ``--preset fig2``.

    Each gives its mean entropy series, its slope and its mean distribution
    at t=3000.  Each sub-run's manifest must name this module's initial
    state, coin and step count.  The CSVs hold 17 significant digits, which
    round-trip double precision exactly, so the values read are the run's own.
    """
    code, root = fig2_preset
    assert code == 0
    out = {}
    for ilabel, init in INITIAL_STATES.items():
        for clabel, coin in COINS.items():
            run_dir = root / f"{ilabel}_{clabel}"
            config = parse_config(json.loads((run_dir / "manifest.json").read_text())["argv"])
            assert (config.initial, config.coin, config.steps) == (init, coin, STEPS)
            summary = _csv_columns(run_dir / "summary.csv")
            assert summary["qubit_count"].tolist() == [2016]
            out[(ilabel, clabel)] = SimpleNamespace(
                mean_entropy=_csv_columns(run_dir / "timeseries.csv")["mean_entropy"],
                slope=float(summary["slope"][0]),
                final=_csv_distribution(run_dir / f"distribution_t{STEPS}.csv"),
            )
    return out


def test_criterion1_oracle_equivalence():
    """Recurrence engine vs per-site ring oracle: M=64 ring, 30 steps, 20 qubits."""
    ring, steps = LatticeWindow(-32, 31), 30
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for coin in (CoinSpec.hadamard(), CoinSpec.not_defect(-5)):
        for _ in range(20):
            qubit = QubitParams(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert ring.contains(reachable_window((0, 0), coin, steps))  # so nothing wraps
            oracle = build_initial_state(qubit, InitialStateSpec.local(), ring)
            plan = EvolutionPlan(coin, steps)
            walk = recorded_steps(oracle.up, oracle.down, plan, ring)
            next(walk)  # t = 0
            for up, down, _ in walk:
                oracle = ring_evolve(oracle, coin, 1)
                worst = max(worst, _amplitude_difference(oracle, WalkState(ring, up, down)))
    _report(
        "criterion 1 (oracle equivalence)",
        worst <= 1e-12,
        f"max sitewise amplitude difference {worst:.3e} (tolerance 1e-12)",
    )


@pytest.mark.slow
def test_criterion1_full_scale_oracle():
    """Criterion 1 at full scale: the reference qubit, 3000 steps, every fig1 envelope x both coins.

    The ring is the run's window padded by one site on each side, so the
    oracle holds the whole light cone without wrapping; the engine is
    :func:`run_walk`, zero on the two padding sites.
    """
    worst = 0.0
    for init in INITIAL_STATES.values():
        for coin in COINS.values():
            final = run_walk(REFERENCE_QUBIT, init, EvolutionPlan(coin, STEPS)).final_state
            ring = LatticeWindow(final.window.j_min - 1, final.window.j_max + 1)
            oracle = ring_evolve(build_initial_state(REFERENCE_QUBIT, init, ring), coin, STEPS)
            engine = WalkState(ring, np.pad(final.up, 1), np.pad(final.down, 1))
            worst = max(worst, _amplitude_difference(oracle, engine))
    _report(
        "criterion 1 (full-scale oracle equivalence)",
        worst <= 1e-12,
        f"max sitewise amplitude difference at t={STEPS} {worst:.3e} (tolerance 1e-12)",
    )


def _amplitude_difference(a: WalkState, b: WalkState) -> float:
    return float(max(np.abs(a.up - b.up).max(), np.abs(a.down - b.down).max()))


@pytest.mark.slow
def test_criterion2_unitarity(reference_walks):
    """All three initial states x both coins conserve norm to 1e-10 over 3000 steps."""
    worst = 0.0
    for (ilabel, clabel), walk in reference_walks.items():
        drift = float(np.abs(walk.norm - walk.norm[0]).max())
        worst = max(worst, drift)
    _report(
        "criterion 2 (unitarity)",
        worst <= 1e-10,
        f"max norm drift over 3000 steps {worst:.3e} (tolerance 1e-10)",
    )


@pytest.mark.slow
def test_criterion3_far_peak_probabilities(reference_walks):
    targets = {"local": (0.06, 0.02), "gaussian_sigma1": (0.15, 0.03), "gaussian_sigma10": (0.50, 0.05)}
    measured = {}
    ok = True
    for ilabel, (target, tol) in targets.items():
        dist = reference_walks[(ilabel, "hadamard")].dists[STEPS]
        weight = outer_lobes(dist)[1][1]
        measured[ilabel] = weight
        ok = ok and abs(weight - target) <= tol
    detail = ", ".join(
        f"{k}={v:.4f} (target {targets[k][0]}±{targets[k][1]})" for k, v in measured.items()
    )
    _report("criterion 3 (far-peak probability)", ok, detail)


def _final_hadamard_distribution(qubit: QubitParams, init: InitialStateSpec):
    """Position distribution after a bare ``STEPS``-step Hadamard walk."""
    plan = EvolutionPlan(COINS["hadamard"], STEPS)
    return distribution(stepped(_run_start(qubit, init, plan), plan.coin, STEPS))


@pytest.mark.slow
def test_criterion3_distribution_symmetry(reference_walks):
    """Exact mirror symmetry of the Hadamard walk, at 1e-10 and t=3000.

    Let Pi map site j to -j and swap up and down.  The shift moves up
    right and down left, so Pi S Pi = S; the coin obeys X H X = -Z H Z;
    Z commutes with S.  Hence Pi U Pi = -Z U Z and
    Pi U^t Pi = (-1)^t Z U^t Z.  For an envelope even in j, Pi maps
    (a, b) f(j) to (b, a) f(j), and Z only flips signs, so
    P(-j) from (a, b) equals P(j) from (b, -a).  In Bloch angles
    (b, -a) is, up to a global phase, the qubit (pi - alpha, pi - beta).

    So (a) the Bell-phase qubit (pi/2, pi/2), its own partner, gives an
    exactly symmetric distribution, and (b) the reference qubit
    (3pi/4, 0) mirrored gives that of (pi/4, pi).  The reference qubit's
    own P(j) - P(-j) is not zero at finite t (after one step
    P(1) = cos^2(pi/8) while P(-1) = sin^2(pi/8)); it is printed as
    information only.
    """
    bell = QubitParams(0.5 * math.pi, 0.5 * math.pi)
    partner = QubitParams(math.pi - REFERENCE_QUBIT.alpha, math.pi - REFERENCE_QUBIT.beta)
    centred = True
    bell_worst = mirror_worst = own_asym = 0.0
    for ilabel, init in INITIAL_STATES.items():
        reference = reference_walks[(ilabel, "hadamard")].dists[STEPS]
        bell_dist = _final_hadamard_distribution(bell, init)
        mirrored = _final_hadamard_distribution(partner, init)
        # p[::-1] is P(-j) only on a window centred on the origin
        for dist in (reference, bell_dist, mirrored):
            centred = centred and dist.window.j_min == -dist.window.j_max
        p = reference.p_total
        own_asym = max(own_asym, float(np.abs(p - p[::-1]).max()))
        q = bell_dist.p_total
        bell_worst = max(bell_worst, float(np.abs(q - q[::-1]).max()))
        mirror_worst = max(mirror_worst, float(np.abs(p[::-1] - mirrored.p_total).max()))
    _report(
        "criterion 3 (distribution symmetry)",
        centred and bell_worst <= 1e-10 and mirror_worst <= 1e-10,
        f"Bell qubit max |P(j)-P(-j)| = {bell_worst:.3e}, reference mirrored vs "
        f"(pi/4, pi) max diff = {mirror_worst:.3e} (tolerance 1e-10; windows "
        f"centred: {centred}); reference qubit's own max |P(j)-P(-j)| = "
        f"{own_asym:.3e} (information only)",
    )


@pytest.mark.slow
def test_criterion4_peak_separation(reference_walks):
    ok = True
    details = []
    for ilabel in INITIAL_STATES:
        walk = reference_walks[(ilabel, "hadamard")]
        for t in (1000, 2000, 3000):
            (j_back, _), (j_front, _) = outer_lobes(walk.dists[t])
            separation = j_front - j_back
            expected = math.sqrt(2.0) * t
            rel = abs(separation - expected) / expected
            ok = ok and rel <= 0.05
            details.append(f"{ilabel}@t={t}: {separation} vs {expected:.0f} ({100*rel:.2f}%)")
    _report("criterion 4 (peak separation ~ sqrt(2)t)", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion5_full_scale_averages(full_ensembles):
    """The nine values of the 2016-qubit runs, each within +-0.03."""
    checks = [
        ("local", "hadamard", "final", 0.87),
        ("gaussian_sigma1", "hadamard", "final", 0.77),
        ("gaussian_sigma10", "hadamard", "final", 0.69),
        ("local", "defect", "max", 0.91),
        ("gaussian_sigma1", "defect", "max", 0.82),
        ("gaussian_sigma10", "defect", "max", 0.77),
        ("local", "defect", "final", 0.57),
        ("gaussian_sigma1", "defect", "final", 0.23),
        ("gaussian_sigma10", "defect", "final", 0.01),
    ]
    ok = True
    details = []
    for ilabel, clabel, which, target in checks:
        series = full_ensembles[(ilabel, clabel)].mean_entropy
        value = float(series[-1]) if which == "final" else float(series.max())
        good = abs(value - target) <= 0.03 if target > 0.01 else value < 0.01 + 0.03
        ok = ok and good
        details.append(f"{ilabel}/{clabel}/{which}={value:.3f} (target ~{target})")
    _report("criterion 5 (ensemble entanglement values)", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion5_ci_scale_reference():
    """91-qubit variant reproduces the committed reference values to 1e-9."""
    with open(DATA_DIR / "ci_ensemble_reference.json") as fh:
        reference = json.load(fh)
    grid = make_qubit_grid(reference["grid_step"], reference["grid_step"])
    assert len(grid) == reference["qubit_count"]
    worst = 0.0
    for ilabel, init in INITIAL_STATES.items():
        for clabel, coin in COINS.items():
            res = run_ensemble(grid, init, EvolutionPlan(coin, reference["steps"]))
            ref = reference["cases"][f"{ilabel}_{clabel}"]
            for key, value in (
                ("final_entropy", float(res.mean_entropy[-1])),
                ("max_entropy", float(res.mean_entropy.max())),
                ("final_sigma", float(res.mean_dispersion[-1])),
                ("slope", float(res.slope)),
            ):
                worst = max(worst, abs(value - ref[key]))
    _report(
        "criterion 5 (CI-scale frozen references)",
        worst <= 1e-9,
        f"max deviation from committed values {worst:.3e} (tolerance 1e-9)",
    )


@pytest.mark.slow
def test_criterion6_trojan_regime(full_ensembles):
    trojan = full_ensembles[("gaussian_sigma10", "defect")]
    spreading = full_ensembles[("gaussian_sigma10", "hadamard")]
    trojan_slope = trojan.slope
    spreading_slope = spreading.slope
    final_entropy = float(trojan.mean_entropy[-1])
    ok = (
        abs(trojan_slope) <= 0.02
        and spreading_slope >= 0.3
        and final_entropy < 0.01
    )
    _report(
        "criterion 6 (Trojan regime)",
        ok,
        f"defect slope {trojan_slope:+.5f} (|.|<=0.02), plain slope "
        f"{spreading_slope:.3f} (>=0.3), defect entropy {final_entropy:.5f} (<0.01)",
    )


@pytest.mark.slow
def test_criterion7_reflection_support():
    """No probability ever appears left of the defect, exactly."""
    window = LatticeWindow(DEFECT_SITE - 10, 100 + STEPS)
    ok = True
    for ilabel, init in INITIAL_STATES.items():
        plan = EvolutionPlan(COINS["defect"], STEPS)
        state = build_initial_state(REFERENCE_QUBIT, init, window)
        cut = DEFECT_SITE - window.j_min
        walk = recorded_steps(state.up, state.down, plan, window)
        leaked = [
            t
            for t, (up, down, _) in zip(plan.record_times(), walk)
            if np.any(up[:cut] != 0.0) or np.any(down[:cut] != 0.0)
        ]
        ok = ok and not leaked
    _report(
        "criterion 7 (reflection support)",
        ok,
        "probability left of the defect exactly zero at every step of all three runs",
    )


@pytest.mark.slow
def test_criterion8_maximal_entanglement_qubit(reference_walks):
    walk = reference_walks[("local", "hadamard")]
    final = float(walk.entropy[-1])
    ma = np.convolve(walk.entropy, np.full(100, 1.0 / 100), mode="valid")  # 100-step mean
    diffs = np.diff(ma[500:])
    nondecreasing = bool((diffs >= -1e-12).all())
    ok = final >= 0.95 and nondecreasing
    _report(
        "criterion 8 (maximal-entanglement qubit)",
        ok,
        f"S_E(3000)={final:.6f} (>=0.95), min moving-average increment "
        f"{diffs.min():+.2e} after t=500",
    )


def test_criterion9_entropy_closed_form():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = rng.integers(1, 8)
        up = rng.normal(size=n) + 1j * rng.normal(size=n)
        down = rng.normal(size=n) + 1j * rng.normal(size=n)
        norm = math.sqrt(float(np.sum(np.abs(up) ** 2 + np.abs(down) ** 2)))
        up, down = up / norm, down / norm
        closed = entanglement_entropy(WalkState(LatticeWindow(0, n - 1), up, down))
        # the reduced coin matrix from this test's own sums
        up_weight, down_weight = np.vdot(up, up).real, np.vdot(down, down).real
        coherence = np.vdot(down, up)  # sum a conj(b)
        rho = np.array([[up_weight, coherence], [np.conj(coherence), down_weight]])
        eigs = np.linalg.eigvalsh(rho / (up_weight + down_weight))
        direct = -sum(lam * math.log2(lam) for lam in eigs if lam > 1e-300)
        worst = max(worst, abs(closed - direct))
    _report(
        "criterion 9 (entropy closed form vs eigendecomposition)",
        worst <= 1e-12,
        f"max difference over 1000 random states {worst:.3e} (tolerance 1e-12)",
    )


def test_criterion9_separable_states():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        qubit = QubitParams(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        state = build_initial_state(qubit, InitialStateSpec.gaussian(2.0, 15))
        worst = max(worst, entanglement_entropy(state))
    _report(
        "criterion 9 (separable states)",
        worst <= 1e-12,
        f"max entropy over 200 product states {worst:.3e} (tolerance 1e-12)",
    )


def test_criterion9_ensemble_determinism(tmp_path):
    files = ("distribution_t60.csv", "timeseries.csv", "summary.csv")

    # CLI path across worker counts
    args = (
        "--mode ensemble --alpha-step 0.8 --beta-step 1.6 --steps 60 "
        "--fit-start 0 --fit-end 60"
    )
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w4"
    assert main(args.split() + ["--output-dir", str(out_a), "--workers", "1"]) == 0
    assert main(args.split() + ["--output-dir", str(out_b), "--workers", "4"]) == 0
    cli_identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files
    )

    # per-qubit (direct) execution across worker counts, emitted to CSV
    grid = make_qubit_grid(0.8, 1.6)
    plan = EvolutionPlan(CoinSpec.hadamard(), 60)
    init = InitialStateSpec.local()
    for workers, out in ((1, tmp_path / "d1"), (4, tmp_path / "d4")):
        res = run_ensemble(init=init, grid=grid, plan=plan, method="direct", workers=workers)
        emit_results(res, out)
    direct_identical = all(
        (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d4" / name).read_bytes()
        for name in files
    )
    _report(
        "criterion 9 (ensemble determinism)",
        cli_identical and direct_identical,
        "CSV output bitwise identical across worker counts "
        f"(CLI: {cli_identical}, per-qubit path: {direct_identical})",
    )


def _gaussian_tail(sigma0: float, radius: int) -> float:
    """``sum_{|j| > radius} f(j)^2`` from the closed form of ``f(j)^2``.

    A sum of positive terms with no cancellation, so it stays accurate
    far below double rounding of 1.  It equals ``1 - sum_{|j| <= radius}
    f(j)^2`` up to the Poisson excess of the full discrete sum over 1,
    ``2 exp(-2 pi^2 sigma0^2)``, which is below 1e-34 for sigma0 >= 2.
    """
    terms = (
        math.exp(-(j * j) / (2.0 * sigma0 * sigma0))
        for j in range(radius + 1, radius + 1 + int(40 * sigma0))
    )
    return 2.0 * math.fsum(terms) / math.sqrt(2.0 * math.pi * sigma0 * sigma0)


def test_criterion9_truncation_deficit_range():
    """The truncation loss is reported, not corrected, and reported correctly.

    ``norm_deficit()`` is checked against the independent tail sum of
    :func:`_gaussian_tail` at absolute 1e-13, for sigma0=10 cut at radii
    whose exact loss lies in the stated range [1e-6, 1e-4]: R=40 loses
    5.085e-05 and R=44 loses 8.513e-06.  The paper's 10-sigma cut
    (sigma0=10, R=100) loses only 8.8e-24, which ``1 - sum f^2`` cannot
    resolve in double precision; its deficit must read below 1e-14.
    """
    details = []
    ok = True
    for radius in (40, 44, 100):
        deficit = InitialStateSpec.gaussian(10.0, radius).norm_deficit()
        tail = _gaussian_tail(10.0, radius)
        ok = ok and abs(deficit - tail) <= 1e-13
        if radius == 100:
            ok = ok and abs(deficit) < 1e-14
        else:
            ok = ok and 1e-6 <= deficit <= 1e-4
        details.append(f"R={radius}: {deficit:.3e} vs tail {tail:.3e}")
    _report(
        "criterion 9 (Gaussian truncation deficit)",
        ok,
        "sigma0=10 " + "; ".join(details)
        + " (agreement 1e-13; range [1e-6, 1e-4] for R=40, 44; |deficit| < 1e-14 for R=100)",
    )


def _lobe_pair(dist: PositionDistribution, defect_site: int) -> tuple[bool, str]:
    """Two lobes of weight 0.5 +- 0.02 whose sites are 2|r|+1 +- 2 apart, ``r`` the defect site."""
    (j_back, w_back), (j_front, w_front) = outer_lobes(dist)
    separation = j_front - j_back
    ok = (
        abs(w_back - 0.5) <= 0.02
        and abs(w_front - 0.5) <= 0.02
        and abs(separation - (2 * abs(defect_site) + 1)) <= 2
    )
    return ok, f"lobes ({j_back}, {w_back:.4f}) and ({j_front}, {w_front:.4f}), {separation} apart"


def _trojan_packet(dists: dict[int, PositionDistribution], defect_site: int) -> tuple[bool, str]:
    """Whether the snapshots ``dists`` (by time step) show the Trojan packet of ``defect_site``.

    At every snapshot, :func:`_lobe_pair` holds.  From the first snapshot
    to the last, the mean of ``p_total`` moves at 1/sqrt(2) +- 1e-3 sites
    per step, and the dispersions differ by less than 0.1.  The velocity is
    that of the mean, not of the lobes' midpoint, which a spreading packet
    can also move at nearly 1/sqrt(2).
    """
    times = sorted(dists)
    snapshots = [dists[t] for t in times]
    pairs = [_lobe_pair(d, defect_site) for d in snapshots]
    _, means, sigmas = zip(
        *(_position_moments(d.p_total, d.window.sites().astype(np.float64)) for d in snapshots)
    )
    velocity = (means[-1] - means[0]) / (times[-1] - times[0])
    spread = max(sigmas) - min(sigmas)
    ok = all(good for good, _ in pairs) and abs(velocity - SQRT1_2) <= 1e-3 and spread < 0.1
    detail = "; ".join(f"t={t}: {text}" for t, (_, text) in zip(times, pairs))
    detail += f"; velocity {velocity:.6f} (1/sqrt(2) = {SQRT1_2:.6f}); sigma "
    detail += " -> ".join(f"{sigma:.3f}" for sigma in sigmas)
    return ok, detail


@pytest.mark.slow
def test_criterion10_trojan_packet(reference_walks):
    """The sigma0=10 walk with the defect at r=-101 is a moving, non-spreading double peak.

    Measured at t = 1000, 2000 and 3000 against :func:`_trojan_packet`'s
    tolerances: lobe weights within 4e-6 of 0.5 (tolerance 0.02);
    separations 204, 204 and 203 against 2|r|+1 = 203 (tolerance 2);
    velocity 0.706664 against 0.707107, 4.4e-4 off (tolerance 1e-3);
    sigma 102.201 -> 102.216, a spread of 0.015 (tolerance 0.1).

    Two controls must fail.  The defect-free walk's lobes separate
    (1413, 2825 and 4237 sites apart; sigma 707 -> 2120).  A defect inside
    the envelope, r=-31, gives lobes 63, 65 and 62 apart, within 2 of
    2|r|+1 = 63, but its mean moves at 0.70544 (1.7e-3 off) and its sigma
    grows from 52.7 to 127.0.
    """
    ok, detail = _trojan_packet(reference_walks[("gaussian_sigma10", "defect")].dists, DEFECT_SITE)
    plain, _ = _trojan_packet(reference_walks[("gaussian_sigma10", "hadamard")].dists, DEFECT_SITE)
    inside = _reference_walk(INITIAL_STATES["gaussian_sigma10"], CoinSpec.not_defect(-31))
    shallow, _ = _trojan_packet(inside.dists, -31)
    _report(
        "criterion 10 (Trojan packet)",
        ok and not plain and not shallow,
        f"{detail}; rejects the defect-free walk: {not plain}, a defect at -31: {not shallow}",
    )


@pytest.mark.slow
def test_criterion10_trojan_packet_ensemble(full_ensembles):
    """The 2016-qubit sigma0=10/defect mean distribution at t=3000 has the packet's two lobes.

    Measured: (1916, 0.4948) and (2119, 0.5052), 203 apart (tolerances
    0.02 and 2 sites).  The defect-free ensemble's lobes, at -2119 and
    2119, must fail.
    """
    ok, detail = _lobe_pair(full_ensembles[("gaussian_sigma10", "defect")].final, DEFECT_SITE)
    plain, plain_detail = _lobe_pair(full_ensembles[("gaussian_sigma10", "hadamard")].final, DEFECT_SITE)
    _report(
        "criterion 10 (Trojan packet, ensemble mean)",
        ok and not plain,
        f"{detail}; defect-free ensemble {plain_detail}, rejected: {not plain}",
    )


def _sigma0_law(sweep) -> tuple[bool, str]:
    """Whether ``sweep``, rows of (sigma0, slope, final entropy), follows slope ~ sigma0^-4.

    Over sigma0 >= 2, slope * sigma0^4 must lie within 5% of its mean there;
    every row below sigma0 = 2 (the local state, sigma0 = 0, and sigma0 = 1)
    must lie outside that band; and slopes and final entropies must fall
    strictly from row to row.
    """
    sigma0, slopes, entropies = (np.array(column, dtype=np.float64) for column in zip(*sweep))
    products = slopes * sigma0**4
    law = sigma0 >= 2.0
    mean = products[law].mean()
    deviation = products / mean - 1.0
    ok = (
        bool(np.all(np.abs(deviation[law]) <= 0.05))
        and bool(np.all(np.abs(deviation[~law]) > 0.05))
        and bool(np.all(np.diff(slopes) < 0.0))
        and bool(np.all(np.diff(entropies) < 0.0))
    )
    rows = ", ".join(f"{s:g}: {p:.4g} ({d:+.1%})" for s, p, d in zip(sigma0, products, deviation))
    return ok, f"slope*sigma0^4 by sigma0 {rows}; mean {mean:.5f} over sigma0 >= 2"


def _ensemble_sweep(coin: CoinSpec, sigmas) -> list[tuple[float, float, float]]:
    grid = make_qubit_grid(0.1, 0.1)
    rows = []
    for sigma0 in sigmas:
        result = run_ensemble(grid, InitialStateSpec.gaussian(sigma0), EvolutionPlan(coin, STEPS))
        rows.append((sigma0, result.slope, result.mean_entropy[-1]))
    return rows


@pytest.mark.slow
def test_criterion11_sigma0_law(fig3_preset):
    """The fig3 sweep's slope falls as sigma0^-4 once the envelope is delocalized.

    Measured on ``fig3_summary.csv`` against :func:`_sigma0_law`'s tolerances:
    slope * sigma0^4 lies within -2.0% and +1.5% of its mean, 0.11854, over
    sigma0 = 2..10 (band 5%); sigma0 = 1 reads -35.6% and sigma0 = 0 -100%
    (both must lie outside the band); slopes and final entropies fall
    strictly over all eleven rows.

    Two controls must fail, each a full-grid 3000-step ensemble sweep.  The
    defect-free walk does not decay: at sigma0 = 4 and 8 its slopes read
    0.53732 and 0.53729, products 137.6 and 2201.  A mirror inside the
    envelope, r = -10, at sigma0 = 2, 6 and 10 gives products 0.270, 385.5
    and 5125, its slope growing with sigma0.
    """
    code, root = fig3_preset
    assert code == 0
    summary = _csv_columns(root / "fig3_summary.csv")
    ok, detail = _sigma0_law(zip(summary["sigma0"], summary["slope"], summary["final_entropy"]))
    plain, plain_detail = _sigma0_law(_ensemble_sweep(COINS["hadamard"], (4.0, 8.0)))
    inside, inside_detail = _sigma0_law(_ensemble_sweep(CoinSpec.not_defect(-10), (2.0, 6.0, 10.0)))
    _report(
        "criterion 11 (slope ~ sigma0^-4)",
        ok and not plain and not inside,
        f"{detail}; rejects the defect-free walk ({plain_detail}): {not plain}, "
        f"a mirror at -10 ({inside_detail}): {not inside}",
    )
