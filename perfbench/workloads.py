"""The benchmark's workloads: what each runs, its sub-runs and their outputs.

Every workload reproduces part of the paper's figure data through the
package's public entry points.  A sub-run is one labelled walk or
ensemble; references are keyed by workload and label, so the seed may
permute sub-run order freely.  The ``tiny`` scale shrinks steps and
grids for the self-checks; it never feeds reported numbers.

This module imports no qwalk1d code at import time; callers pass the
package modules in, so the set-up probe can time their import.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path

SCALES = ("full", "tiny")
TINY_STEPS = 60
TINY_FIT = (10, 60)
TINY_GRID_STEP = 0.5
SPARSE_RECORD_EVERY = {"full": 100, "tiny": 10}
DEFECT_SITE = -101

INITIALS = (
    ("local", ["--initial", "local"]),
    ("gaussian_sigma1", ["--initial", "gaussian", "--sigma0", "1.0"]),
    ("gaussian_sigma10", ["--initial", "gaussian", "--sigma0", "10.0"]),
)
COINS = (
    ("hadamard", ["--coin", "hadamard"]),
    ("defect", ["--coin", "defect", "--defect-site", str(DEFECT_SITE)]),
)
GRID_LABELS = tuple(f"{i}_{c}" for i, _ in INITIALS for c, _ in COINS)
WALK_LABELS = tuple(i for i, _ in INITIALS)

# direct_crosscheck: 128 qubits (two pool blocks of 64) at full scale;
# 66 qubits (still two blocks) at tiny scale.
DIRECT = {
    "full": {"grid_step": 0.4, "sigma0": 1.0, "steps": 500},
    "tiny": {"grid_step": 0.6, "sigma0": 1.0, "steps": 40},
}


@dataclass(frozen=True)
class Workload:
    name: str
    labels: tuple[str, ...]
    # layer whose self time should dominate the traced run
    predicted_layer: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2_grid", GRID_LABELS, "ensemble"),
        Workload("grid_sparse_record", GRID_LABELS, "evolution"),
        Workload("fig1_walks", WALK_LABELS, "observables"),
        Workload("direct_crosscheck", ("direct",), "ensemble"),
    )
}
PRESETS = {"fig2_grid": "fig2", "fig1_walks": "fig1"}


def shrink(run):
    """A preset sub-run's RunConfig cut down to the tiny scale."""
    changes = {"steps": TINY_STEPS, "fit_window": TINY_FIT}
    if run.alpha_step is not None:
        changes.update(alpha_step=TINY_GRID_STEP, beta_step=TINY_GRID_STEP)
    return dataclasses.replace(run, **changes)


def cli_calls(name: str, scale: str, nproc: int, out: Path, labels) -> list[list[str]]:
    """argv lists handed to ``cli.main`` for one iteration, in run order.

    ``labels`` gives the seeded sub-run order; preset workloads apply it
    through the ``expand_runs`` hook instead, because a preset expands
    inside ``cli.main``.
    """
    workers = ["--workers", str(nproc)]
    if name in PRESETS:
        return [["--preset", PRESETS[name], *workers, "--output-dir", str(out)]]
    flags = {f"{i}_{c}": i_flags + c_flags for i, i_flags in INITIALS for c, c_flags in COINS}
    tiny = []
    if scale == "tiny":
        tiny = [
            "--steps", str(TINY_STEPS),
            "--fit-start", str(TINY_FIT[0]), "--fit-end", str(TINY_FIT[1]),
            "--alpha-step", str(TINY_GRID_STEP), "--beta-step", str(TINY_GRID_STEP),
        ]
    return [
        [
            "--mode", "ensemble", *flags[label], *tiny,
            "--record-every", str(SPARSE_RECORD_EVERY[scale]),
            *workers, "--output-dir", str(out / label),
        ]
        for label in labels
    ]


def direct_inputs(qw, scale: str):
    """Grid, initial state and plan of ``direct_crosscheck``."""
    p = DIRECT[scale]
    return (
        qw.ensemble.make_qubit_grid(p["grid_step"], p["grid_step"]),
        qw.InitialStateSpec.gaussian(p["sigma0"]),
        qw.EvolutionPlan(qw.CoinSpec.not_defect(DEFECT_SITE), p["steps"]),
    )


@dataclass(frozen=True)
class SubrunPlan:
    """Size of one sub-run, worked out from its configuration alone."""

    label: str
    qubits: int
    steps: int
    walks: int          # walks actually stepped: 2 basis walks, 1, or one per qubit
    window_sites: int
    active_sites: int   # light-cone sites summed over steps 1..steps

    @property
    def qubit_steps(self) -> int:
        return self.qubits * self.steps


def _subrun_plan(evolution, label, support, coin, steps, qubits, walks) -> SubrunPlan:
    window = evolution.reachable_window(support, coin, steps)
    lo, hi = support
    active = sum(
        min(hi + t, window.j_max) - max(lo - t, window.j_min) + 1
        for t in range(1, steps + 1)
    )
    return SubrunPlan(label, qubits, steps, walks, window.size, active)


def prepare(name: str, scale: str, nproc: int, qw, cli, evolution) -> list[SubrunPlan]:
    """Parse, expand and size every sub-run of one iteration.

    This is the set-up a user pays before any walk starts: parsing the
    configuration, expanding presets and building the qubit grids.
    """
    if name == "direct_crosscheck":
        grid, init, plan = direct_inputs(qw, scale)
        return [
            _subrun_plan(evolution, "direct", init.support(), plan.coin, plan.steps,
                         len(grid), len(grid))
        ]
    plans = []
    argvs = cli_calls(name, scale, nproc, Path("setup-probe"), WORKLOADS[name].labels)
    for argv in argvs:
        config = cli.parse_config(argv)
        for label, run in cli.expand_runs(config):
            if scale == "tiny" and config.preset is not None:
                run = shrink(run)
            if run.mode == "ensemble":
                qubits, walks = len(cli.make_qubit_grid(run.alpha_step, run.beta_step)), 2
            else:
                qubits, walks = 1, 1
            label = label or config.output_dir.name
            plans.append(
                _subrun_plan(evolution, label, run.initial.support(), run.coin, run.steps,
                             qubits, walks)
            )
    return plans


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def csv_values(run_dir: Path) -> dict[str, float]:
    """Checked quantities of one sub-run, read back from its CSV output."""
    (summary,) = _read_rows(run_dir / "summary.csv")
    series = _read_rows(run_dir / "timeseries.csv")
    return {
        "slope": float(summary[0]),
        "final_entropy": float(summary[1]),
        "max_entropy": max(float(row[2]) for row in series),
        "final_sigma": float(series[-1][1]),
    }


def ensemble_values(result) -> dict[str, float]:
    """Checked quantities of an in-memory ensemble result."""
    return {
        "slope": float(result.slope),
        "final_entropy": float(result.mean_entropy[-1]),
        "max_entropy": float(max(result.mean_entropy)),
        "final_sigma": float(result.mean_dispersion[-1]),
    }
