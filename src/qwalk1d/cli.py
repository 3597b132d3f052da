"""Command-line front end: run configuration, presets and CSV emission.

A run is either a single walk or a qubit-grid ensemble.  Presets bundle
the standard experiments (three reference initial states, with and
without the reflecting defect, and the envelope-width sweep); a preset
fixes every physics field, so combining it with physics flags is an
error.  A preset is a table of flag lists (``PRESETS``): each sub-run is
built and validated by ``parse_config`` like any command line, with the
library's own pre-run checks (``ensemble.check_run``).  ``execute``
returns the library's ``WalkRecord`` or ``EnsembleResult``.  All numeric
output is CSV written by ``_write_csv``, the one place the number format
lives: integers as they are, floats to 17 significant digits, which
round-trips double precision exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .core import DEFAULT_TRUNCATION_RADIUS, CoinSpec, InitialStateSpec, QubitParams
from .ensemble import (
    EnsembleResult,
    WalkRecord,
    check_run,
    default_fit_window,
    make_qubit_grid,
    run_ensemble,
    run_walk,
)
from .evolution import EvolutionPlan
from .observables import distribution

__all__ = [
    "ConfigError",
    "RunConfig",
    "PresetConfig",
    "parse_config",
    "canonical_argv",
    "expand_runs",
    "execute",
    "emit_results",
    "main",
]

DEFAULT_STEPS = 3000
DEFAULT_ALPHA = 0.75 * math.pi
DEFAULT_BETA = 0.0
DEFAULT_GRID_STEP = 0.1
PRESET_DEFECT_SITE = -101

_INITIALS = (
    ("local", ["--initial", "local"]),
    ("gaussian_sigma1", ["--initial", "gaussian", "--sigma0", "1.0"]),
    ("gaussian_sigma10", ["--initial", "gaussian", "--sigma0", "10.0"]),
)
_DEFECT = ["--coin", "defect", "--defect-site", str(PRESET_DEFECT_SITE)]
_COINS = (("hadamard", ["--coin", "hadamard"]), ("defect", _DEFECT))
# sigma0 = 0, 1, ..., 10, where 0 is the single-site state
_SIGMA0_SWEEP = [["--initial", "local"]] + [
    ["--initial", "gaussian", "--sigma0", str(float(s))] for s in range(1, 11)
]
# preset name -> its sub-runs as (label, physics flags), in run order;
# every flag left out takes its parse_config default
PRESETS = {
    "fig1": [(label, ["--mode", "single", *init]) for label, init in _INITIALS],
    "fig2": [
        (f"{init_label}_{coin_label}", ["--mode", "ensemble", *init, *coin])
        for init_label, init in _INITIALS
        for coin_label, coin in _COINS
    ],
    "fig3": [
        (f"sigma0_{s}", ["--mode", "ensemble", *init, *_DEFECT])
        for s, init in enumerate(_SIGMA0_SWEEP)
    ],
}


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One concrete walk or ensemble, every field checked by ``parse_config``."""

    initial: InitialStateSpec
    coin: CoinSpec
    steps: int
    record_every: int
    fit_window: tuple[int, int]
    output_dir: Path
    qubit: QubitParams | None = None          # single mode
    alpha_step: float | None = None           # ensemble mode
    beta_step: float | None = None
    # a class-level None, not a field: a concrete run has no preset, and callers
    # (perfbench among them) read ``.preset`` on every config parse_config returns
    preset: ClassVar[None] = None

    @property
    def mode(self) -> str:
        """``"single"`` when a qubit is set, else ``"ensemble"``."""
        return "single" if self.qubit is not None else "ensemble"


@dataclass(frozen=True)
class PresetConfig:
    """A bundled experiment: its name in ``PRESETS`` and the directory of its sub-runs."""

    preset: str
    output_dir: Path


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qwalk1d",
        description=(
            "Discrete-time quantum walk on a line: single walks or qubit-grid "
            "ensembles, Hadamard coin with an optional spin-flip defect."
        ),
        epilog=(
            "Defaults: mode=single, initial=local, coin=hadamard, steps=3000, "
            "record-every=1, alpha=3*pi/4, beta=0, alpha-step=beta-step=0.1, "
            f"truncation-radius={DEFAULT_TRUNCATION_RADIUS}, renormalize=false, "
            "fit window = last 2000 steps, output-dir=results."
        ),
    )
    p.add_argument("--preset", choices=PRESETS, help="bundled experiment; fixes all physics flags")
    p.add_argument("--mode", choices=("single", "ensemble"))
    p.add_argument("--initial", choices=("local", "gaussian"))
    p.add_argument("--sigma0", type=float, help="Gaussian envelope width (lattice units)")
    p.add_argument("--truncation-radius", type=int, help="Gaussian support half-width in sites")
    p.add_argument("--renormalize", choices=("true", "false"), help="rescale the truncated envelope to unit norm")
    p.add_argument("--alpha", type=float, help="Bloch polar angle in [0, pi] (single mode)")
    p.add_argument("--beta", type=float, help="Bloch azimuthal angle in [0, 2*pi] (single mode)")
    p.add_argument("--alpha-step", type=float, help="grid step over alpha (ensemble mode)")
    p.add_argument("--beta-step", type=float, help="grid step over beta (ensemble mode)")
    p.add_argument("--coin", choices=("hadamard", "defect"))
    p.add_argument("--defect-site", type=int, help="lattice site of the spin-flip defect")
    p.add_argument("--steps", type=int)
    p.add_argument("--record-every", type=int, help="stride between recorded observable rows")
    p.add_argument("--fit-start", type=int, help="first time step of the dispersion fit window")
    p.add_argument("--fit-end", type=int, help="last time step of the dispersion fit window")
    p.add_argument("--workers", type=int, help="accepted but unused: every run uses one process")
    p.add_argument("--output-dir", type=Path)
    return p


_PARSER = _build_parser()  # parse_args leaves it unchanged, so every call shares it


# flags a preset leaves open; every other flag sets physics the preset fixes
_OPERATIONAL_FLAGS = ("preset", "workers", "output_dir")


def parse_config(argv: list[str] | None = None) -> RunConfig | PresetConfig:
    """Parse flags into a validated RunConfig or PresetConfig (raises ConfigError)."""
    ns = _PARSER.parse_args(argv)
    output_dir = ns.output_dir if ns.output_dir is not None else Path("results")

    if ns.workers is not None and ns.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {ns.workers}")

    if ns.preset is not None:
        given = [
            name for name, value in vars(ns).items()
            if name not in _OPERATIONAL_FLAGS and value is not None
        ]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ConfigError(
                f"preset '{ns.preset}' fixes all physics fields; remove {flags}"
            )
        return PresetConfig(ns.preset, output_dir)

    mode = ns.mode or "single"
    gaussian = ns.initial == "gaussian"
    if not gaussian:
        for flag, value in (
            ("--sigma0", ns.sigma0),
            ("--truncation-radius", ns.truncation_radius),
            ("--renormalize", ns.renormalize),
        ):
            if value is not None:
                raise ConfigError(f"{flag} applies only to --initial gaussian")
    elif ns.sigma0 is None:
        raise ConfigError("--initial gaussian requires --sigma0")
    defect = ns.coin == "defect"
    if defect and ns.defect_site is None:
        raise ConfigError("--coin defect requires --defect-site")
    if not defect and ns.defect_site is not None:
        raise ConfigError("--defect-site applies only to --coin defect")
    if mode == "single" and (ns.alpha_step is not None or ns.beta_step is not None):
        raise ConfigError("--alpha-step/--beta-step apply only to --mode ensemble")
    if mode == "ensemble" and (ns.alpha is not None or ns.beta is not None):
        raise ConfigError("--alpha/--beta apply only to --mode single")

    steps = _or_default(ns.steps, DEFAULT_STEPS)
    record_every = _or_default(ns.record_every, 1)
    fit_start, fit_end = default_fit_window(steps)
    fit_window = (_or_default(ns.fit_start, fit_start), _or_default(ns.fit_end, fit_end))
    qubit = None
    alpha_step = beta_step = None
    try:  # every value is checked by the type that owns it, before any compute
        if gaussian:
            radius = _or_default(ns.truncation_radius, DEFAULT_TRUNCATION_RADIUS)
            initial = InitialStateSpec.gaussian(ns.sigma0, radius, ns.renormalize == "true")
        else:
            initial = InitialStateSpec.local()
        coin = CoinSpec.not_defect(ns.defect_site) if defect else CoinSpec.hadamard()
        check_run(initial, EvolutionPlan(coin, steps, record_every), fit_window)
        if mode == "single":
            alpha, beta = _or_default(ns.alpha, DEFAULT_ALPHA), _or_default(ns.beta, DEFAULT_BETA)
            qubit = QubitParams(alpha, beta)
        else:
            alpha_step = _or_default(ns.alpha_step, DEFAULT_GRID_STEP)
            beta_step = _or_default(ns.beta_step, DEFAULT_GRID_STEP)
            make_qubit_grid(alpha_step, beta_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        initial=initial,
        coin=coin,
        steps=steps,
        record_every=record_every,
        fit_window=fit_window,
        output_dir=output_dir,
        qubit=qubit,
        alpha_step=alpha_step,
        beta_step=beta_step,
    )


def _or_default(value, default):
    return default if value is None else value


def canonical_argv(config: RunConfig | PresetConfig) -> list[str]:
    """Flag list that parses back to exactly this config."""
    if config.preset is not None:
        argv = ["--preset", config.preset]
    else:
        gaussian = config.initial.sigma0 is not None
        argv = ["--mode", config.mode, "--initial", "gaussian" if gaussian else "local"]
        if gaussian:
            argv += [
                "--sigma0", repr(config.initial.sigma0),
                "--truncation-radius", str(config.initial.truncation_radius),
                "--renormalize", "true" if config.initial.renormalize else "false",
            ]
        if config.mode == "single":
            assert config.qubit is not None
            argv += ["--alpha", repr(config.qubit.alpha), "--beta", repr(config.qubit.beta)]
        else:
            argv += ["--alpha-step", repr(config.alpha_step), "--beta-step", repr(config.beta_step)]
        defect = config.coin.defect_site is not None
        argv += ["--coin", "defect" if defect else "hadamard"]
        if defect:
            argv += ["--defect-site", str(config.coin.defect_site)]
        argv += [
            "--steps", str(config.steps),
            "--record-every", str(config.record_every),
            "--fit-start", str(config.fit_window[0]),
            "--fit-end", str(config.fit_window[1]),
        ]
    argv += ["--output-dir", str(config.output_dir)]
    return argv


def expand_runs(config: RunConfig | PresetConfig) -> list[tuple[str, RunConfig]]:
    """Concrete runs behind a config: itself, or the preset's sub-runs.

    A sub-run is its preset's physics flags plus its own output directory,
    parsed and checked like any command line.
    """
    if config.preset is None:
        return [("", config)]
    return [
        (label, parse_config([*flags, "--output-dir", str(config.output_dir / label)]))
        for label, flags in PRESETS[config.preset]
    ]


def execute(config: RunConfig) -> WalkRecord | EnsembleResult:
    """Run one concrete (non-preset) configuration."""
    plan = EvolutionPlan(config.coin, config.steps, config.record_every)
    if config.mode == "single":
        return run_walk(config.qubit, config.initial, plan, fit_window=config.fit_window)
    grid = make_qubit_grid(config.alpha_step, config.beta_step)
    return run_ensemble(grid, config.initial, plan, fit_window=config.fit_window)


_SUMMARY_HEADER = "slope,final_entropy,qubit_count,norm_deficit"


def emit_results(
    result: WalkRecord | EnsembleResult,
    output_dir: Path,
) -> None:
    """Write distribution, time-series and summary CSV files.

    Every site of the final window is emitted, including exact zeros
    inside the light cone, so the files are rectangular and directly
    plottable.  Rows are ordered by j (distributions) or t (series).
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(result, WalkRecord):
        dist, times = distribution(result.final_state), result.times
        series = ("t,sigma,entropy,norm", times, result.sigma, result.entropy, result.norm)
    else:
        dist, times = result.mean_distribution, result.times
        series = ("t,mean_sigma,mean_entropy", times, result.mean_dispersion, result.mean_entropy)
    _write_csv(
        output_dir / f"distribution_t{int(times[-1])}.csv",
        "j,p_up,p_down,p_total", dist.window.sites(), dist.p_up, dist.p_down, dist.p_total,
    )
    _write_csv(output_dir / "timeseries.csv", *series)
    _write_csv(output_dir / "summary.csv", _SUMMARY_HEADER, *([value] for value in _summary(result)))


def _summary(result: WalkRecord | EnsembleResult) -> tuple:
    """The values of ``_SUMMARY_HEADER`` for one run."""
    if isinstance(result, WalkRecord):
        return result.slope, result.entropy[-1], 1, result.norm_deficit
    return result.slope, result.mean_entropy[-1], result.qubit_count, result.norm_deficit


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write equal-length ``columns`` under ``header``, the one CSV number format.

    Each column's format is picked once, by dtype: integers as they are,
    floats to 17 significant digits, which round-trips double precision
    exactly.  Rows are formatted and written one at a time.
    """
    columns = [np.asarray(column) for column in columns]
    row = ",".join("{}" if c.dtype.kind in "iu" else "{:.17g}" for c in columns) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(row.format(*cells) for cells in zip(*(c.tolist() for c in columns)))


def _write_manifest(config: RunConfig | PresetConfig, output_dir: Path) -> None:
    path = Path(output_dir) / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"argv": canonical_argv(config)}, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    try:  # a ConfigError is a ValueError, so a bad configuration exits here too
        config = parse_config(argv)
        _write_manifest(config, config.output_dir)
        sigma_summary = []  # fig3: sigma0, then the run's summary values
        for label, run in expand_runs(config):
            result = execute(run)
            run_dir = run.output_dir
            emit_results(result, run_dir)
            if label:
                _write_manifest(run, run_dir)
            if config.preset == "fig3":
                sigma0 = 0 if run.initial.sigma0 is None else int(run.initial.sigma0)
                sigma_summary.append((sigma0, *_summary(result)))
            print(f"{label or 'run'}: wrote results to {run_dir}", flush=True)
        if sigma_summary:
            _write_csv(
                config.output_dir / "fig3_summary.csv",
                "sigma0," + _SUMMARY_HEADER,
                *zip(*sigma_summary),
            )
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
