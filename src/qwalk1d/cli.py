"""Command-line front end: run configuration, presets and CSV emission.

A run is either a single walk or a qubit-grid ensemble.  Presets bundle
the standard experiments (three reference initial states, with and
without the reflecting defect, and the envelope-width sweep); a preset
fixes every physics field, so combining it with physics flags is an
error.  A preset is a table of flag lists (``PRESETS``): each sub-run is
built and validated by ``parse_config`` like any command line, with the
library's own pre-run checks (``ensemble.check_run``, which fills a fit
bound left out).  Every physics flag is one row of ``_FLAGS``: parser,
default, applies-only-to rule, whether its choice requires it (no
default) and the manifest's flag list.  ``emit_results`` writes what
``execute`` returns as CSV and returns its summary row; ``_write_csv``
is the one place the number format lives: integers as they are, floats
to 17 significant digits, which round-trip doubles exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from .core import CoinSpec, InitialStateSpec, QubitParams, _integer
from .ensemble import EnsembleResult, check_run, make_qubit_grid, run_ensemble, run_walk
from .evolution import EvolutionPlan

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


class _Flag(NamedTuple):
    """One physics flag: what it parses, its default and the choice it needs."""

    kind: type | tuple[str, ...]  # the parser's type, or the flag's choices
    default: object  # None: the flag has no default
    only: tuple[str, str] | None  # (flag, choice): the flag applies only under that choice
    help: str


_GAUSSIAN, _SINGLE, _ENSEMBLE = ("initial", "gaussian"), ("mode", "single"), ("mode", "ensemble")
# every physics flag, by its parser dest, in parser order, which is also the
# manifest's; a preset fixes all of them
_FLAGS = {
    "mode": _Flag(("single", "ensemble"), "single", None, "one walk, or an ensemble over a qubit grid"),
    "initial": _Flag(("local", "gaussian"), "local", None, "position envelope of the initial state"),
    "sigma0": _Flag(float, None, _GAUSSIAN, "Gaussian envelope width (lattice units)"),
    "alpha": _Flag(float, 0.75 * math.pi, _SINGLE, "Bloch polar angle in [0, pi]"),
    "beta": _Flag(float, 0.0, _SINGLE, "Bloch azimuthal angle in [0, 2*pi]"),
    "alpha_step": _Flag(float, 0.1, _ENSEMBLE, "grid step over alpha"),
    "beta_step": _Flag(float, 0.1, _ENSEMBLE, "grid step over beta"),
    "coin": _Flag(("hadamard", "defect"), "hadamard", None, "Hadamard coin, or with a spin-flip defect"),
    "defect_site": _Flag(int, None, ("coin", "defect"), "lattice site of the spin-flip defect"),
    "steps": _Flag(int, 3000, None, "number of time steps"),
    "record_every": _Flag(int, 1, None, "stride between recorded observable rows"),
    "fit_start": _Flag(int, None, None, "first step of the dispersion fit; default max(0, steps - 2000)"),
    "fit_end": _Flag(int, None, None, "last step of the dispersion fit; default steps"),
}

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


def _option(name: str) -> str:
    """The command-line spelling of the parser dest ``name``."""
    return "--" + name.replace("_", "-")


def _applies(flag: _Flag, values: dict) -> bool:
    """Whether ``flag`` applies under the flag ``values`` that precede it in ``_FLAGS``."""
    return flag.only is None or values[flag.only[0]] == flag.only[1]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qwalk1d",
        description=(
            "Discrete-time quantum walk on a line: single walks or qubit-grid "
            "ensembles, Hadamard coin with an optional spin-flip defect."
        ),
    )
    p.add_argument("--preset", choices=PRESETS, help="bundled experiment; fixes all physics flags")
    for name, flag in _FLAGS.items():
        text = flag.help if flag.default is None else f"{flag.help}; default {flag.default}"
        if flag.only is not None:
            text += f"; only with {_option(flag.only[0])} {flag.only[1]}"
        kind = {"choices": flag.kind} if isinstance(flag.kind, tuple) else {"type": flag.kind}
        p.add_argument(_option(name), **kind, help=text)
    p.add_argument("--workers", type=int, help="accepted but unused: every run uses one process")
    p.add_argument("--output-dir", type=Path, default=Path("results"), help="default %(default)s")
    return p


_PARSER = _build_parser()  # parse_args leaves it unchanged, so every call shares it


def parse_config(argv: list[str] | None = None) -> RunConfig | PresetConfig:
    """Parse flags into a validated RunConfig or PresetConfig (raises ConfigError)."""
    ns = _PARSER.parse_args(argv)
    if ns.workers is not None:  # run_ensemble's rule, checked before a preset returns
        try:
            _integer(ns.workers, "workers", 1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    given = {name: value for name in _FLAGS if (value := getattr(ns, name)) is not None}

    if ns.preset is not None:
        if given:
            flags = ", ".join(map(_option, given))
            raise ConfigError(f"preset '{ns.preset}' fixes all physics fields; remove {flags}")
        return PresetConfig(ns.preset, ns.output_dir)

    values = {}  # every flag's value: given, else its default; None where it does not apply
    for name, flag in _FLAGS.items():
        if _applies(flag, values):
            values[name] = given.get(name, flag.default)
        elif name in given:
            raise ConfigError(f"{_option(name)} applies only to {_option(flag.only[0])} {flag.only[1]}")
        else:
            values[name] = None
    for name, flag in _FLAGS.items():  # a choice's flag without a default must be given
        if flag.only is not None and values[name] is None and _applies(flag, values):
            raise ConfigError(f"{_option(flag.only[0])} {flag.only[1]} requires {_option(name)}")

    steps, record_every = values["steps"], values["record_every"]
    try:  # every value is checked by the type that owns it, before any compute
        initial = InitialStateSpec(values["sigma0"])
        coin = CoinSpec(values["defect_site"])
        plan = EvolutionPlan(coin, steps, record_every)
        _, fit_window = check_run(initial, plan, (values["fit_start"], values["fit_end"]))
        qubit = QubitParams(values["alpha"], values["beta"]) if values["mode"] == "single" else None
        if qubit is None:
            make_qubit_grid(values["alpha_step"], values["beta_step"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        initial=initial,
        coin=coin,
        steps=steps,
        record_every=record_every,
        fit_window=fit_window,
        output_dir=ns.output_dir,
        qubit=qubit,
        alpha_step=values["alpha_step"],
        beta_step=values["beta_step"],
    )


def canonical_argv(config: RunConfig | PresetConfig) -> list[str]:
    """Flag list that parses back to exactly this config."""
    if config.preset is not None:
        argv = ["--preset", config.preset]
    else:
        initial, coin, fit_window = config.initial, config.coin, config.fit_window
        values = {
            "mode": config.mode,
            "initial": "local" if initial.sigma0 is None else "gaussian",
            "sigma0": initial.sigma0,
            "alpha": getattr(config.qubit, "alpha", None),
            "beta": getattr(config.qubit, "beta", None),
            "alpha_step": config.alpha_step,
            "beta_step": config.beta_step,
            "coin": "hadamard" if coin.defect_site is None else "defect",
            "defect_site": coin.defect_site,
            "steps": config.steps,
            "record_every": config.record_every,
            "fit_start": fit_window[0],
            "fit_end": fit_window[1],
        }
        argv = []
        for name, flag in _FLAGS.items():
            if values[name] is not None and _applies(flag, values):
                argv += [_option(name), str(values[name])]
    return argv + ["--output-dir", str(config.output_dir)]


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


def execute(config: RunConfig) -> EnsembleResult:
    """Run one concrete (non-preset) configuration."""
    plan = EvolutionPlan(config.coin, config.steps, config.record_every)
    if config.mode == "single":
        return run_walk(config.qubit, config.initial, plan, fit_window=config.fit_window)
    grid = make_qubit_grid(config.alpha_step, config.beta_step)
    return run_ensemble(grid, config.initial, plan, fit_window=config.fit_window)


_SUMMARY_HEADER = "slope,final_entropy,qubit_count,norm_deficit"


def emit_results(result: EnsembleResult, output_dir: Path) -> tuple:
    """Write distribution, time-series and summary CSV files; return the summary row.

    Every site of the final window is emitted, including exact zeros
    inside the light cone, so the files are rectangular and directly
    plottable.  Rows are ordered by j (distributions) or t (series).  A
    single walk (one qubit, with a norm series) writes ``t,sigma,entropy,norm``,
    every other run ``t,mean_sigma,mean_entropy``.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    dist, times = result.mean_distribution, result.times
    columns = (times, result.mean_dispersion, result.mean_entropy)
    if result.qubit_count == 1 and result.norm is not None:
        series = ("t,sigma,entropy,norm", *columns, result.norm)
    else:
        series = ("t,mean_sigma,mean_entropy", *columns)
    summary = (result.slope, result.mean_entropy[-1], result.qubit_count, result.norm_deficit)
    _write_csv(
        output_dir / f"distribution_t{int(times[-1])}.csv",
        "j,p_up,p_down,p_total", dist.window.sites(), dist.p_up, dist.p_down, dist.p_total,
    )
    _write_csv(output_dir / "timeseries.csv", *series)
    _write_csv(output_dir / "summary.csv", _SUMMARY_HEADER, *([value] for value in summary))
    return summary


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
        sigma_summary = []  # fig3: sigma0, then the run's summary row
        for label, run in expand_runs(config):
            run_dir = run.output_dir
            summary = emit_results(execute(run), run_dir)
            if label:
                _write_manifest(run, run_dir)
            if config.preset == "fig3":
                sigma0 = 0 if run.initial.sigma0 is None else int(run.initial.sigma0)
                sigma_summary.append((sigma0, *summary))
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
