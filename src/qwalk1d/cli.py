"""Command-line front end: run configuration, presets and CSV emission.

A run is either a single walk or a qubit-grid ensemble.  Presets bundle
the standard experiments (three reference initial states, with and
without the reflecting defect, and the envelope-width sweep); a preset
fixes every physics field, so combining it with physics flags is an
error.  All numeric output is CSV with floats printed to 17 significant
digits, which round-trips double precision exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import CoinSpec, InitialShape, InitialStateSpec, QubitParams
from .ensemble import (
    EnsembleResult,
    WalkRecord,
    fit_dispersion_slope,
    make_qubit_grid,
    run_ensemble,
    run_walk,
)
from .evolution import EvolutionPlan

__all__ = [
    "ConfigError",
    "RunConfig",
    "SingleRunOutput",
    "parse_config",
    "canonical_argv",
    "expand_runs",
    "execute",
    "emit_results",
    "main",
]

DEFAULT_STEPS = 3000
DEFAULT_TRUNCATION_RADIUS = 100
DEFAULT_ALPHA = 0.75 * math.pi
DEFAULT_BETA = 0.0
DEFAULT_GRID_STEP = 0.1
PRESET_DEFECT_SITE = -101
PRESET_NAMES = ("fig1", "fig2", "fig3")


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""


@dataclass(frozen=True)
class RunConfig:
    mode: str  # "single" | "ensemble"
    initial: InitialStateSpec
    coin: CoinSpec
    steps: int
    record_every: int
    fit_window: tuple[int, int]
    output_dir: Path
    qubit: QubitParams | None = None          # single mode
    alpha_step: float | None = None           # ensemble mode
    beta_step: float | None = None
    workers: int | None = None
    preset: str | None = None


@dataclass
class SingleRunOutput:
    """One walk's recorded series plus the fitted slope."""

    record: WalkRecord
    slope: float
    fit_window: tuple[int, int]
    norm_deficit: float


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
            "truncation-radius=100, renormalize=false, fit window = last 2000 "
            "steps, output-dir=results."
        ),
    )
    p.add_argument("--preset", choices=PRESET_NAMES, help="bundled experiment; fixes all physics flags")
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


_PHYSICS_FLAGS = (
    "mode",
    "initial",
    "sigma0",
    "truncation_radius",
    "renormalize",
    "alpha",
    "beta",
    "alpha_step",
    "beta_step",
    "coin",
    "defect_site",
    "steps",
    "record_every",
    "fit_start",
    "fit_end",
)


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Parse flags into a validated RunConfig (raises ConfigError)."""
    ns = _build_parser().parse_args(argv)
    output_dir = ns.output_dir if ns.output_dir is not None else Path("results")

    if ns.preset is not None:
        given = [name for name in _PHYSICS_FLAGS if getattr(ns, name) is not None]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ConfigError(
                f"preset '{ns.preset}' fixes all physics fields; remove {flags}"
            )
        steps = DEFAULT_STEPS
        return RunConfig(
            mode="preset",
            initial=InitialStateSpec.local(),
            coin=CoinSpec.hadamard(),
            steps=steps,
            record_every=1,
            fit_window=(steps - 2000, steps),
            output_dir=output_dir,
            workers=ns.workers,
            preset=ns.preset,
        )

    mode = ns.mode or "single"
    steps = ns.steps if ns.steps is not None else DEFAULT_STEPS
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    record_every = ns.record_every if ns.record_every is not None else 1
    if record_every < 1:
        raise ConfigError(f"record-every must be >= 1, got {record_every}")

    initial_kind = ns.initial or "local"
    if initial_kind == "local":
        for flag, value in (
            ("--sigma0", ns.sigma0),
            ("--truncation-radius", ns.truncation_radius),
            ("--renormalize", ns.renormalize),
        ):
            if value is not None:
                raise ConfigError(f"{flag} applies only to --initial gaussian")
        initial = InitialStateSpec.local()
    else:
        if ns.sigma0 is None:
            raise ConfigError("--initial gaussian requires --sigma0")
        radius = (
            ns.truncation_radius
            if ns.truncation_radius is not None
            else DEFAULT_TRUNCATION_RADIUS
        )
        try:
            initial = InitialStateSpec.gaussian(
                ns.sigma0, radius, renormalize=(ns.renormalize == "true")
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    coin_kind = ns.coin or "hadamard"
    if coin_kind == "hadamard":
        if ns.defect_site is not None:
            raise ConfigError("--defect-site applies only to --coin defect")
        coin = CoinSpec.hadamard()
    else:
        if ns.defect_site is None:
            raise ConfigError("--coin defect requires --defect-site")
        coin = CoinSpec.not_defect(ns.defect_site)

    qubit = None
    alpha_step = beta_step = None
    if mode == "single":
        if ns.alpha_step is not None or ns.beta_step is not None:
            raise ConfigError("--alpha-step/--beta-step apply only to --mode ensemble")
        try:
            qubit = QubitParams(
                ns.alpha if ns.alpha is not None else DEFAULT_ALPHA,
                ns.beta if ns.beta is not None else DEFAULT_BETA,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        if ns.alpha is not None or ns.beta is not None:
            raise ConfigError("--alpha/--beta apply only to --mode single")
        alpha_step = ns.alpha_step if ns.alpha_step is not None else DEFAULT_GRID_STEP
        beta_step = ns.beta_step if ns.beta_step is not None else DEFAULT_GRID_STEP
        if alpha_step <= 0 or beta_step <= 0:
            raise ConfigError("grid steps must be positive")

    fit_start = ns.fit_start if ns.fit_start is not None else max(0, steps - 2000)
    fit_end = ns.fit_end if ns.fit_end is not None else steps
    if not (0 <= fit_start < fit_end <= steps):
        raise ConfigError(
            f"fit window [{fit_start}, {fit_end}] must satisfy 0 <= start < end <= steps"
        )
    try:  # the fit's own rule, applied to the record schedule before any compute
        times = EvolutionPlan(coin, steps, record_every).record_times()
        fit_dispersion_slope(times, times, (fit_start, fit_end))
    except ValueError as exc:
        raise ConfigError(f"{exc} at --record-every {record_every}") from exc
    if ns.workers is not None and ns.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {ns.workers}")

    return RunConfig(
        mode=mode,
        initial=initial,
        coin=coin,
        steps=steps,
        record_every=record_every,
        fit_window=(fit_start, fit_end),
        output_dir=output_dir,
        qubit=qubit,
        alpha_step=alpha_step,
        beta_step=beta_step,
        workers=ns.workers,
        preset=None,
    )


def canonical_argv(config: RunConfig) -> list[str]:
    """Flag list that parses back to exactly this config."""
    if config.preset is not None:
        argv = ["--preset", config.preset]
    else:
        argv = ["--mode", config.mode, "--initial", config.initial.shape.value]
        if config.initial.shape is InitialShape.GAUSSIAN:
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
        argv += ["--coin", config.coin.kind.value]
        if config.coin.defect_site is not None:
            argv += ["--defect-site", str(config.coin.defect_site)]
        argv += [
            "--steps", str(config.steps),
            "--record-every", str(config.record_every),
            "--fit-start", str(config.fit_window[0]),
            "--fit-end", str(config.fit_window[1]),
        ]
    if config.workers is not None:
        argv += ["--workers", str(config.workers)]
    argv += ["--output-dir", str(config.output_dir)]
    return argv


def _preset_fig1(config: RunConfig) -> list[tuple[str, RunConfig]]:
    runs = []
    for label, init in _reference_initials():
        runs.append(
            (
                label,
                RunConfig(
                    mode="single",
                    initial=init,
                    coin=CoinSpec.hadamard(),
                    steps=DEFAULT_STEPS,
                    record_every=1,
                    fit_window=(DEFAULT_STEPS - 2000, DEFAULT_STEPS),
                    output_dir=config.output_dir / label,
                    qubit=QubitParams(DEFAULT_ALPHA, DEFAULT_BETA),
                    workers=config.workers,
                ),
            )
        )
    return runs


def _preset_fig2(config: RunConfig) -> list[tuple[str, RunConfig]]:
    runs = []
    for init_label, init in _reference_initials():
        for coin_label, coin in (
            ("hadamard", CoinSpec.hadamard()),
            ("defect", CoinSpec.not_defect(PRESET_DEFECT_SITE)),
        ):
            label = f"{init_label}_{coin_label}"
            runs.append((label, _ensemble_config(config, label, init, coin)))
    return runs


def _preset_fig3(config: RunConfig) -> list[tuple[str, RunConfig]]:
    runs = []
    coin = CoinSpec.not_defect(PRESET_DEFECT_SITE)
    for sigma0 in range(0, 11):
        if sigma0 == 0:
            init = InitialStateSpec.local()
        else:
            init = InitialStateSpec.gaussian(float(sigma0), DEFAULT_TRUNCATION_RADIUS)
        label = f"sigma0_{sigma0}"
        runs.append((label, _ensemble_config(config, label, init, coin)))
    return runs


def _reference_initials() -> list[tuple[str, InitialStateSpec]]:
    return [
        ("local", InitialStateSpec.local()),
        ("gaussian_sigma1", InitialStateSpec.gaussian(1.0, DEFAULT_TRUNCATION_RADIUS)),
        ("gaussian_sigma10", InitialStateSpec.gaussian(10.0, DEFAULT_TRUNCATION_RADIUS)),
    ]


def _ensemble_config(
    config: RunConfig, label: str, init: InitialStateSpec, coin: CoinSpec
) -> RunConfig:
    return RunConfig(
        mode="ensemble",
        initial=init,
        coin=coin,
        steps=DEFAULT_STEPS,
        record_every=1,
        fit_window=(DEFAULT_STEPS - 2000, DEFAULT_STEPS),
        output_dir=config.output_dir / label,
        alpha_step=DEFAULT_GRID_STEP,
        beta_step=DEFAULT_GRID_STEP,
        workers=config.workers,
    )


def expand_runs(config: RunConfig) -> list[tuple[str, RunConfig]]:
    """Concrete runs behind a config: itself, or the preset's sub-runs."""
    if config.preset is None:
        return [("", config)]
    if config.preset == "fig1":
        return _preset_fig1(config)
    if config.preset == "fig2":
        return _preset_fig2(config)
    if config.preset == "fig3":
        return _preset_fig3(config)
    raise ConfigError(f"unknown preset {config.preset!r}")


def execute(config: RunConfig) -> SingleRunOutput | EnsembleResult:
    """Run one concrete (non-preset) configuration."""
    plan = EvolutionPlan(config.coin, config.steps, config.record_every)
    if config.mode == "single":
        assert config.qubit is not None
        record = run_walk(config.qubit, config.initial, plan)
        slope = fit_dispersion_slope(record.times, record.sigma, config.fit_window)
        return SingleRunOutput(
            record=record,
            slope=slope,
            fit_window=config.fit_window,
            norm_deficit=config.initial.norm_deficit(),
        )
    grid = make_qubit_grid(config.alpha_step, config.beta_step)
    return run_ensemble(
        grid,
        config.initial,
        plan,
        fit_window=config.fit_window,
        workers=config.workers,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_results(
    result: SingleRunOutput | EnsembleResult,
    output_dir: Path,
) -> list[Path]:
    """Write distribution, time-series and summary CSV files.

    Every site of the final window is emitted, including exact zeros
    inside the light cone, so the files are rectangular and directly
    plottable.  Rows are ordered by j (distributions) or t (series).
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if isinstance(result, SingleRunOutput):
        record = result.record
        dist = record.final_distribution()
        final_t = int(record.times[-1])
        series_header = "t,sigma,entropy,norm"
        series_rows = (
            f"{t},{_fmt(s)},{_fmt(e)},{_fmt(n)}"
            for t, s, e, n in zip(record.times, record.sigma, record.entropy, record.norm)
        )
        slope = result.slope
        final_entropy = float(record.entropy[-1])
        qubit_count = 1
        norm_deficit = result.norm_deficit
    else:
        dist = result.mean_distribution
        final_t = int(result.times[-1])
        series_header = "t,mean_sigma,mean_entropy"
        series_rows = (
            f"{t},{_fmt(s)},{_fmt(e)}"
            for t, s, e in zip(result.times, result.mean_dispersion, result.mean_entropy)
        )
        slope = result.slope
        final_entropy = float(result.mean_entropy[-1])
        qubit_count = result.qubit_count
        norm_deficit = result.norm_deficit

    dist_path = output_dir / f"distribution_t{final_t}.csv"
    rows = [
        f"{j},{_fmt(pu)},{_fmt(pd)},{_fmt(pt)}"
        for j, pu, pd, pt in zip(dist.sites(), dist.p_up, dist.p_down, dist.p_total)
    ]
    _write_csv(dist_path, "j,p_up,p_down,p_total", rows)
    written.append(dist_path)

    series_path = output_dir / "timeseries.csv"
    _write_csv(series_path, series_header, series_rows)
    written.append(series_path)

    summary_path = output_dir / "summary.csv"
    summary_row = f"{_fmt(slope)},{_fmt(final_entropy)},{qubit_count},{_fmt(norm_deficit)}"
    _write_csv(summary_path, "slope,final_entropy,qubit_count,norm_deficit", [summary_row])
    written.append(summary_path)
    return written


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_manifest(config: RunConfig, output_dir: Path) -> Path:
    path = Path(output_dir) / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"argv": canonical_argv(config)}, fh, indent=2)
        fh.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        _write_manifest(config, config.output_dir)
        sigma_summary: list[tuple[int, EnsembleResult]] = []
        for label, run in expand_runs(config):
            result = execute(run)
            run_dir = run.output_dir
            emit_results(result, run_dir)
            if label:
                _write_manifest(run, run_dir)
            if config.preset == "fig3" and isinstance(result, EnsembleResult):
                sigma0 = 0 if run.initial.shape is InitialShape.LOCAL else int(run.initial.sigma0)
                sigma_summary.append((sigma0, result))
            print(f"{label or 'run'}: wrote results to {run_dir}", flush=True)
        if sigma_summary:
            rows = [
                f"{sigma0},{_fmt(res.slope)},{_fmt(float(res.mean_entropy[-1]))},"
                f"{res.qubit_count},{_fmt(res.norm_deficit)}"
                for sigma0, res in sigma_summary
            ]
            _write_csv(
                config.output_dir / "fig3_summary.csv",
                "sigma0,slope,final_entropy,qubit_count,norm_deficit",
                rows,
            )
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
