import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qwalk1d import CoinSpec, InitialStateSpec, QubitParams, cli
from qwalk1d.cli import (
    _FLAGS,
    ConfigError,
    PresetConfig,
    RunConfig,
    _build_parser,
    _write_csv,
    canonical_argv,
    emit_results,
    execute,
    expand_runs,
    main,
    parse_config,
)


# one value for every flag a preset fixes, in the parser's order
PHYSICS_FLAG_VALUES = [
    ("--mode", "ensemble"),
    ("--initial", "gaussian"),
    ("--sigma0", "2"),
    ("--alpha", "1"),
    ("--beta", "1"),
    ("--alpha-step", "0.5"),
    ("--beta-step", "0.5"),
    ("--coin", "defect"),
    ("--defect-site", "3"),
    ("--steps", "100"),
    ("--record-every", "2"),
    ("--fit-start", "10"),
    ("--fit-end", "90"),
]


INITIAL_LABELS = ["local", "gaussian_sigma1", "gaussian_sigma10"]
PRESET_LABELS = {
    "fig1": INITIAL_LABELS,
    "fig2": [f"{i}_{c}" for i in INITIAL_LABELS for c in ("hadamard", "defect")],
    "fig3": [f"sigma0_{s}" for s in range(0, 11)],
}


CI_RUN = "--steps 10 --record-every 3 --fit-start 0 --fit-end 10"
# configs whose manifests are pinned: the default, the three of the CI's
# installed-package step, and the presets (their sub-runs are added)
PINNED_ARGS = {
    "default": "",
    "ci_single": f"{CI_RUN} --output-dir single",
    "ci_ensemble": f"{CI_RUN} --mode ensemble --alpha-step 0.5 --beta-step 0.5 --output-dir ensemble",
    "ci_gaussian": f"{CI_RUN} --initial gaussian --sigma0 2 --output-dir gaussian",
    "fig1": "--preset fig1 --output-dir out",
    "fig2": "--preset fig2 --output-dir out",
    "fig3": "--preset fig3 --output-dir out",
}
# canonical_argv of each config and preset sub-run, flag for flag, as every
# manifest.json holds it; the sub-runs differ only in these fragments
_QUBIT = "--alpha 2.356194490192345 --beta 0.0"
_GRID = "--alpha-step 0.1 --beta-step 0.1"
_HADAMARD = "--coin hadamard"
_DEFECT = "--coin defect --defect-site -101"
_FULL = "--steps 3000 --record-every 1 --fit-start 1000 --fit-end 3000"


def _gaussian(sigma0: str) -> str:
    return f"--initial gaussian --sigma0 {sigma0}"


PINNED_ARGV = {
    "default": f"--mode single --initial local {_QUBIT} {_HADAMARD} {_FULL} --output-dir results",
    "ci_single": f"--mode single --initial local {_QUBIT} {_HADAMARD} {CI_RUN} --output-dir single",
    "ci_ensemble": (
        f"--mode ensemble --initial local --alpha-step 0.5 --beta-step 0.5 {_HADAMARD} {CI_RUN} "
        "--output-dir ensemble"
    ),
    "ci_gaussian": (
        "--mode single --initial gaussian --sigma0 2.0 "
        f"{_QUBIT} {_HADAMARD} {CI_RUN} --output-dir gaussian"
    ),
    "fig1": "--preset fig1 --output-dir out",
    "fig1/local": f"--mode single --initial local {_QUBIT} {_HADAMARD} {_FULL} --output-dir out/local",
    **{
        f"fig1/gaussian_sigma{s}": (
            f"--mode single {_gaussian(f'{s}.0')} {_QUBIT} {_HADAMARD} {_FULL} "
            f"--output-dir out/gaussian_sigma{s}"
        )
        for s in (1, 10)
    },
    "fig2": "--preset fig2 --output-dir out",
    **{
        f"fig2/local_{c}": (
            f"--mode ensemble --initial local {_GRID} {coin} {_FULL} --output-dir out/local_{c}"
        )
        for c, coin in (("hadamard", _HADAMARD), ("defect", _DEFECT))
    },
    **{
        f"fig2/gaussian_sigma{s}_{c}": (
            f"--mode ensemble {_gaussian(f'{s}.0')} {_GRID} {coin} {_FULL} "
            f"--output-dir out/gaussian_sigma{s}_{c}"
        )
        for s in (1, 10)
        for c, coin in (("hadamard", _HADAMARD), ("defect", _DEFECT))
    },
    "fig3": "--preset fig3 --output-dir out",
    "fig3/sigma0_0": f"--mode ensemble --initial local {_GRID} {_DEFECT} {_FULL} --output-dir out/sigma0_0",
    **{
        f"fig3/sigma0_{s}": (
            f"--mode ensemble {_gaussian(f'{s}.0')} {_GRID} {_DEFECT} {_FULL} --output-dir out/sigma0_{s}"
        )
        for s in range(1, 11)
    },
}


def parse(args: str):
    return parse_config(args.split())


class TestParseConfig:
    def test_defaults_documented(self):
        cfg = parse("")
        assert cfg.mode == "single"
        assert cfg.initial == InitialStateSpec.local()
        assert cfg.coin == CoinSpec.hadamard()
        assert cfg.steps == 3000
        assert cfg.record_every == 1
        assert cfg.qubit.alpha == pytest.approx(0.75 * math.pi)
        assert cfg.qubit.beta == 0.0
        assert cfg.fit_window == (1000, 3000)
        assert cfg.output_dir == Path("results")

    def test_gaussian_flags(self):
        cfg = parse("--initial gaussian --sigma0 20")
        assert cfg.initial.sigma0 == 20.0
        assert cfg.initial.truncation_radius == 200  # the radius follows sigma0
        assert cfg.initial == InitialStateSpec(20.0)

    def test_gaussian_radius_default_is_100(self):
        cfg = parse("--initial gaussian --sigma0 2")
        assert cfg.initial.truncation_radius == 100

    def test_ensemble_mode(self):
        cfg = parse("--mode ensemble --alpha-step 0.5 --beta-step 0.5 --steps 100")
        assert cfg.alpha_step == 0.5 and cfg.beta_step == 0.5
        assert cfg.qubit is None
        assert cfg.fit_window == (0, 100)

    def test_defect_coin(self):
        cfg = parse("--coin defect --defect-site -101")
        assert cfg.coin.defect_site == -101

    @pytest.mark.parametrize(
        "args",
        [
            "--steps 0",
            "--record-every 0",
            "--initial gaussian",  # sigma0 missing
            "--initial gaussian --sigma0 -1",
            "--sigma0 2",  # local takes no sigma0
            "--coin defect",  # defect site missing
            "--defect-site 3",  # hadamard takes no defect site
            "--alpha 9",  # out of [0, pi]
            "--alpha-step 0.5",  # single mode takes no grid steps
            "--mode ensemble --alpha 1.0",
            "--fit-start 200 --fit-end 100",
            "--fit-end 5000",
            "--workers 0",
            "--preset fig1 --workers 0",
            "--preset fig1 --steps 100",
            "--preset fig2 --coin hadamard",
        ],
    )
    def test_rejected_configs(self, args):
        with pytest.raises(ConfigError):
            parse(args)

    @pytest.mark.parametrize("flag, value", PHYSICS_FLAG_VALUES)
    def test_preset_rejects_every_physics_flag(self, flag, value):
        with pytest.raises(ConfigError, match=f"remove {flag}$"):
            parse(f"--preset fig1 {flag} {value}")

    def test_physics_flag_values_cover_the_parser(self):
        operational = {"help", "preset", "workers", "output_dir"}
        dests = [a.dest for a in _build_parser()._actions if a.dest not in operational]
        assert dests == list(_FLAGS)
        assert dests == [flag[2:].replace("-", "_") for flag, _ in PHYSICS_FLAG_VALUES]

    @pytest.mark.parametrize(
        "args, message",
        [
            ("--sigma0 2", "--sigma0 applies only to --initial gaussian"),
            ("--initial gaussian", "--initial gaussian requires --sigma0"),
            ("--coin defect", "--coin defect requires --defect-site"),
            ("--defect-site 3", "--defect-site applies only to --coin defect"),
            ("--alpha-step 0.5", "--alpha-step applies only to --mode ensemble"),
            ("--mode ensemble --beta 1.0", "--beta applies only to --mode single"),
        ],
    )
    def test_rule_messages_name_one_flag(self, args, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse(args)

    def test_help_lists_each_default_and_rule(self, capsys):
        with pytest.raises(SystemExit):
            parse("--help")
        text = " ".join(capsys.readouterr().out.split())
        assert "default 3000" in text
        assert "(lattice units); only with --initial gaussian" in text
        assert "radius" not in text
        assert "default 0.1; only with --mode ensemble" in text
        assert "only with --coin defect" in text

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            parse("--frobnicate 3")
        assert exc.value.code != 0

    def test_truncation_radius_is_an_unknown_flag(self, capsys):
        """The Gaussian's support follows sigma0; the command line sets no radius."""
        with pytest.raises(SystemExit) as exc:
            parse("--initial gaussian --sigma0 2 --truncation-radius 5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --truncation-radius 5" in capsys.readouterr().err

    def test_preset_allows_operational_flags(self):
        cfg = parse("--preset fig1 --workers 2 --output-dir out")
        assert cfg == PresetConfig("fig1", Path("out"))

    def test_preset_config_is_its_name_and_output_dir(self):
        cfg = parse("--preset fig1")
        assert [f.name for f in dataclasses.fields(cfg)] == ["preset", "output_dir"]
        # a concrete run reads as no preset, without storing one
        assert parse("").preset is None
        assert "preset" not in {f.name for f in dataclasses.fields(RunConfig)}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "args",
        [
            "",
            "--mode single --initial gaussian --sigma0 10 --alpha 1.5 --beta 0.25 "
            "--coin defect --defect-site -101 --steps 500 --record-every 5",
            "--mode ensemble --alpha-step 0.5 --beta-step 1.0 --steps 50 --workers 3",
            "--preset fig2 --output-dir somewhere",
        ],
    )
    def test_canonical_argv_round_trips(self, args):
        cfg = parse_config(args.split() if args else [])
        assert parse_config(canonical_argv(cfg)) == cfg

    @pytest.mark.parametrize(
        "args, change",
        [
            ("--mode ensemble", {"alpha_step": np.float64(0.5), "beta_step": np.float64(0.25)}),
            ("", {"qubit": QubitParams(np.float64(1.5), np.float64(0.25))}),
            ("", {"initial": InitialStateSpec(np.float64(20.0))}),
        ],
        ids=["grid_steps", "qubit", "sigma0"],
    )
    def test_numpy_scalars_round_trip(self, args, change):
        cfg = dataclasses.replace(parse(args), **change)
        assert parse_config(canonical_argv(cfg)) == cfg

    def test_canonical_argv_is_pinned(self):
        configs = {}
        for name, args in PINNED_ARGS.items():
            configs[name] = cfg = parse(args)
            for label, sub in expand_runs(cfg) if cfg.preset else []:
                configs[f"{name}/{label}"] = sub
        assert {name: " ".join(canonical_argv(cfg)) for name, cfg in configs.items()} == PINNED_ARGV

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["default", "workers2"])
    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3"])
    def test_expanded_preset_configs_round_trip(self, preset, workers):
        cfg = parse_config(["--preset", preset, *workers, "--output-dir", "sweeps"])
        runs = expand_runs(cfg)
        assert [label for label, _ in runs] == PRESET_LABELS[preset]
        # the worker count reaches no sub-run
        assert runs == expand_runs(parse_config(["--preset", preset, "--output-dir", "sweeps"]))
        for label, sub in runs:
            assert sub.output_dir == Path("sweeps") / label
            assert parse_config(canonical_argv(sub)) == sub


class TestPresetExpansion:
    def test_fig1_is_three_single_runs(self):
        runs = expand_runs(parse("--preset fig1"))
        assert [label for label, _ in runs] == INITIAL_LABELS
        for _, sub in runs:
            assert sub.mode == "single"
            assert sub.steps == 3000
            assert sub.coin == CoinSpec.hadamard()
            assert sub.qubit.alpha == pytest.approx(0.75 * math.pi)

    def test_fig2_is_six_ensembles(self):
        runs = expand_runs(parse("--preset fig2"))
        assert len(runs) == 6
        kinds = {(sub.initial, sub.coin) for _, sub in runs}
        assert len(kinds) == 6
        for _, sub in runs:
            assert sub.mode == "ensemble"
            assert sub.alpha_step == 0.1 and sub.beta_step == 0.1
            assert sub.coin.defect_site in (None, -101)

    def test_fig3_sweeps_sigma0(self):
        runs = expand_runs(parse("--preset fig3"))
        sigmas = []
        for _, sub in runs:
            assert sub.coin.defect_site == -101
            sigmas.append(0 if sub.initial.sigma0 is None else int(sub.initial.sigma0))
        assert sigmas == list(range(0, 11))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestEmission:
    def test_two_step_distribution_file(self, tmp_path):
        cfg = parse("--steps 2 --alpha 0 --beta 0 --fit-start 0 --fit-end 2")
        result = execute(cfg)
        emit_results(result, tmp_path)
        header, rows = read_csv(tmp_path / "distribution_t2.csv")
        assert header == ["j", "p_up", "p_down", "p_total"]
        expected = {
            -2: (0.0, 0.25, 0.25),
            -1: (0.0, 0.0, 0.0),
            0: (0.25, 0.25, 0.5),
            1: (0.0, 0.0, 0.0),
            2: (0.25, 0.0, 0.25),
        }
        assert [int(r[0]) for r in rows] == [-2, -1, 0, 1, 2]
        for row in rows:
            j = int(row[0])
            for got, want in zip(map(float, row[1:]), expected[j]):
                assert got == pytest.approx(want, abs=1e-15)

    def test_timeseries_and_summary_single(self, tmp_path):
        cfg = parse("--steps 4 --record-every 2 --fit-start 0 --fit-end 4")
        summary = emit_results(execute(cfg), tmp_path)
        header, rows = read_csv(tmp_path / "timeseries.csv")
        assert header == ["t", "sigma", "entropy", "norm"]
        assert [int(r[0]) for r in rows] == [0, 2, 4]
        assert rows[0] == ["0", "0", "0", "1"]  # a product state's entropy is +0, not -0
        for row in rows:
            assert float(row[3]) == pytest.approx(1.0, abs=1e-12)
        header, rows = read_csv(tmp_path / "summary.csv")
        assert header == ["slope", "final_entropy", "qubit_count", "norm_deficit"]
        assert len(rows) == 1
        assert int(rows[0][2]) == 1
        assert float(rows[0][3]) == 0.0
        assert list(map(float, rows[0])) == list(map(float, summary))  # the row it returns

    def test_ensemble_timeseries_header(self, tmp_path):
        cfg = parse(
            "--mode ensemble --alpha-step 1.5 --beta-step 3.0 --steps 6 "
            "--fit-start 0 --fit-end 6"
        )
        summary = emit_results(execute(cfg), tmp_path)
        header, rows = read_csv(tmp_path / "timeseries.csv")
        assert header == ["t", "mean_sigma", "mean_entropy"]
        assert len(rows) == 7
        header, rows = read_csv(tmp_path / "summary.csv")
        assert int(rows[0][2]) == 9  # 3 alphas x 3 betas
        assert list(map(float, rows[0])) == list(map(float, summary))  # the row it returns

    def test_p_total_equals_sum_as_printed(self, tmp_path):
        cfg = parse("--steps 12 --fit-start 0 --fit-end 12")
        emit_results(execute(cfg), tmp_path)
        _, rows = read_csv(tmp_path / "distribution_t12.csv")
        for row in rows:
            p_up, p_down, p_total = map(float, row[1:])
            assert p_total == pytest.approx(p_up + p_down, abs=1e-15)

    def test_floats_have_17_significant_digits(self, tmp_path):
        cfg = parse("--steps 3 --fit-start 0 --fit-end 3")
        emit_results(execute(cfg), tmp_path)
        _, rows = read_csv(tmp_path / "distribution_t3.csv")
        mantissas = [
            r[3].replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            for r in rows
            if float(r[3]) not in (0.0, 0.25, 0.5, 1.0)
        ]
        assert any(len(m) >= 16 for m in mantissas)

    def test_csv_writer_golden_text(self, tmp_path):
        path = tmp_path / "golden.csv"
        _write_csv(
            path,
            "j,n,x",
            np.arange(-2, 4, dtype=np.int64),
            [0, 1, 2, 3, 4, 2**40],
            [0.1, 1 / 3, -0.0, 5e-324, 1e300, 1.0],
        )
        assert path.read_bytes() == (
            b"j,n,x\n"
            b"-2,0,0.10000000000000001\n"
            b"-1,1,0.33333333333333331\n"
            b"0,2,-0\n"
            b"1,3,4.9406564584124654e-324\n"
            b"2,4,1.0000000000000001e+300\n"
            b"3,1099511627776,1\n"
        )


class TestMain:
    def test_single_run_writes_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            f"--steps 8 --record-every 4 --fit-start 0 --fit-end 8 --output-dir {out}".split()
        )
        assert code == 0
        assert (out / "distribution_t8.csv").exists()
        assert (out / "timeseries.csv").exists()
        assert (out / "summary.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert parse_config(manifest["argv"]).steps == 8

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(["--steps", "0", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            "--steps 20 --record-every 20 --fit-start 5 --fit-end 20",  # one recorded time in the fit
            "--initial gaussian --sigma0 1e-300",  # envelope divides by zero
            "--initial gaussian --sigma0 1e300",  # a radius capped at MAX_SITES
            "--mode ensemble --alpha-step 1e-4 --beta-step 1e-4",  # ~2e9 qubits
            "--steps 2000000000",  # a 4e9-site window
            "--initial gaussian --sigma0 1e6",  # a 2e7-site envelope
            "--initial gaussian --sigma0 0.001",  # samples to squared norm 398.9
        ],
    )
    def test_config_failing_before_compute_writes_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "run"
        start = time.perf_counter()
        assert main(args.split() + ["--output-dir", str(out)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_configs_give_identical_bytes(self, tmp_path):
        args = (
            "--mode ensemble --alpha-step 1.0 --beta-step 2.0 --steps 30 "
            "--fit-start 0 --fit-end 30"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args.split() + ["--output-dir", str(out_a), "--workers", "1"]) == 0
        assert main(args.split() + ["--output-dir", str(out_b), "--workers", "3"]) == 0
        for name in ("distribution_t30.csv", "timeseries.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_workers_not_written_to_manifest(self, tmp_path, monkeypatch):
        # the same relative --output-dir, so the manifests can match byte for byte
        args = "--steps 8 --record-every 4 --fit-start 0 --fit-end 8 --output-dir run".split()
        for cwd, workers in ((tmp_path / "w", ["--workers", "3"]), (tmp_path / "none", [])):
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main([*args, *workers]) == 0
        manifest = (tmp_path / "none" / "run" / "manifest.json").read_bytes()
        assert (tmp_path / "w" / "run" / "manifest.json").read_bytes() == manifest
        assert b"workers" not in manifest
        preset = canonical_argv(parse("--preset fig1 --workers 3 --output-dir out"))
        assert preset == canonical_argv(parse("--preset fig1 --output-dir out"))

    def test_module_entry_point(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run_module(args: str) -> int:
            cmd = [sys.executable, "-m", "qwalk1d", *args.split()]
            proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, timeout=60)
            return proc.returncode

        assert run_module("--steps 8 --record-every 4 --fit-start 0 --fit-end 8 --output-dir ok") == 0
        written = {"distribution_t8.csv", "timeseries.csv", "summary.csv", "manifest.json"}
        assert {p.name for p in (tmp_path / "ok").iterdir()} == written
        assert run_module("--steps 0 --output-dir bad") == 1
        assert not (tmp_path / "bad").exists()

    @pytest.mark.slow
    def test_preset_fig1_writes_subruns(self, tmp_path):
        out = tmp_path / "fig1"
        assert main(["--preset", "fig1", "--output-dir", str(out)]) == 0
        for label in INITIAL_LABELS:
            run_dir = out / label
            assert (run_dir / "distribution_t3000.csv").exists()
            assert (run_dir / "timeseries.csv").exists()
            assert (run_dir / "summary.csv").exists()
            sub = json.loads((run_dir / "manifest.json").read_text())
            assert parse_config(sub["argv"]).output_dir == run_dir
        top = json.loads((out / "manifest.json").read_text())
        assert parse_config(top["argv"]).preset == "fig1"

    @pytest.mark.slow
    def test_preset_fig2_writes_six_ensembles(self, fig2_preset):
        code, out = fig2_preset
        assert code == 0
        for label in PRESET_LABELS["fig2"]:
            header, rows = read_csv(out / label / "timeseries.csv")
            assert header == ["t", "mean_sigma", "mean_entropy"]
            assert len(rows) == 3001
            _, srows = read_csv(out / label / "summary.csv")
            assert int(srows[0][2]) == 2016

    def test_fig3_summary_rows_are_subrun_summaries(self, tmp_path, monkeypatch):
        short = ["--steps", "60", "--fit-start", "10", "--fit-end", "60",
                 "--alpha-step", "0.5", "--beta-step", "0.5"]
        subruns = [(label, [*flags, *short]) for label, flags in cli.PRESETS["fig3"]]
        monkeypatch.setitem(cli.PRESETS, "fig3", subruns)
        out = tmp_path / "fig3"
        assert main(["--preset", "fig3", "--output-dir", str(out)]) == 0
        lines = (out / "fig3_summary.csv").read_text().splitlines()
        assert lines[0] == "sigma0,slope,final_entropy,qubit_count,norm_deficit"
        assert len(lines) == 1 + len(subruns)
        for line, (label, _) in zip(lines[1:], subruns):
            summary = (out / label / "summary.csv").read_text().splitlines()
            assert line == label.removeprefix("sigma0_") + "," + summary[1]

    @pytest.mark.slow
    def test_preset_fig3_summary_sweep(self, fig3_preset):
        code, out = fig3_preset
        assert code == 0
        header, rows = read_csv(out / "fig3_summary.csv")
        assert header == ["sigma0", "slope", "final_entropy", "qubit_count", "norm_deficit"]
        assert [int(r[0]) for r in rows] == list(range(0, 11))
        slopes = [float(r[1]) for r in rows]
        entropies = [float(r[2]) for r in rows]
        # spreading dies out and entanglement vanishes as sigma0 grows
        assert slopes[0] > 0.1 and abs(slopes[-1]) <= 0.02
        assert entropies[0] > 0.5 and entropies[-1] < 0.01
        assert all(int(r[3]) == 2016 for r in rows)
