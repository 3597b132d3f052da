"""Benchmark entry point: figure-data workloads, checked against frozen references.

Usage:
    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (or all of them) of the qwalk1d checkout this file
sits in, repeating whole iterations for about ``--seconds`` seconds,
checks every sub-run against ``references.json`` and prints each metric
by name with its unit.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  A
traced run alternates untraced and traced iterations, so it also
reports the tracing overhead.  Exit code 0 means every sub-run matched
its reference; 1 means some did not; 2 means nothing could be measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checkout
import workloads
from tracing import LAYERS, Tracer, children_cpu_s

REFERENCES = checkout.BENCH_DIR / "references.json"
TRACE_DIR = checkout.ROOT / ".perfbench-out"
SETUP_PROBES = 7
TOLERANCE = 1e-9  # absolute, as in the CI-scale acceptance check
CHECKED = ("slope", "final_entropy", "max_entropy", "final_sigma")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "subrun_s.p50": "s",
    "subrun_s.p90": "s",
    "qubit_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but left out of the JSON: both are
# exactly zero on a correct run, which the result's "failed" count covers.
CORRECTNESS = {"result_max_abs_dev": "abs", "fail_ratio": "ratio"}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "cli.execute_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "cli.csv_identical_files": "count",
    "core.self_s": "s",
    "ensemble.self_s": "s",
    "ensemble.run_ensemble_calls": "count",
    "ensemble.records": "count",
    "ensemble.run_walk_s": "s",
    "ensemble.run_walk_calls": "count",
    "ensemble.grid_s": "s",
    "ensemble.fit_s": "s",
    "ensemble.pool_cpu_s": "s",
    "ensemble.pool_efficiency": "ratio",
    "evolution.self_s": "s",
    "evolution.step_s": "s",
    "evolution.step_calls": "count",
    "evolution.prepare_s": "s",
    "evolution.site_updates": "count",
    "evolution.site_updates_per_s": "1/s",
    "evolution.lightcone_fill": "ratio",
    "evolution.bytes_moved_computed": "B",
    "observables.self_s": "s",
    "observables.entropy_vec_s": "s",
    "observables.entropy_vec_calls": "count",
    "observables.entropy_vec_points": "count",
    "observables.scalar_s": "s",
    "observables.scalar_calls": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.dominant_layer_ok": "count",
}
# Derived from window sizes and dtypes, not measured.
COMPUTED = ("evolution.site_updates", "evolution.lightcone_fill", "evolution.bytes_moved_computed")
SCALAR_OBSERVABLES = (
    "observables.distribution",
    "observables.dispersion",
    "observables.reduced_coin",
    "observables.entanglement_entropy",
)


class BenchError(RuntimeError):
    """The benchmark could not measure anything."""


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    subrun_s: list[float]
    trace: object = None
    attempted: int = 0
    failed: int = 0
    max_dev: float = 0.0
    csv_identical: int = 0
    csv_files: int = 0
    emit_bytes: int = 0


@dataclass
class Harness:
    """One workload's code paths, plus the hooks every iteration needs.

    Two hooks stay installed for the whole run, traced or not: one on
    ``cli.expand_runs`` applies the seeded sub-run order (and the tiny
    scale) to presets, one on ``cli.execute`` times each sub-run.  Both
    cost a few microseconds per sub-run.
    """

    name: str
    nproc: int
    references: dict
    qw: object
    cli: object
    scale: str = "full"
    order: list[str] = field(default_factory=list)
    execute_s: list[float] = field(default_factory=list)
    originals: dict = field(default_factory=dict)

    def install(self) -> None:
        cli, harness = self.cli, self
        self.originals = {"expand_runs": cli.expand_runs, "execute": cli.execute}
        expand_runs, execute = cli.expand_runs, cli.execute

        def ordered_expand_runs(config):
            runs = expand_runs(config)
            if config.preset is None:
                return runs
            if harness.scale == "tiny":
                runs = [(label, workloads.shrink(run)) for label, run in runs]
            rank = {label: i for i, label in enumerate(harness.order)}
            return sorted(runs, key=lambda item: rank.get(item[0], len(rank)))

        def timed_execute(config):
            start = time.perf_counter()
            try:
                return execute(config)
            finally:
                harness.execute_s.append(time.perf_counter() - start)

        cli.expand_runs, cli.execute = ordered_expand_runs, timed_execute

    def uninstall(self) -> None:
        for attr, fn in self.originals.items():
            setattr(self.cli, attr, fn)

    def run(self, out: Path):
        """The timed region of one iteration: the workload's calls, output in ``out``."""
        with contextlib.redirect_stdout(io.StringIO()):
            if self.name == "direct_crosscheck":
                grid, init, plan = workloads.direct_inputs(self.qw, self.scale)
                return self.qw.ensemble.run_ensemble(
                    grid, init, plan, method="direct", workers=self.nproc
                )
            argvs = workloads.cli_calls(self.name, self.scale, self.nproc, out, self.order)
            return [self.cli.main(argv) for argv in argvs]

    def iteration(self, out: Path, tracer: Tracer | None) -> Iteration:
        out.mkdir()
        self.execute_s = []
        gc.collect()
        cpu0, child0 = time.process_time(), children_cpu_s()
        start = time.perf_counter()
        trace = None
        try:
            if tracer is None:
                result = self.run(out)
            else:
                result, trace = tracer.trace(lambda: self.run(out))
        except Exception:  # a failing run is counted, reported and survived
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - start
        if trace is not None:
            wall = trace.wall_s()
        cpu = time.process_time() - cpu0 + children_cpu_s() - child0
        subruns = [wall] if self.name == "direct_crosscheck" else self.execute_s
        it = Iteration(wall, cpu, subruns or [wall], trace)
        self._check(out, result, it)
        shutil.rmtree(out)
        return it

    def _check(self, out: Path, result, it: Iteration) -> None:
        values = self.references["values"][self.scale][self.name]
        digests = self.references["csv_sha256"][self.scale].get(self.name, {})
        for label in workloads.WORKLOADS[self.name].labels:
            it.attempted += 1
            try:
                if self.name == "direct_crosscheck":
                    got = workloads.ensemble_values(result)
                else:
                    got = workloads.csv_values(out / label)
                dev = max(abs(got[k] - values[label][k]) for k in CHECKED)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                print(f"{self.name}/{label}: no checkable result: {exc!r}", file=sys.stderr)
                it.failed += 1
                it.max_dev = math.inf
                continue
            if not dev <= TOLERANCE:
                print(f"{self.name}/{label}: deviates from reference by {dev:.3e}", file=sys.stderr)
                it.failed += 1
            it.max_dev = max(it.max_dev, dev)
            for name, digest in digests.get(label, {}).items():
                it.csv_files += 1
                path = out / label / name
                if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() == digest:
                    it.csv_identical += 1
        it.emit_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def setup_seconds(name: str, scale: str) -> float:
    """Median set-up time over fresh interpreters, after one warm-up."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(checkout.BENCH_DIR / "setup_probe.py"), name, scale],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def layer_metrics(it: Iteration, plans, itemsize: int, nproc: int, predicted: str) -> dict:
    """Per-layer numbers of one traced iteration."""
    trace = it.trace
    by = trace.by_name()
    layers = trace.layer_self_s()
    counters = trace.counters

    def total(*names):
        return sum(by.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names):
        return sum(by.get(n, {}).get("calls", 0) for n in names)

    site_updates = sum(p.walks * p.steps * p.window_sites for p in plans)
    active = sum(p.walks * p.active_sites for p in plans)
    step_s = total("evolution.step")
    span_wall = counters["ensemble.span_wall_s"]
    dominant = max(LAYERS, key=lambda layer: layers[layer])
    return {
        "cli.self_s": layers["cli"],
        "cli.parse_s": total("cli.parse_config"),
        "cli.execute_s": total("cli.execute"),
        "cli.emit_s": total("cli.emit_results"),
        "cli.emit_bytes": it.emit_bytes,
        "cli.csv_identical_files": it.csv_identical,
        "core.self_s": layers["core"],
        "ensemble.self_s": layers["ensemble"],
        "ensemble.run_ensemble_calls": calls("ensemble.run_ensemble"),
        "ensemble.records": counters["ensemble.records"],
        "ensemble.run_walk_s": total("ensemble.run_walk"),
        "ensemble.run_walk_calls": calls("ensemble.run_walk"),
        "ensemble.grid_s": total("ensemble.make_qubit_grid"),
        "ensemble.fit_s": total("ensemble.fit_dispersion_slope"),
        "ensemble.pool_cpu_s": counters["ensemble.pool_cpu_s"],
        "ensemble.pool_efficiency": (
            counters["ensemble.span_cpu_s"] / (span_wall * nproc) if span_wall > 0 else 0.0
        ),
        "evolution.self_s": layers["evolution"],
        "evolution.step_s": step_s,
        "evolution.step_calls": calls("evolution.step"),
        "evolution.prepare_s": total("evolution.prepared", "evolution.reachable_window"),
        "evolution.site_updates": site_updates,
        "evolution.site_updates_per_s": site_updates / step_s if step_s > 0 else 0.0,
        "evolution.lightcone_fill": active / site_updates if site_updates else 0.0,
        "evolution.bytes_moved_computed": site_updates * 4 * itemsize,
        "observables.self_s": layers["observables"],
        "observables.entropy_vec_s": total("observables.entropy_bits_vec"),
        "observables.entropy_vec_calls": calls("observables.entropy_bits_vec"),
        "observables.entropy_vec_points": counters["observables.entropy_vec_points"],
        "observables.scalar_s": total(*SCALAR_OBSERVABLES),
        "observables.scalar_calls": calls(*SCALAR_OBSERVABLES),
        "trace.wall_s": trace.wall_s(),
        "trace.unattributed_s": layers["bench"],
        "trace.spans": len(trace.spans),
        "trace.dominant_layer_ok": int(dominant == predicted),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: str,
                 references: dict) -> dict:
    import qwalk1d
    import qwalk1d.cli
    import qwalk1d.evolution

    checkout.assert_from_source_tree(qwalk1d)
    nproc = os.cpu_count() or 1
    workload = workloads.WORKLOADS[name]
    plans = workloads.prepare(name, scale, nproc, qwalk1d, qwalk1d.cli, qwalk1d.evolution)
    itemsize = qwalk1d.WalkState.zero(qwalk1d.LatticeWindow(0, 0)).up.dtype.itemsize
    setup_s = setup_seconds(name, scale)

    rng = random.Random(seed)
    harness = Harness(name, nproc, references, qwalk1d, qwalk1d.cli)
    tracer = Tracer() if traced else None
    plain: list[Iteration] = []
    traced_its: list[Iteration] = []
    harness.install()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=checkout.ROOT) as tmp:
            # Warm-up at tiny scale: first-call costs, then the timed loop.
            harness.scale, harness.order = "tiny", list(workload.labels)
            warm = harness.iteration(Path(tmp) / "warmup", None)
            harness.scale = scale
            start = time.perf_counter()
            while True:
                harness.order = rng.sample(workload.labels, len(workload.labels))
                use_tracer = tracer if traced and len(plain) > len(traced_its) else None
                it = harness.iteration(Path(tmp) / f"it{len(plain) + len(traced_its)}", use_tracer)
                (traced_its if use_tracer else plain).append(it)
                elapsed = time.perf_counter() - start
                typical = statistics.median(i.wall_s for i in plain + traced_its)
                if traced and not traced_its:
                    continue
                # start another iteration only if it should end by about
                # seconds + half an iteration, so long iterations still
                # get a usable median
                if elapsed + 0.5 * typical > seconds:
                    break
    finally:
        harness.uninstall()

    everything = [warm] + plain + traced_its
    attempted = sum(i.attempted for i in everything)
    failed = sum(i.failed for i in everything)
    max_dev = max(i.max_dev for i in everything)
    subruns = [s for i in plain for s in i.subrun_s]
    qubit_steps = sum(p.qubit_steps for p in plans)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": statistics.median(i.wall_s for i in plain),
        "subrun_s.p50": statistics.median(subruns),
        "subrun_s.p90": _p90(subruns),
        "qubit_steps_per_s": statistics.median(qubit_steps / i.wall_s for i in plain),
        "cpu_s": statistics.median(i.cpu_s for i in plain),
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
    }
    correctness = {"result_max_abs_dev": max_dev, "fail_ratio": failed / attempted}

    print(f"== {name} (scale {scale}, seed {seed}, {len(plain)} untraced"
           f" + {len(traced_its)} traced iterations, {len(subruns)} sub-runs timed)")
    notes = {
        "wall_s": f"median of {len(plain)} iterations",
        "subrun_s.p50": f"over {len(subruns)} sub-runs",
        "subrun_s.p90": f"over {len(subruns)} sub-runs",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "peak_rss_mb": "parent peak + largest child peak",
        "fail_ratio": f"{failed}/{attempted} sub-runs failed or wrong",
    }
    for metric, value in {**end_to_end, **correctness}.items():
        unit = END_TO_END.get(metric) or CORRECTNESS[metric]
        print(_line(metric, value, unit, notes.get(metric, "")))

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    if traced:
        per_it = [layer_metrics(i, plans, itemsize, nproc, workload.predicted_layer)
                  for i in traced_its]
        layer = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]}
        layer["trace.untraced_wall_s"] = end_to_end["wall_s"]
        layer["trace.overhead_s"] = layer["trace.wall_s"] - end_to_end["wall_s"]
        print(f"-- per layer (median of {len(traced_its)} traced iterations;"
               f" predicted dominant layer: {workload.predicted_layer})")
        for metric in PER_LAYER:
            note = "computed" if metric in COMPUTED else ""
            if metric == "cli.csv_identical_files":
                note = f"of {traced_its[-1].csv_files} CSVs with a seed digest"
            print(_line(metric, layer[metric], PER_LAYER[metric], note))
        residual = max(
            abs(m["trace.wall_s"] - m["trace.unattributed_s"]
                - sum(m[f"{layer_name}.self_s"] for layer_name in LAYERS))
            for m in per_it
        )
        print(f"   layer self times + trace.unattributed_s = trace.wall_s in every traced"
               f" iteration, largest residual {residual:.3g} s")
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        _write_trace(name, seed, traced_its, per_it, nproc)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _line(metric: str, value: float, unit: str, note: str) -> str:
    text = f"   {metric:34s} {value!r:>24} {unit}"
    return f"{text}  ({note})" if note else text


def _write_trace(name: str, seed: int, its: list[Iteration], per_it: list[dict], nproc: int) -> None:
    """Spans of the last traced iteration, plus every traced iteration's totals."""
    last = its[-1].trace
    origin = last.spans[0][1]
    TRACE_DIR.mkdir(exist_ok=True)
    doc = {
        "workload": name,
        "seed": seed,
        "machine": checkout.machine_info(nproc),
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "names": last.names,
        "spans": [[n, s - origin, e - origin, p] for n, s, e, p in last.spans],
        "by_name": [i.trace.by_name() for i in its],
        "metrics": per_it,
    }
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def _default_seconds() -> float:
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0, help="permutes sub-run order")
    p.add_argument("--seconds", type=float, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="tiny is for the self-checks only")
    p.add_argument("--references", type=Path, default=REFERENCES)
    args = p.parse_args(argv)

    try:
        checkout.use_source_tree()
        seconds = args.seconds if args.seconds is not None else _default_seconds()
        with open(args.references, encoding="utf-8") as fh:
            references = json.load(fh)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        nproc = os.cpu_count() or 1
        print("machine: " + json.dumps(checkout.machine_info(nproc)))
        results = {
            name: run_workload(name, args.seed, seconds, bool(args.trace), args.scale,
                               references)
            for name in names
        }
    except (checkout.CheckoutError, BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
