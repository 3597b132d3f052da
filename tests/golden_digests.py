"""SHA-256 digests of every preset sub-run's CSVs, and the values behind them.

At CI scale each ``cli.PRESETS`` sub-run is run through ``cli.main`` with
``--steps 300`` (ensembles also with ``--alpha-step 0.5 --beta-step 0.5``), and
each of the three CSVs it writes is hashed: 60 files.  At full scale
(``--full``) each preset is run as it ships, ``--preset fig1|fig2|fig3``, and
its 61 CSVs are hashed, ``fig3_summary.csv`` included; only there does the
cone's front decay far enough (2^-1500 at 3000 steps) for underflow and
subnormal amplitudes to reach a byte.  Row sums are BLAS dots, and the linear
ensemble path's sums are GEMMs (one Gram per record, one per-qubit product per
record block); an OpenBLAS built for several CPUs picks its dot and GEMM kernels
at load time, so the runs happen in a child process with the core pinned
(``OPENBLAS_CORETYPE``) and ``OPENBLAS_VERBOSE=2``, which makes OpenBLAS print
the core it loaded.  OpenBLAS splits a GEMM's output between threads, not its
sums, so the thread count moves no byte (a CI step checks it).  numpy
also dispatches its own loops (``exp``, ``sin``) by CPU feature, so the
features it enabled are recorded next to its version.  Bytes can be compared
only where all three match; the slope, final sigma and final entropy of each
sub-run can be compared anywhere.

Regenerate ``tests/data/golden_digests.json`` (CI scale) and
``tests/data/golden_digests_full.json`` (full scale) after a change that moves
bytes on purpose, and list the moved files in CHANGES.md:

    python tests/golden_digests.py --write
    python tests/golden_digests.py --write --full
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_digests.json"
GOLDEN_FULL = ROOT / "tests" / "data" / "golden_digests_full.json"
PINNED_CORE = "Haswell"
CI_SCALE = ["--steps", "300"]
CI_GRID = ["--alpha-step", "0.5", "--beta-step", "0.5"]


def measure(full: bool = False, output_dir: Path | None = None) -> dict:
    """Run every sub-run, at full scale if ``full``, in a child process with the BLAS kernel pinned.

    The CSVs are written under ``output_dir`` (``<preset>/<label>/``), which is
    kept, or under a temporary directory.  Falls back to the default kernel if
    the pinned one cannot run here; the recorded ``blas_core`` then says which
    one did.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_VERBOSE"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with contextlib.ExitStack() as stack:
        out = output_dir or stack.enter_context(tempfile.TemporaryDirectory())
        for pin in ({"OPENBLAS_CORETYPE": PINNED_CORE}, {}):
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(out), *(["--full"] if full else [])],
                env={**env, **pin}, capture_output=True, text=True, check=False,
            )
            if proc.returncode == 0:
                break
        else:
            raise RuntimeError(f"preset sub-runs failed:\n{proc.stderr}")
    core = re.search(r"^Core: (\S+)", proc.stderr, re.MULTILINE)
    return {"blas_core": core and core.group(1), **json.loads(proc.stdout)}


def _run_all(full: bool, root: Path) -> dict:
    """The child's work: run every sub-run under ``root``, hash its CSVs and read them back.

    The warnings that ``pyproject.toml`` makes errors under pytest are errors
    here too, so a numpy overflow or a deprecation in any sub-run fails the
    child, and :func:`measure` raises.
    """
    for category in (RuntimeWarning, DeprecationWarning, PendingDeprecationWarning):
        warnings.simplefilter("error", category)
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    from qwalk1d.cli import PRESETS, main

    for preset, subruns in PRESETS.items():
        if full:
            commands = [(preset, ["--preset", preset])]
        else:
            commands = [
                (f"{preset}/{label}", [*flags, *CI_SCALE, *(CI_GRID if "ensemble" in flags else [])])
                for label, flags in subruns
            ]
        for name, argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--output-dir", str(root / name)])
            if code != 0:
                raise RuntimeError(f"{name} exited with {code}")
    runs = {}
    for summary_path in sorted(root.rglob("summary.csv")):
        summary = _last_row(summary_path)
        runs[summary_path.parent.relative_to(root).as_posix()] = {
            "slope": summary[0],
            "final_sigma": _last_row(summary_path.with_name("timeseries.csv"))[1],
            "final_entropy": summary[1],
        }
    return {
        "numpy": np.__version__,
        "numpy_simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "runs": runs,
        "digests": {
            path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*.csv"))
        },
    }


def _last_row(path: Path) -> list[float]:
    return [float(cell) for cell in path.read_text().splitlines()[-1].split(",")]


if __name__ == "__main__":
    full = sys.argv[-1] == "--full"
    args = sys.argv[1 : len(sys.argv) - full]
    if len(args) == 2 and args[0] == "--child":
        print(json.dumps(_run_all(full, Path(args[1]))))
    elif args == ["--write"]:
        golden = GOLDEN_FULL if full else GOLDEN
        golden.write_text(json.dumps(measure(full), indent=1, sort_keys=True) + "\n")
        print(f"wrote {golden}")
    else:
        sys.exit(f"usage: python {Path(__file__).name} --write [--full]")
