"""SHA-256 digests of every preset sub-run's CSVs at CI scale, and the values behind them.

Each ``cli.PRESETS`` sub-run is run through ``cli.main`` with ``--steps 300``
(ensembles also with ``--alpha-step 0.5 --beta-step 0.5``), and each of the
three CSVs it writes is hashed.  Row sums are BLAS dots, and the linear
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

Regenerate ``tests/data/golden_digests.json`` after a change that moves bytes
on purpose, and list the moved files in CHANGES.md:

    python tests/golden_digests.py --write
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_digests.json"
PINNED_CORE = "Haswell"
CI_SCALE = ["--steps", "300"]
CI_GRID = ["--alpha-step", "0.5", "--beta-step", "0.5"]


def measure() -> dict:
    """Run every sub-run in a child process with the BLAS kernel pinned.

    Falls back to the default kernel if the pinned one cannot run here; the
    recorded ``blas_core`` then says which one did.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_VERBOSE"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for pin in ({"OPENBLAS_CORETYPE": PINNED_CORE}, {}):
        proc = subprocess.run(
            [sys.executable, __file__, "--child"],
            env={**env, **pin}, capture_output=True, text=True, check=False,
        )
        if proc.returncode == 0:
            break
    else:
        raise RuntimeError(f"preset sub-runs failed:\n{proc.stderr}")
    core = re.search(r"^Core: (\S+)", proc.stderr, re.MULTILINE)
    return {"blas_core": core and core.group(1), **json.loads(proc.stdout)}


def _run_all() -> dict:
    """The child's work: run, hash and read back every sub-run in a temporary directory."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    from qwalk1d.cli import PRESETS, main

    runs, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for preset, subruns in PRESETS.items():
            for label, flags in subruns:
                name = f"{preset}/{label}"
                argv = [*flags, *CI_SCALE, *(CI_GRID if "ensemble" in flags else [])]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([*argv, "--output-dir", str(Path(tmp, name))])
                if code != 0:
                    raise RuntimeError(f"{name} exited with {code}")
                for path in sorted(Path(tmp, name).glob("*.csv")):
                    digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
                summary = _last_row(Path(tmp, name, "summary.csv"))
                runs[name] = {
                    "slope": summary[0],
                    "final_sigma": _last_row(Path(tmp, name, "timeseries.csv"))[1],
                    "final_entropy": summary[1],
                }
    return {
        "numpy": np.__version__,
        "numpy_simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "runs": runs,
        "digests": digests,
    }


def _last_row(path: Path) -> list[float]:
    return [float(cell) for cell in path.read_text().splitlines()[-1].split(",")]


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(_run_all()))
    elif sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit(f"usage: python {Path(__file__).name} --write")
