"""Where the benchmark runs: the checkout's source tree and the machine."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qwalk1d"


class CheckoutError(RuntimeError):
    """The directory holds no qwalk1d source tree to benchmark."""


def use_source_tree() -> None:
    """Make ``import qwalk1d`` load this checkout's sources, nothing else."""
    if not (PACKAGE / "__init__.py").is_file():
        raise CheckoutError(f"no qwalk1d sources under {SRC}")
    sys.path.insert(0, str(SRC))


def assert_from_source_tree(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(PACKAGE):
        raise CheckoutError(f"qwalk1d imported from {module.__file__}, not from {PACKAGE}")


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package sources; identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(workers: int) -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workers": workers,
    }
