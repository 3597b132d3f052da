"""Time a workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <scale>

Prints one line with the seconds from just before ``import qwalk1d`` to
the end of ``workloads.prepare``: the package import (numpy included),
``parse_config``, ``expand_runs`` and the qubit-grid builds.
"""

from __future__ import annotations

import os
import sys
import time

import checkout
import workloads


def main(argv: list[str]) -> int:
    name, scale = argv
    checkout.use_source_tree()
    start = time.perf_counter()
    import qwalk1d
    import qwalk1d.cli
    import qwalk1d.evolution

    checkout.assert_from_source_tree(qwalk1d)
    workloads.prepare(name, scale, os.cpu_count() or 1, qwalk1d, qwalk1d.cli, qwalk1d.evolution)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
