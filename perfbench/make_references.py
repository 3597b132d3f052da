"""Regenerate perfbench/references.json from the checkout's current code.

Usage: python3 perfbench/make_references.py

Runs every workload once at each scale and freezes, per sub-run label,
the checked quantities (slope, final entropy, max entropy, final sigma)
and the SHA-256 of each CSV the sub-run wrote.  Regenerate only on
purpose: the benchmark's correctness gate compares against this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import checkout
import run
import workloads

COMMAND = "python3 perfbench/make_references.py"


def collect(name: str, scale: str, qw, cli) -> tuple[dict, dict]:
    labels = list(workloads.WORKLOADS[name].labels)
    harness = run.Harness(name, os.cpu_count() or 1, {}, qw, cli, scale=scale, order=labels)
    values, digests = {}, {}
    harness.install()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=checkout.ROOT) as tmp:
            out = Path(tmp)
            result = harness.run(out)
            if name == "direct_crosscheck":
                return {"direct": workloads.ensemble_values(result)}, {}
            if any(code != 0 for code in result):
                raise SystemExit(f"{name} ({scale}): cli.main exited with {result}")
            for label in labels:
                values[label] = workloads.csv_values(out / label)
                digests[label] = {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted((out / label).glob("*.csv"))
                }
    finally:
        harness.uninstall()
    return values, digests


def main() -> int:
    checkout.use_source_tree()
    import qwalk1d
    import qwalk1d.cli

    checkout.assert_from_source_tree(qwalk1d)
    doc = {
        "command": COMMAND,
        "git_revision": checkout.git_revision(),
        "source_sha256": checkout.source_digest(),
        "tolerance_abs": run.TOLERANCE,
        "checked": list(run.CHECKED),
        "values": {},
        "csv_sha256": {},
    }
    for scale in workloads.SCALES:
        doc["values"][scale], doc["csv_sha256"][scale] = {}, {}
        for name in workloads.WORKLOADS:
            values, digests = collect(name, scale, qwalk1d, qwalk1d.cli)
            doc["values"][scale][name] = values
            if digests:
                doc["csv_sha256"][scale][name] = digests
            print(f"{scale} {name}: {len(values)} sub-runs", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
