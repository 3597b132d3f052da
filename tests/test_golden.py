"""Byte identity: every preset sub-run at CI scale writes the CSVs recorded in the golden file.

The digests are compared only on the platform that made them (numpy version,
numpy's enabled SIMD targets and the OpenBLAS core); elsewhere the stored
slope, final sigma and final entropy of each sub-run are compared at 1e-12
relative.  Either way the test runs, and it prints which comparison it made.
A change that moves bytes on purpose regenerates the file with
``python tests/golden_digests.py --write``.
"""

import json
import math

import golden_digests

PLATFORM = ("numpy", "numpy_simd", "blas_core")


def test_preset_csvs_match_golden_file(capsys):
    stored = json.loads(golden_digests.GOLDEN.read_text())
    got = golden_digests.measure()
    assert sorted(got["digests"]) == sorted(stored["digests"])
    assert len(stored["digests"]) == 60
    if all(got[key] == stored[key] for key in PLATFORM):
        how = f"SHA-256 digests of {len(stored['digests'])} CSVs"
        moved = sorted(name for name, digest in stored["digests"].items() if got["digests"][name] != digest)
    else:
        here = ", ".join(f"{key} {got[key]}" for key in PLATFORM)
        how = f"values at 1e-12 relative (platform differs from the file's: {here})"
        moved = sorted(
            f"{run} {key}: {got['runs'][run][key]!r} vs {value!r}"
            for run, values in stored["runs"].items()
            for key, value in values.items()
            if not math.isclose(got["runs"][run][key], value, rel_tol=1e-12)
        )
    with capsys.disabled():
        print(f"\ngolden preset outputs: compared {how}")
    assert not moved, f"compared {how}; moved: {moved}"
