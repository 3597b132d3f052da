"""Byte identity: every preset sub-run writes the CSVs recorded in the golden files.

Two files, two scales: ``golden_digests.json`` holds the 60 CSVs of every
sub-run at CI scale (300 steps, grid step 0.5), and ``golden_digests_full.json``
the 61 CSVs of ``--preset fig1|fig2|fig3`` as they ship, where the cone's front
underflows and a subnormal amplitude can move a byte (the session fixture
``full_scale_presets`` runs them once, for this test and the acceptance tests).
The digests are compared only on the platform that made them (numpy version,
numpy's enabled SIMD targets and the OpenBLAS core); elsewhere the stored
slope, final sigma and final entropy of each sub-run are compared at 1e-12
relative.  Either way the test runs, and it prints which comparison it made.
A change that moves bytes on purpose regenerates the files with
``python tests/golden_digests.py --write`` and ``--write --full``.
"""

import json
import math

import pytest

import golden_digests

PLATFORM = ("numpy", "numpy_simd", "blas_core")


def _compare(got: dict, full: bool, count: int, capsys) -> None:
    stored = json.loads((golden_digests.GOLDEN_FULL if full else golden_digests.GOLDEN).read_text())
    assert sorted(got["digests"]) == sorted(stored["digests"])
    assert len(stored["digests"]) == count
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
        print(f"\ngolden {'full-scale' if full else 'CI-scale'} preset outputs: compared {how}")
    assert not moved, f"compared {how}; moved: {moved}"


def test_preset_csvs_match_golden_file(capsys):
    _compare(golden_digests.measure(), False, 60, capsys)


@pytest.mark.slow
def test_full_scale_preset_csvs_match_golden_file(full_scale_presets, capsys):
    """The session's one full-scale run of the presets, which the acceptance tests also read."""
    _compare(full_scale_presets[0], True, 61, capsys)
