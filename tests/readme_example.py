"""README's ``## Library`` section and the ``python`` example in it.

The tests read the section and run the example in-process; run as a script,
this file runs the example against whichever ``qwalk1d`` Python imports, so
from outside the checkout it exercises an installed package:

    python tests/readme_example.py
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    """The text between README's ``## Library`` heading and the next ``##`` heading."""
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The source of the section's first fenced ``python`` block."""
    match = re.search(r"^```python\n(.*?)^```$", library_section(), re.DOTALL | re.MULTILINE)
    if match is None:
        raise ValueError(f"no ```python block under '## Library' in {README}")
    return match.group(1)


def run_library_example() -> dict:
    """Execute the example in a fresh namespace and return that namespace."""
    namespace: dict = {"__name__": "readme_example"}
    exec(compile(library_example(), f"{README}:## Library", "exec"), namespace)
    return namespace


if __name__ == "__main__":
    run_library_example()
