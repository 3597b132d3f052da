import pytest

from qwalk1d.cli import main


@pytest.fixture(scope="session")
def fig2_preset(tmp_path_factory):
    """Exit code and output directory of one ``--preset fig2`` run, shared by the session.

    The six full-scale ensembles take seconds, so the CLI test and the
    acceptance criteria read the same files instead of computing them twice.
    """
    out = tmp_path_factory.mktemp("preset") / "fig2"
    return main(["--preset", "fig2", "--output-dir", str(out)]), out
