import pytest

from qwalk1d.cli import main


def _preset_run(tmp_path_factory, preset: str):
    out = tmp_path_factory.mktemp("preset") / preset
    return main(["--preset", preset, "--output-dir", str(out)]), out


@pytest.fixture(scope="session")
def fig2_preset(tmp_path_factory):
    """Exit code and output directory of one ``--preset fig2`` run, shared by the session.

    The six full-scale ensembles take seconds, so the CLI test and the
    acceptance criteria read the same files instead of computing them twice.
    """
    return _preset_run(tmp_path_factory, "fig2")


@pytest.fixture(scope="session")
def fig3_preset(tmp_path_factory):
    """Exit code and output directory of one ``--preset fig3`` run, shared by the session.

    The CLI's sweep test and criterion 11 read the same eleven ensembles.
    """
    return _preset_run(tmp_path_factory, "fig3")
