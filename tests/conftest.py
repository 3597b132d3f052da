import pytest

import golden_digests


@pytest.fixture(scope="session")
def full_scale_presets(tmp_path_factory):
    """``--preset fig1|fig2|fig3`` as they ship, run once for the session.

    The 20 full-scale sub-runs take seconds, so they run once, in the
    pinned-BLAS child of :func:`golden_digests.measure`, which raises unless
    every run exits 0.  Returns that measurement (the golden test compares
    it) and the root of the output, one directory per preset.
    """
    out = tmp_path_factory.mktemp("presets")
    return golden_digests.measure(full=True, output_dir=out), out


@pytest.fixture(scope="session")
def fig2_preset(full_scale_presets):
    """The ``--preset fig2`` output: the CLI test and the acceptance criteria read its six ensembles."""
    return full_scale_presets[1] / "fig2"


@pytest.fixture(scope="session")
def fig3_preset(full_scale_presets):
    """The ``--preset fig3`` output: the CLI's sweep test and criterion 11 read its eleven ensembles."""
    return full_scale_presets[1] / "fig3"
