import builtins
import dataclasses
import importlib
import math
import pkgutil
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk1d
from qwalk1d import (
    CoinSpec,
    InitialStateSpec,
    LatticeWindow,
    QubitGrid,
    QubitParams,
    WalkState,
    make_qubit_grid,
)
from qwalk1d.core import DEFAULT_TRUNCATION_RADIUS, _coefficients, _product_states
from oracle import coin_matrix
from readme_example import library_section, run_library_example
from walks import build_initial_state, distribution

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
NOT = np.array([[0, 1], [1, 0]])

# independently evaluated envelope values (40-digit arithmetic)
F0_SIGMA10 = 0.199735395060923711
F5_SIGMA10 = 0.187634039226441927
A00_SIGMA10_ALPHA_3PI4 = 0.0764354265467114844
DEFICIT_SIGMA50_R100 = 0.044427643313633661
DEFICIT_SIGMA2_R7 = 0.00015141473620874929


class TestQubitParams:
    def test_boundary_angles_allowed(self):
        QubitParams(0.0, 0.0)
        QubitParams(math.pi, 2 * math.pi)

    @pytest.mark.parametrize("alpha,beta", [(-0.1, 0.0), (math.pi + 1e-9, 0.0),
                                            (0.0, -0.1), (0.0, 2 * math.pi + 1e-9),
                                            (math.nan, 0.0), (0.0, math.inf)])
    def test_out_of_range_rejected(self, alpha, beta):
        """A qubit grid rejects the same angles with the same message."""
        with pytest.raises(ValueError) as single:
            QubitParams(alpha, beta)
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            QubitGrid(np.array([1.0, alpha]), np.array([1.0, beta]))

    def test_amplitudes(self):
        state = build_initial_state(QubitParams(0.75 * math.pi, 0.5), InitialStateSpec.local())
        assert state.up[0] == pytest.approx(math.cos(0.375 * math.pi), abs=1e-15)
        expected = complex(math.cos(0.5), math.sin(0.5)) * math.sin(0.375 * math.pi)
        assert state.down[0] == pytest.approx(expected, abs=1e-15)


REAL_INPUTS = {
    "alpha": lambda x: QubitParams(x, 0.0),
    "beta": lambda x: QubitParams(0.0, x),
    "sigma0": lambda x: InitialStateSpec(x),
    "sigma0_factory": lambda x: InitialStateSpec.gaussian(x),
    "alpha_step": lambda x: make_qubit_grid(x, 0.1),
    "beta_step": lambda x: make_qubit_grid(0.1, x),
    "alpha_grid": lambda x: QubitGrid(np.array([x]), np.array([0.0])),
    "beta_grid": lambda x: QubitGrid(np.array([0.0]), np.array([x])),
}


@pytest.mark.parametrize(
    "value", [True, np.bool_(True), "1.0", 1j], ids=["bool", "numpy_bool", "str", "complex"]
)
@pytest.mark.parametrize("name", REAL_INPUTS)
def test_real_inputs_reject_non_reals(name, value):
    # a bool would reach a manifest as "True", which no flag parses back
    what = name.removesuffix("_factory").removesuffix("_grid")
    with pytest.raises(ValueError, match=f"{what} must be a real number"):
        REAL_INPUTS[name](value)


def test_real_inputs_are_stored_as_python_floats():
    qubit = QubitParams(np.float32(0.5), np.int64(1))
    assert (qubit.alpha, qubit.beta) == (0.5, 1.0)
    assert type(qubit.alpha) is float and type(qubit.beta) is float
    sigma0 = InitialStateSpec.gaussian(np.float32(2.5)).sigma0
    assert sigma0 == 2.5 and type(sigma0) is float
    assert len(make_qubit_grid(np.float32(0.5), 1)) == 7 * 7


class TestLatticeWindow:
    def test_basic(self):
        w = LatticeWindow(-3, 5)
        assert w.size == 9
        assert list(w.sites()) == list(range(-3, 6))
        assert w.contains(0) and not w.contains(6)
        assert w.contains(LatticeWindow(-1, 2))
        assert not w.contains(LatticeWindow(-4, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatticeWindow(1, 0)


class TestCoin:
    def test_uniform_hadamard_everywhere(self):
        spec = CoinSpec.hadamard()
        assert np.allclose(coin_matrix(spec, 5), HADAMARD, atol=1e-16)
        assert np.allclose(coin_matrix(spec, -1000), HADAMARD, atol=1e-16)

    def test_defect_site_is_exact_not_gate(self):
        spec = CoinSpec.not_defect(-101)
        assert np.array_equal(coin_matrix(spec, -101), NOT)

    def test_neighbor_of_defect_is_hadamard(self):
        spec = CoinSpec.not_defect(-101)
        assert np.allclose(coin_matrix(spec, -100), HADAMARD, atol=1e-16)

    def test_spec_validation(self):
        assert CoinSpec() == CoinSpec.hadamard()
        assert CoinSpec(3) == CoinSpec.not_defect(3)

    def test_factory_takes_only_integer_sites(self):
        with pytest.raises(ValueError):
            CoinSpec.not_defect(-101.7)
        with pytest.raises(ValueError):
            CoinSpec(defect_site=-101.7)
        site = CoinSpec.not_defect(np.int32(-101)).defect_site
        assert site == -101 and type(site) is int

    @given(j=st.integers(-10**6, 10**6), r=st.integers(-10**6, 10**6))
    def test_coin_always_unitary(self, j, r):
        for spec in (CoinSpec.hadamard(), CoinSpec.not_defect(r)):
            c = coin_matrix(spec, j)
            assert np.abs(c @ c.conj().T - np.eye(2)).max() <= 1e-15


class TestInitialStateSpec:
    def test_local_support_and_envelope(self):
        init = InitialStateSpec.local()
        assert init == InitialStateSpec()
        assert init.support() == (0, 0)
        assert np.array_equal(init.envelope(), [1.0])
        assert init.norm_deficit() == 0.0

    def test_gaussian_requires_valid_params(self):
        with pytest.raises(ValueError):
            InitialStateSpec.gaussian(0.0)
        with pytest.raises(ValueError):
            InitialStateSpec.gaussian(-1.0)
        with pytest.raises(ValueError):
            InitialStateSpec.gaussian(1.0, truncation_radius=0)
        with pytest.raises(ValueError, match="truncation radius"):
            InitialStateSpec(truncation_radius=5)

    def test_constructor_and_factory_share_the_default_radius(self):
        built = InitialStateSpec(2.0)
        assert built == InitialStateSpec.gaussian(2.0)
        assert built.truncation_radius == DEFAULT_TRUNCATION_RADIUS == 100
        assert built.support() == (-100, 100)
        with pytest.raises(ValueError, match="truncation radius"):
            InitialStateSpec(None, DEFAULT_TRUNCATION_RADIUS)

    def test_truncation_radius_must_be_an_integer(self):
        with pytest.raises(ValueError):
            InitialStateSpec.gaussian(2.0, 6.9)
        with pytest.raises(ValueError, match="truncation_radius must be an integer >= 1"):
            InitialStateSpec(2.0, 6.9)
        radius = InitialStateSpec.gaussian(2.0, np.int64(7)).truncation_radius
        assert radius == 7 and type(radius) is int
        assert InitialStateSpec(2.0, np.int64(7)).support() == (-7, 7)

    @pytest.mark.parametrize("sigma0", [1e-300, 1e300])
    def test_envelope_must_be_finite_with_nonzero_norm(self, sigma0):
        # 1e-300 divides by zero when sampled; 1e300 samples to all zeros (a radius
        # left out would follow 1e300 past MAX_SITES before sampling)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma0"):
                InitialStateSpec.gaussian(sigma0, 100)

    @pytest.mark.parametrize(
        "sigma0, radius", [(0.9, 100), (1.0, 100), (10.0, 100), (10.5, 105), (20.0, 200), (50.0, 500)]
    )
    def test_radius_left_out_cuts_at_ten_sigma(self, sigma0, radius):
        """A radius left out is max(DEFAULT_TRUNCATION_RADIUS, ceil(10 sigma0))."""
        init = InitialStateSpec(sigma0)
        assert init.truncation_radius == radius and type(init.truncation_radius) is int
        assert init == InitialStateSpec.gaussian(sigma0) == InitialStateSpec(sigma0, radius)

    def test_given_radius_is_used_as_given(self):
        assert InitialStateSpec(20.0, 40).truncation_radius == 40
        # sigma0=50 loses DEFICIT_SIGMA50_R100 (4.4%) at radius 100, and nothing a
        # double resolves at the 500 its own cut takes
        assert abs(InitialStateSpec(50.0).norm_deficit()) < 1e-14

    @pytest.mark.parametrize("sigma0", [1e6, 1e308, np.finfo(np.float64).max])
    def test_radius_from_a_huge_sigma0_is_capped_before_ceil(self, sigma0):
        # 10 * 1e308 is inf, whose ceil raises OverflowError unless capped first
        with pytest.raises(ValueError, match="MAX_SITES"):
            InitialStateSpec(sigma0)

    def test_radius_capped_before_sampling(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_SITES"):
                InitialStateSpec.gaussian(1.0, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("sigma0", [0.001, 0.5, 0.8])
    def test_unrenormalized_envelope_above_unit_norm_rejected(self, sigma0):
        # aliasing lifts sum f^2 above 1 by ~2 exp(-2 pi^2 sigma0^2): 6.5e-6 at 0.8
        with pytest.raises(ValueError, match="not a state; the lattice needs sigma0 above about 0.86"):
            InitialStateSpec.gaussian(sigma0)

    def test_gaussian_envelope_values(self):
        f = InitialStateSpec.gaussian(10.0, 100).envelope()
        assert f.size == 201
        assert f[100] == pytest.approx(F0_SIGMA10, abs=1e-15)
        assert f[105] == pytest.approx(F5_SIGMA10, abs=1e-15)

    def test_envelope_even(self):
        f = InitialStateSpec.gaussian(3.7, 50).envelope()
        assert np.array_equal(f, f[::-1])

    def test_truncation_deficit_reported_not_corrected(self):
        # sigma comparable to the radius leaves a real truncation deficit
        init = InitialStateSpec.gaussian(50.0, 100)
        assert init.norm_deficit() == pytest.approx(DEFICIT_SIGMA50_R100, abs=1e-9)
        small = InitialStateSpec.gaussian(2.0, 7)
        assert small.norm_deficit() == pytest.approx(DEFICIT_SIGMA2_R7, abs=1e-12)

    def test_sigma10_radius100_deficit_is_tiny(self):
        # exact value is 8.8e-24; in double precision it reads as ~0
        init = InitialStateSpec.gaussian(10.0, 100)
        assert abs(init.norm_deficit()) < 1e-14


class TestBuildInitialState:
    def test_spin_up_local_state(self):
        state = build_initial_state(QubitParams(0.0, 0.0), InitialStateSpec.local())
        assert state.window == LatticeWindow(0, 0)
        assert state.up[0] == 1.0 + 0.0j
        assert state.down[0] == 0.0 + 0.0j

    def test_local_norm_exactly_one(self):
        for alpha, beta in [(0.3, 1.1), (math.pi, 2 * math.pi), (2.2, 4.0)]:
            state = build_initial_state(QubitParams(alpha, beta), InitialStateSpec.local())
            assert distribution(state).total() == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_amplitude_at_origin(self):
        state = build_initial_state(
            QubitParams(0.75 * math.pi, 0.0), InitialStateSpec.gaussian(10.0, 100)
        )
        assert state.up[-state.window.j_min].real == pytest.approx(
            A00_SIGMA10_ALPHA_3PI4, abs=1e-15
        )
        assert state.up[-state.window.j_min].imag == 0.0

    def test_window_can_be_presized(self):
        window = LatticeWindow(-10, 10)
        state = build_initial_state(QubitParams(1.0, 1.0), InitialStateSpec.local(), window)
        assert state.window == window
        assert np.flatnonzero(distribution(state).p_total).tolist() == [-window.j_min]

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_initial_state(
                QubitParams(1.0, 1.0),
                InitialStateSpec.gaussian(1.0, 10),
                LatticeWindow(-5, 10),
            )

    @pytest.mark.parametrize(
        "window", [LatticeWindow(-5, 3), LatticeWindow(-3, 8)], ids=["short_right", "short_left"]
    )
    def test_batch_builder_rejects_window_short_of_support(self, window):
        """The batch builder holds the cover rule, on either side of the support."""
        c, s = np.array([1.0, 0.6]), np.array([0.0, 0.8j])
        with pytest.raises(ValueError, match="does not cover initial support"):
            _product_states(InitialStateSpec.gaussian(2.0, 5), window, c, s)

    @given(
        alpha=st.floats(0.0, math.pi, allow_nan=False),
        beta=st.floats(0.0, 2 * math.pi, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_sitewise_weight_equals_envelope(self, alpha, beta):
        init = InitialStateSpec.gaussian(2.0, 12)
        state = build_initial_state(QubitParams(alpha, beta), init)
        f = init.envelope()
        weight = np.abs(state.up) ** 2 + np.abs(state.down) ** 2
        assert np.abs(weight - f * f).max() <= 1e-15


class TestCoefficients:
    ALPHAS = np.linspace(0.0, math.pi, 9)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_betas_give_real_sines(self, zero):
        """All betas 0 give a float64 ``s``, exactly the real part the complex rule gives."""
        alphas = self.ALPHAS
        c, s = _coefficients(alphas, np.full(alphas.size, zero))
        assert c.dtype == s.dtype == np.float64
        assert np.array_equal(c, np.cos(alphas / 2))
        assert np.array_equal(s, np.sin(alphas / 2))
        assert np.array_equal(s, (np.exp(1j * np.zeros(alphas.size)) * np.sin(alphas / 2)).real)

    @pytest.mark.parametrize("at, beta", [(0, 5e-324), (4, 1.0), (8, 2 * math.pi)])
    def test_one_nonzero_beta_makes_every_s_complex(self, at, beta):
        alphas, betas = self.ALPHAS, np.zeros(self.ALPHAS.size)
        betas[at] = beta
        c, s = _coefficients(alphas, betas)
        assert c.dtype == np.float64 and s.dtype == np.complex128
        assert np.array_equal(s, np.exp(1j * betas) * np.sin(alphas / 2))


class TestWalkState:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WalkState(LatticeWindow(0, 2), np.zeros(3, complex), np.zeros(2, complex))

    def test_fields_are_window_and_amplitudes(self):
        assert [f.name for f in dataclasses.fields(WalkState)] == ["window", "up", "down"]

    def test_zero_is_empty_over_its_window(self):
        state = WalkState.zero(LatticeWindow(-2, 3))
        for amplitudes in (state.up, state.down):
            assert amplitudes.dtype == np.complex128 and amplitudes.shape == (6,)
            assert not amplitudes.any()
        state.up[0] = 1.0  # the two components are separate arrays
        assert not state.down.any()

    def test_amplitudes_are_stored_contiguous_in_at_least_float64(self):
        strided = np.arange(6.0)[::2]
        state = WalkState(LatticeWindow(0, 2), [1, 0, 0], strided)  # integers become float64
        for amplitudes, expected in ((state.up, [1, 0, 0]), (state.down, [0, 2, 4])):
            assert amplitudes.dtype == np.float64 and amplitudes.flags.c_contiguous
            assert amplitudes.tolist() == expected
        mixed = WalkState(LatticeWindow(0, 1), np.ones(2, np.float32), np.array([0, 1j], np.complex64))
        assert mixed.up.dtype == mixed.down.dtype == np.complex128


# the package and every submodule but the `python -m` entry point, which exports nothing
PUBLIC_MODULES = ["qwalk1d"] + [
    f"qwalk1d.{info.name}"
    for info in pkgutil.iter_modules(qwalk1d.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def _readme_library_names() -> set[str]:
    """Every identifier README's Library section names: ``qw.`` uses and backticked names."""
    section = library_section()
    names = set(re.findall(r"\bqw\.([A-Za-z_][\w.]*)", section))
    return names | set(re.findall(r"`([A-Za-z_][\w.]*)`", section))


def _package_names() -> set[str]:
    """Names a reader can find in the package: module attributes and class members."""
    names = set()
    for module in map(importlib.import_module, PUBLIC_MODULES):
        for name, value in vars(module).items():
            names.add(name)
            if isinstance(value, type) and value.__module__ == module.__name__:
                names |= set(dir(value))
                if dataclasses.is_dataclass(value):
                    names |= {f.name for f in dataclasses.fields(value)}
    return names


def _resolves(name: str, known: set[str]) -> bool:
    """A plain name is known; a dotted one is an attribute path from the package."""
    if "." not in name:
        return name in known
    missing = object()
    value = qwalk1d
    for part in name.split("."):
        value = getattr(value, part, missing)
        if value is missing:
            return False
    return True


def test_readme_library_section_matches_exports():
    """The Library section names every public name, and nothing the package lacks."""
    named = _readme_library_names()
    unnamed = [name for name in qwalk1d.__all__ if name not in named]
    assert not unnamed, f"qwalk1d.__all__ names missing from README's Library section: {unnamed}"
    known = _package_names() | set(dir(builtins))
    stale = sorted(name for name in named if not _resolves(name, known))
    assert not stale, f"README's Library section names what the package lacks: {stale}"


@pytest.mark.slow
def test_readme_library_example_runs(capsys):
    """The section's example runs at full scale, and its two results are the documented type.

    ``record``, the single walk, is a one-qubit result with a norm series;
    ``result``, the 2016-qubit ensemble, takes the linear path, which has none.
    """
    example = run_library_example()
    record, result = example["record"], example["result"]
    assert isinstance(record, qwalk1d.EnsembleResult) and isinstance(result, qwalk1d.EnsembleResult)
    assert record.qubit_count == 1 and record.norm.shape == record.times.shape == (3001,)
    assert result.qubit_count == 2016 and result.norm is None
    assert capsys.readouterr().out.count("\n") == 2  # its two print lines
