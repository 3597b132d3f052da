import importlib
import math
import pkgutil
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
    QubitParams,
    WalkState,
    build_initial_state,
    coin_matrix,
    distribution,
    gaussian_envelope,
)

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
        with pytest.raises(ValueError):
            QubitParams(alpha, beta)

    def test_amplitudes(self):
        state = build_initial_state(QubitParams(0.75 * math.pi, 0.5), InitialStateSpec.local())
        assert state.up[0] == pytest.approx(math.cos(0.375 * math.pi), abs=1e-15)
        expected = complex(math.cos(0.5), math.sin(0.5)) * math.sin(0.375 * math.pi)
        assert state.down[0] == pytest.approx(expected, abs=1e-15)


class TestLatticeWindow:
    def test_basic(self):
        w = LatticeWindow(-3, 5)
        assert w.size == 9
        assert list(w.sites()) == list(range(-3, 6))
        assert w.index(-3) == 0 and w.index(5) == 8
        assert w.contains(0) and not w.contains(6)
        assert w.contains(LatticeWindow(-1, 2))
        assert not w.contains(LatticeWindow(-4, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatticeWindow(1, 0)

    def test_index_outside_rejected(self):
        with pytest.raises(ValueError):
            LatticeWindow(0, 3).index(4)


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
        with pytest.raises(TypeError):
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
        with pytest.raises(ValueError, match="renormalize"):
            InitialStateSpec(renormalize=True)

    def test_truncation_radius_must_be_an_integer(self):
        with pytest.raises(TypeError):
            InitialStateSpec.gaussian(2.0, 6.9)
        with pytest.raises(ValueError, match="integer truncation_radius"):
            InitialStateSpec(2.0, 6.9)
        radius = InitialStateSpec.gaussian(2.0, np.int64(7)).truncation_radius
        assert radius == 7 and type(radius) is int
        assert InitialStateSpec(2.0, np.int64(7)).support() == (-7, 7)

    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("sigma0", [1e-300, 1e300])
    def test_envelope_must_be_finite_with_nonzero_norm(self, sigma0, renormalize):
        # 1e-300 divides by zero when sampled; 1e300 samples to all zeros
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma0"):
                InitialStateSpec.gaussian(sigma0, renormalize=renormalize)

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
        with pytest.raises(ValueError, match="renormalize"):
            InitialStateSpec.gaussian(sigma0)
        init = InitialStateSpec.gaussian(sigma0, renormalize=True)
        assert abs(init.norm_deficit()) <= 1e-12

    def test_gaussian_envelope_values(self):
        f = gaussian_envelope(10.0, 100)
        assert f.size == 201
        assert f[100] == pytest.approx(F0_SIGMA10, abs=1e-15)
        assert f[105] == pytest.approx(F5_SIGMA10, abs=1e-15)

    def test_envelope_even(self):
        f = gaussian_envelope(3.7, 50)
        assert np.array_equal(f, f[::-1])

    def test_truncation_deficit_reported_not_corrected(self):
        # sigma comparable to the radius leaves a real truncation deficit
        init = InitialStateSpec.gaussian(50.0, 100)
        assert init.norm_deficit() == pytest.approx(DEFICIT_SIGMA50_R100, abs=1e-9)
        small = InitialStateSpec.gaussian(2.0, 7)
        assert small.norm_deficit() == pytest.approx(DEFICIT_SIGMA2_R7, abs=1e-12)

    def test_renormalize_zeroes_the_deficit(self):
        init = InitialStateSpec.gaussian(50.0, 100, renormalize=True)
        assert abs(init.norm_deficit()) <= 1e-12
        f = init.envelope()
        assert np.sum(f * f) == pytest.approx(1.0, abs=1e-14)

    def test_sigma10_radius100_deficit_is_tiny(self):
        # exact value is 8.8e-24; in double precision it reads as ~0
        init = InitialStateSpec.gaussian(10.0, 100)
        assert abs(init.norm_deficit()) < 1e-14


class TestBuildInitialState:
    def test_spin_up_local_state(self):
        state = build_initial_state(QubitParams(0.0, 0.0), InitialStateSpec.local())
        assert state.t == 0
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
        assert state.up[state.window.index(0)].real == pytest.approx(
            A00_SIGMA10_ALPHA_3PI4, abs=1e-15
        )
        assert state.up[state.window.index(0)].imag == 0.0

    def test_window_can_be_presized(self):
        window = LatticeWindow(-10, 10)
        state = build_initial_state(QubitParams(1.0, 1.0), InitialStateSpec.local(), window)
        assert state.window == window
        assert state.support() == (0, 0)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_initial_state(
                QubitParams(1.0, 1.0),
                InitialStateSpec.gaussian(1.0, 10),
                LatticeWindow(-5, 10),
            )

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


class TestWalkState:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WalkState(LatticeWindow(0, 2), np.zeros(3, complex), np.zeros(2, complex))

    def test_embedded_preserves_amplitudes(self):
        state = build_initial_state(QubitParams(1.0, 2.0), InitialStateSpec.gaussian(1.0, 3))
        big = state.embedded(LatticeWindow(-10, 10))
        assert big.window == LatticeWindow(-10, 10)
        assert big.support() == (-3, 3)
        norm = distribution(state).total()
        assert distribution(big).total() == pytest.approx(norm, abs=1e-15)
        with pytest.raises(ValueError):
            state.embedded(LatticeWindow(0, 2))

    def test_support_of_zero_state(self):
        assert WalkState.zero(LatticeWindow(-2, 2)).support() is None


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
