import ast
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qwalk1d
from qwalk1d import (
    CoinSpec,
    EvolutionPlan,
    LatticeWindow,
    QubitParams,
    WalkState,
    reachable_window,
    recorded_steps,
)
from qwalk1d.core import InitialStateSpec
from oracle import ring_evolve, ring_matrix
from walks import build_initial_state

SQRT1_2 = 1.0 / np.sqrt(2.0)


def test_oracle_imports_only_the_domain_types():
    """The oracle checks the engine only while it shares none of the engine's code."""
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    submodules = {info.name for info in pkgutil.iter_modules(qwalk1d.__path__)}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module == "qwalk1d":
                imported |= {f"qwalk1d.{a.name}" for a in node.names if a.name in submodules}
    package = {name for name in imported if name.split(".")[0] == "qwalk1d"}
    assert package <= {"qwalk1d", "qwalk1d.core"}, sorted(package)


def test_ring_operator_is_unitary():
    for coin in (CoinSpec.hadamard(), CoinSpec.not_defect(1)):
        u = ring_matrix(LatticeWindow(0, 4), coin)
        assert np.abs(u @ u.conj().T - np.eye(10)).max() <= 1e-12


def test_hadamard_columns_have_two_entries():
    u = ring_matrix(LatticeWindow(0, 2), CoinSpec.hadamard())
    nonzero_per_col = (np.abs(u) > 0).sum(axis=0)
    assert np.all(nonzero_per_col == 2)
    magnitudes = np.abs(u[np.abs(u) > 0])
    assert np.allclose(magnitudes, SQRT1_2, atol=1e-15)


def test_defect_columns_are_permutation_like():
    u = ring_matrix(LatticeWindow(0, 2), CoinSpec.not_defect(1))
    for spin in (0, 1):
        col = u[:, spin * 3 + 1]
        nonzero = np.abs(col) > 0
        assert nonzero.sum() == 1
        assert np.abs(col[nonzero][0]) == pytest.approx(1.0, abs=1e-15)


def test_zero_steps_is_identity():
    rng = np.random.default_rng(3)
    state = WalkState(
        LatticeWindow(-2, 1),
        rng.normal(size=4) + 1j * rng.normal(size=4),
        rng.normal(size=4) + 1j * rng.normal(size=4),
    )
    out = ring_evolve(state, CoinSpec.hadamard(), 0)
    assert np.array_equal(out.up, state.up) and np.array_equal(out.down, state.down)
    assert out.up is not state.up and out.down is not state.down


def test_two_step_distribution_on_ring():
    state = WalkState.zero(LatticeWindow(-32, 31))
    origin = -state.window.j_min
    state.up[origin] = 1.0  # spin up at the origin
    out = ring_evolve(state, CoinSpec.hadamard(), 2)
    p = np.abs(out.up) ** 2 + np.abs(out.down) ** 2
    assert p[origin - 2] == pytest.approx(0.25, abs=1e-15)
    assert p[origin] == pytest.approx(0.5, abs=1e-15)
    assert p[origin + 2] == pytest.approx(0.25, abs=1e-15)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_ring_matrix_columns_are_single_steps():
    ring = LatticeWindow(-3, 4)
    rng = np.random.default_rng(5)
    for coin in (CoinSpec.hadamard(), CoinSpec.not_defect(-3)):
        state = WalkState(ring, rng.normal(size=8) + 1j, rng.normal(size=8) - 1j)
        out = ring_evolve(state, coin, 1)
        vec = ring_matrix(ring, coin) @ np.concatenate([state.up, state.down])
        assert np.abs(vec - np.concatenate([out.up, out.down])).max() <= 1e-15


def test_uniform_equals_defect_outside_light_cone():
    ring = LatticeWindow(0, 15)
    plain = ring_matrix(ring, CoinSpec.hadamard())
    # the defect changes only its own columns; everywhere else the
    # operators are identical
    defected = ring_matrix(ring, CoinSpec.not_defect(0))
    cols = [c for c in range(32) if c % 16 != 0]
    assert np.array_equal(plain[:, cols], defected[:, cols])


def test_engine_matches_oracle_small():
    ring, steps = LatticeWindow(-16, 15), 12
    rng = np.random.default_rng(11)
    for coin in (CoinSpec.hadamard(), CoinSpec.not_defect(-3)):
        for _ in range(4):
            qubit = QubitParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            assert ring.contains(reachable_window((0, 0), coin, steps))  # so nothing wraps
            oracle = build_initial_state(qubit, InitialStateSpec.local(), ring)
            plan = EvolutionPlan(coin, steps)
            walk = recorded_steps(oracle.up, oracle.down, plan, ring)
            next(walk)  # t = 0
            for up, down, _ in walk:
                oracle = ring_evolve(oracle, coin, 1)
                assert np.abs(oracle.up - up).max() <= 1e-12
                assert np.abs(oracle.down - down).max() <= 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        ring_matrix(LatticeWindow(0, 1), CoinSpec.hadamard())
    with pytest.raises(ValueError):
        ring_matrix(LatticeWindow(0, 299), CoinSpec.hadamard())
    with pytest.raises(ValueError):
        ring_matrix(LatticeWindow(0, 7), CoinSpec.not_defect(8))
    state = WalkState.zero(LatticeWindow(-4, 3))
    with pytest.raises(ValueError):
        ring_evolve(state, CoinSpec.hadamard(), -1)
    with pytest.raises(ValueError, match="integer"):
        ring_evolve(state, CoinSpec.hadamard(), 2.5)
    ring_evolve(state, CoinSpec.hadamard(), np.int64(2))  # a numpy integer is a step count
    for outside in (-5, 4):
        with pytest.raises(ValueError, match="outside ring"):
            ring_evolve(state, CoinSpec.not_defect(outside), 1)
