"""Per-site reference walk on a ring, the tests' oracle for the engine.

One step applies each site's 2x2 coin (:func:`coin_matrix`: the
Hadamard, or the NOT gate at the defect) and then shifts spin-up
amplitude one site right and spin-down amplitude one site left, wrapping
around the ends of the window (Nayak and Vishwanath, quant-ph/0010117).
This is the walk the recurrence engine computes, written out literally.
It imports only the package's domain types from :mod:`qwalk1d.core`,
never :mod:`qwalk1d.evolution` or any other module that steps or sums a
walk (``test_oracle.test_oracle_imports_only_the_domain_types`` holds it
to that), so it checks the engine's hand-written slices with none of
their code.  Sites are lattice sites, so the engine and the oracle take
the same :class:`CoinSpec` and :class:`WalkState`; on a ring wider than
the light cone the two agree to rounding, at any scale.
"""

from __future__ import annotations

import numpy as np

from qwalk1d.core import SQRT1_2, CoinSpec, LatticeWindow, WalkState, _integer

# ring_matrix is the one O(M^2) object here
MAX_MATRIX_SITES = 256


def coin_matrix(spec: CoinSpec, j: int) -> np.ndarray:
    """2x2 unitary the coin applies at site ``j`` (a fresh array)."""
    if spec.defect_site is not None and j == spec.defect_site:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) * SQRT1_2


def _ring_coins(window: LatticeWindow, coin: CoinSpec) -> np.ndarray:
    """The ``(M, 2, 2)`` coin of every site of the ring ``window``."""
    if window.size < 3:
        raise ValueError(f"a ring needs at least 3 sites, got {window.size}")
    if coin.defect_site is not None and not window.contains(coin.defect_site):
        raise ValueError(
            f"defect site {coin.defect_site} outside ring [{window.j_min}, {window.j_max}]"
        )
    return np.stack([coin_matrix(coin, j) for j in range(window.j_min, window.j_max + 1)])


def _ring_step(psi: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """One coin-then-shift step of ``(2, M, ...)`` amplitudes (spin, site, ...)."""
    coined = np.einsum("jab,bj...->aj...", coins, psi)
    return np.stack([np.roll(coined[0], 1, axis=0), np.roll(coined[1], -1, axis=0)])


def ring_evolve(state: WalkState, coin: CoinSpec, steps: int) -> WalkState:
    """``state`` after ``steps`` steps on the ring ``state.window`` (a new state)."""
    steps = _integer(steps, "steps", 0)
    coins = _ring_coins(state.window, coin)
    psi = np.stack([state.up, state.down])
    for _ in range(steps):
        psi = _ring_step(psi, coins)
    return WalkState(state.window, psi[0], psi[1])


def ring_matrix(window: LatticeWindow, coin: CoinSpec) -> np.ndarray:
    """The ``2M x 2M`` one-step unitary on the ring ``window``.

    Spin-major: index ``s * M + i`` is spin ``s`` (0 up, 1 down) at site
    ``window.j_min + i``.  Column ``k`` is one step applied to basis
    vector ``k``.
    """
    if window.size > MAX_MATRIX_SITES:
        raise ValueError(f"ring matrix capped at {MAX_MATRIX_SITES} sites, got {window.size}")
    m = window.size
    identity = np.eye(2 * m, dtype=np.complex128).reshape(2, m, 2 * m)
    return _ring_step(identity, _ring_coins(window, coin)).reshape(2 * m, 2 * m)
