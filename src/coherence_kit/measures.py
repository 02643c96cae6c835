"""The l1-norm, relative-entropy, and pure-state robustness coherence measures.

All logarithms are base 2.  On a ``PureState`` every measure is a closed form
in the amplitude moduli and costs O(n); only ``DensityMatrix`` input goes
through the dense n x n computation.
"""

from __future__ import annotations

import warnings
import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import PureState, as_density_matrix, as_pure_state
from .errors import NumericalDriftWarning


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _l1_from_moduli(moduli: np.ndarray) -> float:
    """C_l1 of a pure state from its moduli: sum over j != k of |x_j| |x_k|.

    Computed as 2 m r + (r^2 - sum_{j != i} |x_j|^2), with m = |x_i| the
    largest modulus and r the sum of the others. Every term is at most about
    m r, so near a basis state nothing cancels, unlike a total minus the
    diagonal.
    """
    i = int(np.argmax(moduli))
    rest = np.delete(moduli, i)
    r = float(np.sum(rest))
    return 2.0 * float(moduli[i]) * r + (r * r - float(np.sum(rest * rest)))


def _offdiag_mass(matrix: np.ndarray) -> float:
    """Sum of the moduli of the off-diagonal entries, the diagonal masked out
    (a total minus the diagonal can round below zero)."""
    moduli = np.abs(matrix)
    np.fill_diagonal(moduli, 0.0)
    return float(moduli.sum())


def c_l1(rho) -> float:
    """Sum of the absolute values of the off-diagonal entries.

    For a ``PureState`` this is the closed form of ``_l1_from_moduli``.
    """
    if isinstance(rho, PureState):
        return _l1_from_moduli(rho.moduli())
    return _offdiag_mass(as_density_matrix(rho).matrix)


def von_neumann_entropy(rho) -> float:
    """-tr(rho log2 rho), with eigenvalues clipped to [0, 1] against drift."""
    w = as_density_matrix(rho).eigenvalues
    clipped = max(0.0, -float(w.min())) + max(0.0, float(w.max()) - 1.0)
    if clipped > DEFAULT_TOLERANCES.clip_warn:
        warnings.warn(
            f"eigenvalues clipped by {clipped:.3e} before entropy",
            NumericalDriftWarning,
            stacklevel=2,
        )
    return _entropy_bits(np.clip(w, 0.0, 1.0))


def c_rel_entropy(rho) -> float:
    """Relative entropy of coherence S(rho_diag) - S(rho), in bits.

    For a ``PureState`` S(rho) = 0, so this is the Shannon entropy H(|x_j|^2).
    """
    if isinstance(rho, PureState):
        return max(0.0, _entropy_bits(rho.moduli() ** 2))
    dm = as_density_matrix(rho)
    diag = np.clip(dm.diagonal(), 0.0, 1.0)
    return max(0.0, _entropy_bits(diag) - von_neumann_entropy(dm))


def c_robustness_pure(x) -> float:
    """Robustness of coherence of a pure state, which equals its l1 coherence."""
    return c_l1(as_pure_state(x))
