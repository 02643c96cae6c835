"""Dense reference computations that only the tests use.

The package reports the trace distance of entanglement through the O(k)
weights of the Schmidt vector (``entanglement``'s ``nearest_schmidt_weights``)
and checks C_r <= C_l1 as the negativity bound; the dense (mn)^2 separable
state, the Hermitian norms and the simplex-function inequality live here, as
references the tests compare the closed forms against. Each keeps the input
checks it had in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coherence_kit.config import DEFAULT_TOLERANCES
from coherence_kit.core import (
    DensityMatrix,
    PureState,
    _hermitian_matrix,
    _probability_vector,
    as_pure_state,
)
from coherence_kit.entanglement import schmidt
from coherence_kit.measures import c_l1, c_rel_entropy
from coherence_kit.trace_distance import nearest_incoherent


def trace_norm(matrix) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    w = np.linalg.eigvalsh(_hermitian_matrix(matrix, DEFAULT_TOLERANCES.spectral, "matrix"))
    return float(np.abs(w).sum())


def operator_norm(matrix) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    w = np.linalg.eigvalsh(_hermitian_matrix(matrix, DEFAULT_TOLERANCES.spectral, "matrix"))
    return float(np.abs(w).max())


def f_gap(p) -> float:
    """(sum_i sqrt(p_i))^2 - 1 + sum_i p_i log2 p_i on a probability vector.

    Non-negative on the whole simplex; zero at point masses and at the uniform
    two-outcome vector.
    """
    vec = _probability_vector(p, "probability vector")
    support = vec[vec > 0.0]
    root_sum = float(np.sum(np.sqrt(support)))
    return root_sum * root_sum - 1.0 + float(support @ np.log2(support))


@dataclass(frozen=True)
class L1RelEntCheck:
    c_l1: float
    c_r: float
    lower: float
    holds: bool


def check_l1_vs_relent(x) -> L1RelEntCheck:
    """Evaluate C_l1 >= max{C_r, 2^C_r - 1} for a pure state."""
    state = as_pure_state(x)
    value_l1 = c_l1(state)
    value_r = c_rel_entropy(state)
    lower = max(value_r, 2.0**value_r - 1.0)
    return L1RelEntCheck(
        c_l1=value_l1,
        c_r=value_r,
        lower=lower,
        holds=value_l1 >= lower - DEFAULT_TOLERANCES.construction,
    )


def achieving_separable_state(v) -> DensityMatrix:
    """The separable state attaining the trace distance of entanglement.

    Embeds the optimal incoherent state of the Schmidt vector diagonally into
    the Schmidt product basis: sigma = sum_i delta_i |u_i w_i><u_i w_i|, one
    product K diag(delta) K^dagger of the stacked Schmidt kets K.
    """
    data = schmidt(v)
    weights = nearest_incoherent(PureState(data.coefficients)).nearest.diag
    kets = (data.left[:, None, :] * data.right[None, :, :]).reshape(-1, weights.size)
    return DensityMatrix((kets * weights) @ kets.conj().T)
