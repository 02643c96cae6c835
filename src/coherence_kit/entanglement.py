"""Entanglement measures of bipartite pure states via their Schmidt vector.

The trace distance of entanglement of a pure state equals the trace-distance
coherence of its Schmidt coefficient vector lambda; the separable state
achieving it is the diagonal embedding of the optimal incoherent state into
the Schmidt product basis.  The same reduction gives the negativity
N = C_l1(lambda) / 2 and the relative entropy of entanglement
E_r = C_r(lambda), so each measure here is a coherence measure of lambda.

The matching lower bound rests on a channel that maps any real PPT state to
an incoherent one while fixing Schmidt-form pure states: the composition
Phi = Omega_sigma o twirl of the diagonal twirl with a Kraus channel whose
weights are read off the PPT state sigma itself.  After the twirl a state
has only its populations P[i, j] = M[ij, ij] and its correlation block
C[i, j] = M[ii, jj], so ``verify_channel_pipeline`` applies Phi in closed
form from those d^2 + d^2 entries, in O(d^2), and never builds the d^2 x d^2
projector of the pure state.  The Kraus list (``omega_kraus_operators``), its
dense application (``apply_kraus``) and the dense twirl (``diagonal_twirl``)
are kept as the independent slow reference the closed form is tested
against.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import (
    BipartitePureState,
    PureState,
    _require_bipartite_square,
    as_density_matrix,
    is_ppt,
)
from .errors import DimensionMismatchError, ValidationError
from .measures import _offdiag_mass, c_l1, c_rel_entropy


class ChannelConstructionError(ValidationError):
    """The channel weights cannot be built from the supplied state."""


class SchmidtData(NamedTuple):
    """Descending Schmidt coefficients with the local bases that realize them.

    ``amplitudes == left @ diag(coefficients) @ right.T`` with orthonormal
    columns on both sides.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray


class NegativityBoundCheck(NamedTuple):
    e_r: float
    two_n: float
    old_bound: float
    holds: bool
    improves: bool


class ChannelPipelineCheck(NamedTuple):
    incoherent_ok: bool
    fixed_point_ok: bool
    offdiag_mass: float
    fixed_point_distance: float


def as_bipartite_pure(v) -> BipartitePureState:
    return v if isinstance(v, BipartitePureState) else BipartitePureState(v)


def schmidt(v) -> SchmidtData:
    """Schmidt decomposition from the SVD of the coefficient matrix."""
    state = as_bipartite_pure(v)
    u, sv, vh = np.linalg.svd(state.amplitudes, full_matrices=False)
    return SchmidtData(coefficients=sv, left=u, right=vh.T)


def schmidt_vector(v) -> PureState:
    """The Schmidt coefficients packaged as a pure state (they are unit l2).

    A ``PureState`` x is returned unchanged, without an SVD: it is read as the
    maximally correlated state sum_j x_j |j>|j>, whose Schmidt coefficients
    are the |x_j|, and every measure of the Schmidt vector depends on the
    moduli alone.
    """
    if isinstance(v, PureState):
        return v
    return PureState(np.linalg.svd(as_bipartite_pure(v).amplitudes, compute_uv=False))


def negativity_pure(v) -> float:
    """Negativity N = C_l1(lambda) / 2 of the Schmidt vector lambda."""
    return c_l1(schmidt_vector(v)) / 2.0


def e_r_pure(v) -> float:
    """Relative entropy of entanglement E_r = C_r(lambda) of the Schmidt vector."""
    return c_rel_entropy(schmidt_vector(v))


def check_negativity_bound(v) -> NegativityBoundCheck:
    """Evaluate E_r <= 2N and whether 2N beats the older log2(1 + 2N) bound.

    On the Schmidt vector this is C_r <= C_l1.  The new bound is the tighter
    one exactly when N < 1/2.
    """
    tol = DEFAULT_TOLERANCES.construction
    lam = schmidt_vector(v)
    e_r = e_r_pure(lam)
    two_n = 2.0 * negativity_pure(lam)
    old_bound = float(np.log2(1.0 + two_n))
    return NegativityBoundCheck(
        e_r=e_r,
        two_n=two_n,
        old_bound=old_bound,
        holds=e_r <= two_n + tol,
        improves=two_n < old_bound,
    )


def diagonal_twirl(rho, local_dim: int) -> np.ndarray:
    """Average over conjugations by U (x) conj(U) with diagonal unitary U.

    Closed form, no integration: the output keeps every diagonal entry and
    the off-diagonal entries coupling |ii> with |jj>, and zeroes the rest.
    Trace-preserving, Hermiticity-preserving, idempotent, PPT-preserving.
    """
    m = _require_bipartite_square(rho, local_dim, "state")
    n = int(local_dim)
    out = np.zeros_like(m)
    diag = np.arange(n * n)
    out[diag, diag] = m[diag, diag]
    corr = np.arange(n) * n + np.arange(n)
    out[np.ix_(corr, corr)] = m[np.ix_(corr, corr)]
    return out


def omega_kraus_operators(sigma, local_dim: int) -> list[np.ndarray]:
    """Kraus operators of the incoherence-forcing channel built from a real PPT state.

    The 1 + 2n(n-1) operators map the n (x) n space to an n-dimensional one:

        E_+    = sum_j |j>(<j| (x) <j|)
        E_ij   = (c_ij / sqrt(2)) (|i> - s_ij |j>)(<i| (x) <j|)   for i != j
        F_ij   = sqrt(1 - c_ij^2) |i>(<i| (x) <j|)                for i != j

    with c_ij = sqrt(2 |sigma_ij,ij| / (sigma_ii,jj + sigma_jj,ii)) and s_ij
    the sign of sigma_ij,ij, stored per unordered pair (the expressions are
    symmetric under i <-> j).  Positivity of the partial transpose bounds
    every c_ij by 1.  When the denominator vanishes the same positivity
    forces the off-diagonal entry to vanish too, and c_ij = 0, s_ij = +1 is
    used.  Completeness (sum K^dagger K = I) is checked before returning.
    Every check uses the channel tolerance.
    """
    tol = DEFAULT_TOLERANCES.channel
    m = _channel_source(sigma, local_dim, tol)
    n = int(local_dim)
    operators = []
    e_plus = np.zeros((n, n * n))
    for j in range(n):
        e_plus[j, j * n + j] = 1.0
    operators.append(e_plus)

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            population = float(np.real(m[i * n + j, i * n + j] + m[j * n + i, j * n + i]))
            off = float(np.real(m[i * n + i, j * n + j]))
            if population <= tol:
                c = 0.0
                s = 1.0
            else:
                if abs(off) - population / 2.0 > tol:
                    raise _pair_bound_error(i, j, off, population)
                c = float(np.sqrt(min(1.0, 2.0 * abs(off) / population)))
                s = 1.0 if off >= 0.0 else -1.0
            e_ij = np.zeros((n, n * n))
            e_ij[i, i * n + j] = c / np.sqrt(2.0)
            e_ij[j, i * n + j] = -s * c / np.sqrt(2.0)
            operators.append(e_ij)
            f_ij = np.zeros((n, n * n))
            f_ij[i, i * n + j] = np.sqrt(max(0.0, 1.0 - c * c))
            operators.append(f_ij)

    completeness = sum(op.T @ op for op in operators)
    _require_complete(float(np.abs(completeness - np.eye(n * n)).max()))
    return operators


def apply_kraus(operators: list[np.ndarray], matrix) -> np.ndarray:
    """sum_a K_a M K_a^dagger for a list of Kraus operators."""
    m = np.asarray(matrix, dtype=complex)
    out = np.zeros((operators[0].shape[0],) * 2, dtype=complex)
    for op in operators:
        out += op @ m @ op.conj().T
    return out


def _schmidt_form_coefficients(v: BipartitePureState, tol: float) -> np.ndarray:
    m, n = v.dims
    if m != n:
        raise DimensionMismatchError(
            f"the channel pipeline needs equal local dimensions, got {m} x {n}"
        )
    amps = v.amplitudes
    off_mass = _offdiag_mass(amps)
    diag = np.diag(amps)
    if off_mass > tol or float(np.abs(diag.imag).max()) > tol or float(diag.real.min()) < -tol:
        raise ValidationError(
            "state must be given in Schmidt form: a diagonal coefficient "
            "matrix with non-negative entries"
        )
    return np.maximum(diag.real, 0.0)


def _omega_weights(sigma, local_dim: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The weights c_ij^2 / 2 and signs s_ij of Omega_sigma, all ordered pairs at once.

    The same quantities ``omega_kraus_operators`` puts into its E_ij and F_ij,
    as n x n arrays (zero weight on the diagonal), with the same checks and
    messages: sigma must be real and PPT, every non-degenerate pair must
    satisfy the PPT bound (the first violation in row-major (i, j) order is
    reported), and each column's weights c^2/2 + c^2/2 + (1 - c^2) must sum
    to one, the closed form of Kraus completeness.
    """
    m = _channel_source(sigma, local_dim, tol)
    n = int(local_dim)
    populations, correlations = _twirl_entries(m, n)
    population = populations.real + populations.real.T
    off = correlations.real
    live = population > tol
    np.fill_diagonal(live, False)
    excess = np.where(live, np.abs(off) - population / 2.0, 0.0)
    violations = np.flatnonzero(excess > tol)
    if violations.size:
        i, j = divmod(int(violations[0]), n)
        raise _pair_bound_error(i, j, off[i, j], population[i, j])
    c2 = np.zeros((n, n))
    c2[live] = np.minimum(1.0, 2.0 * np.abs(off[live]) / population[live])
    half = c2 / 2.0
    _require_complete(float(np.abs(half + half + (1.0 - c2) - 1.0).max()))
    return half, np.where(off >= 0.0, 1.0, -1.0)


def _channel_source(sigma, local_dim: int, tol: float) -> np.ndarray:
    """``sigma`` as a d^2 x d^2 complex array, checked to be real and PPT
    within ``tol``: the states the channel weights can be read off."""
    m = _require_bipartite_square(sigma, local_dim, "channel source state")
    imag_max = float(np.abs(m.imag).max())
    if imag_max > tol:
        raise ValidationError(
            f"channel source state must be real; largest imaginary part {imag_max:.3e}"
        )
    if not is_ppt(m, local_dim, tol):
        raise ValidationError("channel source state must have positive partial transpose")
    return m


def _pair_bound_error(i: int, j: int, off: float, population: float) -> ChannelConstructionError:
    """The error for a pair (i, j) with |sigma_ij,ij| above half its population."""
    return ChannelConstructionError(
        f"entry pair ({i},{j}) violates the PPT bound: "
        f"|sigma_ij,ij| = {abs(off):.17g} exceeds "
        f"(sigma_ii,jj + sigma_jj,ii)/2 = {population / 2.0:.17g}"
    )


def _require_complete(gap: float) -> None:
    if gap > DEFAULT_TOLERANCES.kraus:
        raise ChannelConstructionError(f"Kraus completeness violated by {gap:.3e}")


def _twirl_entries(matrix: np.ndarray, local_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of an n^2 x n^2 matrix the diagonal twirl keeps: the
    populations P[i, j] = M[ij, ij] and the correlation block C[i, j] = M[ii, jj]."""
    n = int(local_dim)
    corr = np.arange(n) * (n + 1)
    return np.diagonal(matrix).reshape(n, n), matrix[np.ix_(corr, corr)]


def _pure_twirl_entries(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_twirl_entries`` of |v><v| read off the n x n amplitude matrix a of v:
    P[i, j] = |a_ij|^2 and C[i, j] = a_ii conj(a_jj)."""
    diag = np.diag(amplitudes)
    return np.abs(amplitudes) ** 2, np.outer(diag, diag.conj())


def _omega_after_twirl(
    half: np.ndarray, signs: np.ndarray, populations: np.ndarray, correlations: np.ndarray
) -> np.ndarray:
    """Omega_sigma(twirl(M)) in closed form from the populations and correlation block of M.

    E_+ carries the correlation block over as it is.  For each pair i != j,
    E_ij moves c_ij^2/2 of P[i, j] onto the 2 x 2 block of (|i> - s_ij |j>)
    and F_ij moves the remaining 1 - c_ij^2 onto |i><i|:

        out[i, i] = C[i, i] + sum_{j != i} (1 - c_ij^2/2) P[i, j] + (c_ji^2/2) P[j, i]
        out[i, j] = C[i, j] - s_ij (c_ij^2/2) P[i, j] - s_ji (c_ji^2/2) P[j, i]
    """
    moved = half * populations
    kept = populations - moved
    np.fill_diagonal(kept, 0.0)  # P[i, i] is C[i, i], which E_+ carries
    signed = signs * moved
    out = correlations - signed - signed.T
    out[np.diag_indices_from(out)] += kept.sum(axis=1) + moved.sum(axis=0)
    return out


def verify_channel_pipeline(sigma, v, tol: float | None = None) -> ChannelPipelineCheck:
    """Run the two-channel pipeline and check both of its guarantees.

    With Phi = Omega_sigma after the diagonal twirl: Phi(sigma) must be
    incoherent (off-diagonal l1 mass below ``tol``) and Phi(|v><v|) must equal
    the projector onto the Schmidt vector of v (trace distance below ``tol``).
    ``v`` must be supplied in Schmidt form.

    Phi is applied in closed form (``_omega_after_twirl``) from the populations
    and correlation block of each input; those of |v><v| are read off the
    amplitude matrix of v.  Besides sigma, an input, and its partial
    transpose, nothing larger than d x d is formed: the cost is O(d^2) plus one
    d x d ``eigvalsh`` and the checks of sigma, of which the PPT check is one
    real d^2 x d^2 Cholesky factorization (``core._cholesky_accepts``; a
    complex or borderline sigma falls back to ``eigvalsh``).
    ``apply_kraus(omega_kraus_operators(sigma, d), diagonal_twirl(M, d))`` is
    the slow reference for the same map.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.channel
    state = as_bipartite_pure(v)
    lam = _schmidt_form_coefficients(state, tol)
    n = lam.size
    sig = as_density_matrix(sigma).matrix
    half, signs = _omega_weights(sig, n, tol)

    phi_sigma = _omega_after_twirl(half, signs, *_twirl_entries(sig, n))
    # Completeness, second half: the map preserves the trace of sigma.
    _require_complete(abs(complex(np.trace(phi_sigma) - np.trace(sig))))
    offdiag_mass = _offdiag_mass(phi_sigma)

    phi_v = _omega_after_twirl(half, signs, *_pure_twirl_entries(state.amplitudes))
    gap_eigs = np.linalg.eigvalsh(phi_v - np.outer(lam, lam))
    fixed_point_distance = float(np.abs(gap_eigs).sum())

    return ChannelPipelineCheck(
        incoherent_ok=offdiag_mass < tol,
        fixed_point_ok=fixed_point_distance < tol,
        offdiag_mass=offdiag_mass,
        fixed_point_distance=fixed_point_distance,
    )
