"""Entanglement measures of bipartite pure states via their Schmidt vector.

The trace distance of entanglement of a pure state equals the trace-distance
coherence of its Schmidt coefficient vector; the separable state achieving it
is the diagonal embedding of the optimal incoherent state into the Schmidt
product basis.  The matching lower bound rests on a channel that maps any
real PPT state to an incoherent one while fixing Schmidt-form pure states:
the composition of the diagonal twirl with a Kraus channel whose weights are
read off the PPT state itself.  Both channels are implemented in closed form
here so the whole argument can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    ValidationError,
    _require_bipartite_square,
    _require_finite,
    as_density_matrix,
    is_ppt,
)
from .trace_distance import c_tr_pure, nearest_incoherent


class ChannelConstructionError(ValidationError):
    """The channel weights cannot be built from the supplied state."""


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Pure state on an m (x) n space, stored as its coefficient matrix.

    ``amplitudes[i, j]`` multiplies |i>|j>; the matrix is Frobenius-normalized
    on construction.  Dimensions are explicit, never inferred from square
    roots.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.size == 0:
            raise ValidationError("bipartite amplitudes must form a non-empty matrix")
        _require_finite(amps, "bipartite amplitudes")
        norm = float(np.linalg.norm(amps))
        if norm <= 0.0:
            raise ValidationError("bipartite amplitudes must not all be zero")
        object.__setattr__(self, "amplitudes", amps / norm)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amplitudes.shape  # type: ignore[return-value]

    def ket(self) -> np.ndarray:
        """Flattened vector with |i>|j> at position i * n + j."""
        return self.amplitudes.reshape(-1)

    def projector(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Descending Schmidt coefficients with the local bases that realize them.

    ``amplitudes == left @ diag(coefficients) @ right.T`` with orthonormal
    columns on both sides.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.coefficients) @ self.right.T


@dataclass(frozen=True)
class NegativityBoundCheck:
    e_r: float
    two_n: float
    old_bound: float
    holds: bool
    improves: bool


@dataclass(frozen=True)
class ChannelPipelineCheck:
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
    """The Schmidt coefficients packaged as a pure state (they are unit l2)."""
    return PureState(schmidt(v).coefficients)


def e_tr_pure(v) -> float:
    """Trace distance of entanglement of a bipartite pure state."""
    return c_tr_pure(schmidt_vector(v))


def achieving_separable_state(v) -> DensityMatrix:
    """The separable state attaining the trace distance of entanglement.

    Embeds the optimal incoherent state of the Schmidt vector diagonally into
    the Schmidt product basis: sigma = sum_i delta_i |u_i w_i><u_i w_i|.
    """
    data = schmidt(v)
    weights = nearest_incoherent(PureState(data.coefficients)).nearest.diag
    m, n = data.left.shape[0], data.right.shape[0]
    sigma = np.zeros((m * n, m * n), dtype=complex)
    for i, weight in enumerate(weights):
        if weight == 0.0:
            continue
        ket = np.kron(data.left[:, i], data.right[:, i])
        sigma += weight * np.outer(ket, ket.conj())
    return DensityMatrix(sigma)


def negativity_pure(v) -> float:
    """Negativity ((sum_i lambda_i)^2 - 1) / 2 from the Schmidt coefficients."""
    lam = schmidt(v).coefficients
    total = float(np.sum(lam))
    return (total * total - 1.0) / 2.0


def e_r_pure(v) -> float:
    """Relative entropy of entanglement -sum_i lambda_i^2 log2 lambda_i^2."""
    sq = schmidt(v).coefficients ** 2
    support = sq[sq > 0.0]
    return float(-(support @ np.log2(support)))


def check_negativity_bound(v) -> NegativityBoundCheck:
    """Evaluate E_r <= 2N and whether 2N beats the older log2(1 + 2N) bound.

    The new bound is the tighter one exactly when N < 1/2.
    """
    tol = DEFAULT_TOLERANCES.construction
    e_r = e_r_pure(v)
    two_n = 2.0 * negativity_pure(v)
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


def omega_kraus_operators(sigma, local_dim: int, tol: float | None = None) -> list[np.ndarray]:
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
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.channel
    m = _require_bipartite_square(sigma, local_dim, "channel source state")
    n = int(local_dim)
    imag_max = float(np.abs(m.imag).max())
    if imag_max > tol:
        raise ValidationError(
            f"channel source state must be real; largest imaginary part {imag_max:.3e}"
        )
    if not is_ppt(m, n, tol):
        raise ValidationError("channel source state must have positive partial transpose")

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
                excess = abs(off) - population / 2.0
                if excess > tol:
                    raise ChannelConstructionError(
                        f"entry pair ({i},{j}) violates the PPT bound: "
                        f"|sigma_ij,ij| = {abs(off):.17g} exceeds "
                        f"(sigma_ii,jj + sigma_jj,ii)/2 = {population / 2.0:.17g}"
                    )
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
    gap = float(np.abs(completeness - np.eye(n * n)).max())
    if gap > DEFAULT_TOLERANCES.kraus:
        raise ChannelConstructionError(
            f"Kraus completeness violated by {gap:.3e}"
        )
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
    off_mass = float(np.abs(amps).sum() - np.abs(np.diag(amps)).sum())
    diag = np.diag(amps)
    if off_mass > tol or float(np.abs(diag.imag).max()) > tol or float(diag.real.min()) < -tol:
        raise ValidationError(
            "state must be given in Schmidt form: a diagonal coefficient "
            "matrix with non-negative entries"
        )
    return np.maximum(diag.real, 0.0)


def verify_channel_pipeline(sigma, v, tol: float | None = None) -> ChannelPipelineCheck:
    """Run the two-channel pipeline and check both of its guarantees.

    With Phi = Omega_sigma after the diagonal twirl: Phi(sigma) must be
    incoherent (off-diagonal l1 mass below ``tol``) and Phi(|v><v|) must equal
    the projector onto the Schmidt vector of v (trace distance below ``tol``).
    ``v`` must be supplied in Schmidt form.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.channel
    state = as_bipartite_pure(v)
    lam = _schmidt_form_coefficients(state, tol)
    n = lam.size
    sig = as_density_matrix(sigma).matrix
    operators = omega_kraus_operators(sig, n, tol)

    phi_sigma = apply_kraus(operators, diagonal_twirl(sig, n))
    offdiag_mass = float(np.abs(phi_sigma).sum() - np.abs(np.diag(phi_sigma)).sum())

    phi_v = apply_kraus(operators, diagonal_twirl(state.projector(), n))
    target = np.outer(lam, lam)
    gap_eigs = np.linalg.eigvalsh(phi_v - target)
    fixed_point_distance = float(np.abs(gap_eigs).sum())

    return ChannelPipelineCheck(
        incoherent_ok=offdiag_mass < tol,
        fixed_point_ok=fixed_point_distance < tol,
        offdiag_mass=offdiag_mass,
        fixed_point_distance=fixed_point_distance,
    )
