"""Exact optimality certificates for nearest-incoherent-state candidates.

The feasible perturbations of a diagonal state D are the traceless diagonals
F with D - F still a state; that set has at most n extreme points, one per
index, given by f_j = d_j for j != i and f_i = d_i - 1.  A candidate D is the
trace-norm minimizer for a pure state exactly when <v|F_i|v> >= 0 for every
extreme point, where v is the top eigenvector of |x><x| - D.

No n x n matrix is formed for that eigenvector.  |x><x| - D is a rank-one
update of the diagonal matrix -D, so its eigenvalues interlace those of -D:
exactly one of them, lambda, lies above -min_j d_j <= 0, and every other one
is at most -min_j d_j.  For a coherent x, lambda > 0 is the unique positive
root of the secular equation

    sum_j |x_j|^2 / (lambda + d_j) = 1,

whose left side is strictly decreasing and convex in lambda > 0, and the
eigenvector is v_j proportional to x_j / (lambda + d_j) (Golub 1973, "Some
modified matrix eigenvalue problems"; Bunch, Nielsen & Sorensen 1978).  A
bracketed Newton solve therefore gives the certificate in O(n) per step.

For mixed states the analogous dual witness is the Hermitian unitary built
from the spectral signs of A - D, which is forced (hence the certificate is
exact) whenever A - D is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import (
    InconclusiveCertificateError,
    ValidationError,
    as_density_matrix,
    as_incoherent_state,
    as_pure_state,
    hermitian_eig,
)
from .measures import _l1_from_moduli

# Newton steps from the left of the root stay left of it and converge
# quadratically; a step that leaves the bracket is replaced by bisection.  The
# root is reached to a few ulps in well under this many steps (about 60 on
# roots near 1e-11, under 10 on random states).
_SECULAR_MAX_STEPS = 200


class IncoherentInputError(ValidationError):
    """The input state is already incoherent, so the certificate is vacuous."""


class NonInvertibleDifferenceError(ValidationError):
    """A - D is singular; that case needs a semidefinite feasibility search."""


@dataclass(frozen=True)
class PureCertificate:
    optimal: bool
    margin: float


@dataclass(frozen=True)
class MixedCertificate:
    certified: bool
    margin: float


def _coherent_moduli_or_raise(state) -> np.ndarray:
    moduli = state.moduli()
    if _l1_from_moduli(moduli) < DEFAULT_TOLERANCES.construction:
        raise IncoherentInputError(
            "state is incoherent: its trace distance to the incoherent set is 0 "
            "and the optimality certificate is vacuous"
        )
    return moduli


def _candidate_diagonal(delta, dim: int) -> np.ndarray:
    """The diagonal of the incoherent candidate ``delta``, checked to have ``dim`` entries."""
    d = as_incoherent_state(delta).diag
    if d.size != dim:
        raise ValidationError(f"candidate dimension {d.size} does not match state dimension {dim}")
    return d


def _secular_root(weights: np.ndarray, d: np.ndarray, lo: float, hi: float) -> float:
    """The root in [lo, hi] of sum_j weights_j / (lam + d_j) = 1, with lo >= 0.

    The left side is convex and decreasing, so a Newton step from the left of
    the root stays left of it; a step that leaves the bracket (lo, hi) is
    replaced by bisection.  Every iterate is strictly positive.
    """
    lam = hi
    for _ in range(_SECULAR_MAX_STEPS):
        inv = 1.0 / (lam + d)
        terms = weights * inv
        g = float(np.sum(terms)) - 1.0
        if g > 0.0:
            lo = lam
        elif g < 0.0:
            hi = lam
        else:
            return lam
        step = lam + g / float(terms @ inv)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - lam) <= 4.0 * np.finfo(float).eps * step:
            return step
        lam = step
    return lam


def verify_pure_optimality(x, delta, tol: float | None = None) -> PureCertificate:
    """Check whether D is the nearest incoherent state of the pure state x.

    Finds the positive eigenvalue lambda of |x><x| - D as the root of
    sum_j |x_j|^2 / (lambda + d_j) = 1, bracketed by
    [max(0, max_j (|x_j|^2 - d_j), 1 - sum_j d_j |x_j|^2), 1], takes the top
    eigenvector v_j proportional to x_j / (lambda + d_j), and returns the
    margin min_i (sum_j d_j |v_j|^2 - |v_i|^2).  The candidate is optimal
    exactly when the margin is non-negative (within ``tol``).  Time and memory
    are O(n); no n x n matrix is formed.

    Raises
    ------
    IncoherentInputError
        If x itself is incoherent (the distance is trivially zero).
    InconclusiveCertificateError
        If lambda <= ``tol``.  Every other eigenvalue is <= 0 by interlacing,
        so then no eigenvalue stands clear of the rest of the spectrum and the
        top eigenvector is not determined.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.certificate
    state = as_pure_state(x)
    weights = _coherent_moduli_or_raise(state) ** 2
    d = _candidate_diagonal(delta, state.dim)

    lo = max(0.0, float(np.max(weights - d)), 1.0 - float(d @ weights))
    lam = _secular_root(weights, d, lo, 1.0)
    if lam <= tol:
        raise InconclusiveCertificateError(
            f"expected exactly one eigenvalue above {tol:g}, found none: the "
            f"positive eigenvalue {lam:.3e} of |x><x| - D is within tolerance of "
            "the rest of the spectrum; certificate inconclusive"
        )
    v_sq = weights / (lam + d) ** 2
    v_sq /= float(np.sum(v_sq))
    margin = float(d @ v_sq - v_sq.max())
    return PureCertificate(optimal=margin >= -tol, margin=margin)


def verify_mixed_invertible(rho, delta, tol: float | None = None) -> MixedCertificate:
    """Certify a nearest-incoherent candidate for a mixed state A when A - D is invertible.

    Builds the dual witness H = U (I_p (+) -I_q) U* from the spectral
    decomposition of A - D, checks the duality identity
    tr((A - D) H) = ||A - D||_tr, and evaluates the margin min_i tr(F_i H)
    over the extreme perturbations.  For invertible A - D the witness is
    forced, so ``certified=False`` means the candidate is not optimal.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.certificate
    a = as_density_matrix(rho).matrix
    d = _candidate_diagonal(delta, a.shape[0])

    difference = a - np.diag(d)
    decomposition = hermitian_eig(difference)
    w = decomposition.eigenvalues
    if float(np.abs(w).min()) <= tol:
        raise NonInvertibleDifferenceError(
            "A - D is not invertible within tolerance; certifying that case "
            "requires a semidefinite feasibility search and is out of scope"
        )
    u = decomposition.eigenvectors
    witness = (u * np.sign(w)) @ u.conj().T

    pairing = float(np.real(np.trace(difference @ witness)))
    nuclear = float(np.abs(w).sum())
    if abs(pairing - nuclear) > 1e-10:
        raise InconclusiveCertificateError(
            f"duality identity violated: tr((A-D)H) = {pairing:.17g} "
            f"but ||A-D||_tr = {nuclear:.17g}"
        )

    h_diag = np.real(np.diag(witness))
    margin = float(d @ h_diag - h_diag.max())
    return MixedCertificate(certified=margin >= -tol, margin=margin)
