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

A mixed state has no such closed form.  Its candidate is certified against
the bracket [lower_bound, value] of ``mixed_tr.c_tr_mixed_many``: the lower
bound is a dual bound, so a candidate within ``tol`` of it is within ``tol`` of
the optimum, whether or not A - D is singular.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import as_density_matrix, as_incoherent_state, as_pure_state, hermitian_eig
from .errors import InconclusiveCertificateError
from .measures import _l1_from_moduli

# The pure certificate's record, errors and step budget are shared with its
# twin on Python floats.
from .pure_floats import (
    _SECULAR_MAX_STEPS,
    PureCertificate,
    _dimension_error,
    _incoherent_input_error,
    _inconclusive_error,
)


class MixedCertificate(NamedTuple):
    certified: bool
    margin: float  # lower_bound - distance
    distance: float  # ||A - D||_1 of the candidate
    lower_bound: float  # a lower bound on C_tr(A)


def _coherent_moduli_or_raise(state) -> np.ndarray:
    moduli = state.moduli()
    if _l1_from_moduli(moduli) < DEFAULT_TOLERANCES.construction:
        raise _incoherent_input_error()
    return moduli


def _candidate_diagonal(delta, dim: int) -> np.ndarray:
    """The diagonal of the incoherent candidate ``delta``, checked to have ``dim`` entries."""
    d = as_incoherent_state(delta).diag
    if d.size != dim:
        raise _dimension_error(d.size, dim)
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
        step = lam + g / float(np.sum(terms * inv))
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

    lo = max(0.0, float(np.max(weights - d)), 1.0 - float(np.sum(d * weights)))
    lam = _secular_root(weights, d, lo, 1.0)
    if lam <= tol:
        raise _inconclusive_error(lam, tol)
    v_sq = weights / (lam + d) ** 2
    v_sq /= float(np.sum(v_sq))
    margin = float(np.sum(d * v_sq) - v_sq.max())
    return PureCertificate(optimal=margin >= -tol, margin=margin)


def verify_mixed_optimality(rho, delta, tol: float | None = None) -> MixedCertificate:
    """Check whether D is within ``tol`` of the nearest incoherent state of the mixed state A.

    The candidate's distance ||A - D||_1 comes from one ``hermitian_eig``, and a
    lower bound on C_tr(A) from ``c_tr_mixed_many`` run to an absolute gap of
    at most ``tol / 2``.  D is certified when its distance is at most ``tol``
    above the lower bound; once the gap is reached, a D that is not is more
    than ``tol / 2`` above the optimum.  If the Newton budget runs out first,
    an uncertified D raises ``InconclusiveCertificateError``.
    """
    if tol is None:
        tol = DEFAULT_TOLERANCES.certificate
    from .mixed_tr import c_tr_mixed_many

    state = as_density_matrix(rho)
    d = _candidate_diagonal(delta, state.dim)
    distance = float(np.abs(hermitian_eig(state.matrix - np.diag(d)).eigenvalues).sum())
    # A trace distance between states is at most 2, so a relative gap of tol / 4
    # is an absolute gap of at most tol / 2.
    (bracket,) = c_tr_mixed_many([state], gap=tol / 4.0)
    margin = bracket.lower_bound - distance
    if margin < -tol and not bracket.converged:
        raise InconclusiveCertificateError(
            f"candidate distance {distance:.17g} is above the lower bound "
            f"{bracket.lower_bound:.17g}, but the bracket did not reach a gap of "
            f"{tol / 2.0:g} in {bracket.iterations} Newton steps; certificate inconclusive"
        )
    return MixedCertificate(
        certified=margin >= -tol, margin=margin, distance=distance, lower_bound=bracket.lower_bound
    )
