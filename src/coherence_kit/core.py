"""Validated state containers and the dense Hermitian linear algebra they share.

Everything in this module is a pure function over immutable values.  The state
classes validate (and, where documented, renormalize) on construction and are
never mutated afterwards, so concurrent use needs no locking.  They compare by
identity.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import _NORM_SAFE_MIN, DEFAULT_TOLERANCES
from .errors import DimensionMismatchError, ValidationError


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{what} must contain only finite entries")


def _probability_vector(p, what: str) -> np.ndarray:
    """``p`` as a finite non-negative 1-D vector summing to one within the
    construction tolerance; entries in (-tol, 0) are clipped to zero."""
    tol = DEFAULT_TOLERANCES.construction
    vec = np.atleast_1d(np.asarray(p, dtype=float))
    if vec.ndim != 1 or vec.size == 0:
        raise ValidationError(f"{what} must be a non-empty 1-D vector")
    _require_finite(vec, what)
    if float(vec.min()) < -tol:
        raise ValidationError(f"{what} has negative entry {float(vec.min()):.3e}")
    vec = np.maximum(vec, 0.0)
    total = float(np.sum(vec))
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{what} sums to {total:.17g}, expected 1")
    return vec


def _unit_amplitudes(amplitudes, ndim: int, what: str) -> np.ndarray:
    """``amplitudes`` as a non-empty, finite, not all zero complex array of
    ``ndim`` dimensions (1: a vector, 2: a matrix), divided by its l2 norm.
    The norm is the square root of ``np.sum`` of the squared real and imaginary
    parts, a pairwise sum whose bits no BLAS thread count changes.

    Where the squares of the entries would under- or overflow, the entries
    are first scaled, exactly, by a power of two that brings the largest real
    or imaginary part into [0.5, 1); every other input keeps its bits.
    """
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
    if amps.ndim != ndim or amps.size == 0:
        shape = "1-D vector" if ndim == 1 else "matrix"
        raise ValidationError(f"{what} amplitudes must form a non-empty {shape}")
    _require_finite(amps, f"{what} amplitudes")
    parts = np.ascontiguousarray(amps).view(float)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(parts * parts)))
    if not _NORM_SAFE_MIN <= norm < np.inf:
        # Scaled as float pairs: dividing a complex array by a subnormal real gives NaN.
        _, exponent = np.frexp(np.abs(parts).max())
        parts = np.ldexp(parts, -exponent)
        norm = float(np.sqrt(np.sum(parts * parts)))
    if norm <= 0.0:
        raise ValidationError(f"{what} amplitudes must not all be zero")
    return parts.view(complex) / norm


def _hermitian_matrix(matrix, tol: float, what: str) -> np.ndarray:
    """``matrix`` as a complex array, non-empty, square, finite and Hermitian
    within ``tol``; a failed check names ``what``."""
    m = np.asarray(matrix)
    # A real input is checked in real arithmetic, and converted once it passes.
    m = m.astype(float if m.dtype.kind == "f" else complex, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValidationError(f"{what} must be a non-empty square matrix")
    _require_finite(m, what)
    gap = np.abs(m - m.conj().T)
    worst = float(gap.max())
    if worst > tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ValidationError(
            f"{what} is not Hermitian: entries ({i},{j}) and ({j},{i}) "
            f"differ from conjugates by {worst:.3e} (tolerance {tol:g})"
        )
    return m.astype(complex, copy=False)


def _cholesky_accepts(m: np.ndarray, tol: float) -> bool:
    """True only if the Hermitian ``m``, read from its lower triangle as
    ``eigvalsh`` reads it, has no eigenvalue below ``-tol``: decided by one real
    Cholesky factorization R^T R of A = fl(m + (tol/2) I).  False means
    undecided (``m`` is not real, A is not numerically positive definite, or
    the bound below is not met), and the caller runs ``eigvalsh`` instead.

    By Higham (Accuracy and Stability of Numerical Algorithms, 2002, Thm 10.3),
    R^T R = A + dA with |dA| <= g |R^T| |R|, g = gamma_{n+1} = (n+1)u / (1 - (n+1)u).
    By Cauchy-Schwarz |R^T| |R| <= s s^T entrywise, s_i = ||R e_i||, and
    ||s||^2 = ||R||_F^2 = tr(A + dA) <= tr(A) / (1 - g), so ||dA||_2 <= g ||R||_F^2
    and lambda_min(A) >= -g ||R||_F^2.  The test asks 4 (n+1) u ||R||_F^2 <= tol/2;
    the factor 4 covers g's denominator, the rounding of m + (tol/2) I, and
    blocked LAPACK, so an accepted m has lambda_min >= -tol.  For
    trace-one m, ||R||_F^2 is about 1 and at tol = 1e-10 the test holds up to
    n ~ 10^5, far past d = 32 (n = 1024).  A NaN anywhere in R fails it.
    """
    if np.iscomplexobj(m):
        if m.imag.any():
            return False
        m = m.real
    n = m.shape[0]
    a = np.array(m, dtype=float)
    a.flat[:: n + 1] += tol / 2.0
    try:
        r = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return 4.0 * (n + 1) * 2.0**-53 * float(np.vdot(r, r)) <= tol / 2.0


class _ReadOnly:
    """Attributes are set once, in ``__init__``, through ``object.__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PureState(_ReadOnly):
    """A unit vector of complex amplitudes.

    The vector is renormalized on construction, so the stored object always
    satisfies sum_j |x_j|^2 = 1 to machine precision.
    """

    def __init__(self, amplitudes):
        object.__setattr__(self, "amplitudes", _unit_amplitudes(amplitudes, 1, "pure state"))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def moduli(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |x><x| as a plain array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> "DensityMatrix":
        return DensityMatrix._trusted(self.projector())

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.amplitudes, dtype=dtype)


class BipartitePureState(_ReadOnly):
    """Pure state on an m (x) n space, stored as its coefficient matrix.

    ``amplitudes[i, j]`` multiplies |i>|j>; the matrix is Frobenius-normalized
    on construction.  Dimensions are explicit, never inferred from square
    roots.
    """

    def __init__(self, amplitudes):
        object.__setattr__(self, "amplitudes", _unit_amplitudes(amplitudes, 2, "bipartite"))

    @property
    def dims(self) -> tuple[int, int]:
        return self.amplitudes.shape  # type: ignore[return-value]

    def projector(self) -> np.ndarray:
        """|v><v|, with |i>|j> at position i * n + j."""
        k = self.amplitudes.reshape(-1)
        return np.outer(k, k.conj())


class DensityMatrix(_ReadOnly):
    """Hermitian, positive semidefinite, trace-one matrix.

    ``eigenvalues`` is its spectrum in ascending order, as
    ``np.linalg.eigvalsh`` returns it.  Construction decides positivity by one
    Cholesky factorization where it can (a real matrix, ``_cholesky_accepts``);
    only where that is undecided does it compute the spectrum, and keep it.
    Otherwise the spectrum is computed on first use.
    """

    def __init__(self, matrix):
        tols = DEFAULT_TOLERANCES
        m = _hermitian_matrix(matrix, tols.construction, "density matrix")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > tols.construction:
            raise ValidationError(f"density matrix trace is {trace:.17g}, expected 1")
        if not _cholesky_accepts(m, tols.psd_drift):
            eigenvalues = np.linalg.eigvalsh(m)
            min_eig = float(eigenvalues[0])
            if min_eig < -tols.psd_drift:
                raise ValidationError(
                    f"density matrix has eigenvalue {min_eig:.3e} below -{tols.psd_drift:g}"
                )
            object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityMatrix":
        # Constructor for matrices that are valid by construction (e.g. |x><x|);
        # skips the O(n^3) eigenvalue check.
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", np.asarray(matrix, dtype=complex))
        return obj

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)


class IncoherentState(_ReadOnly):
    """Probability vector read as a diagonal density matrix.

    Entries within the construction tolerance below zero are clipped to zero,
    and the vector is driven to sum to 1.0 exactly: after normalization the
    residual of the compensated sum is absorbed into the largest entry.
    """

    def __init__(self, diag):
        d = _probability_vector(diag, "incoherent state")
        d = d / float(np.sum(d))
        for _ in range(2):
            residual = float(np.sum(d)) - 1.0
            if residual == 0.0:
                break
            d[int(np.argmax(d))] -= residual
        object.__setattr__(self, "diag", d)

    @property
    def dim(self) -> int:
        return self.diag.size

    def density(self) -> DensityMatrix:
        return DensityMatrix._trusted(np.diag(self.diag.astype(complex)))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.diag, dtype=dtype)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues in descending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_pure_state(x) -> PureState:
    return x if isinstance(x, PureState) else PureState(x)


def as_density_matrix(rho) -> DensityMatrix:
    if isinstance(rho, DensityMatrix):
        return rho
    if isinstance(rho, (PureState, IncoherentState)):
        return rho.density()
    return DensityMatrix(rho)


def as_incoherent_state(delta) -> IncoherentState:
    return delta if isinstance(delta, IncoherentState) else IncoherentState(delta)


def hermitian_eig(matrix) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Raises
    ------
    ValidationError
        If the matrix is not a non-empty finite square matrix, Hermitian
        within the spectral tolerance; the message names the worst entry pair.
    """
    w, v = np.linalg.eigh(_hermitian_matrix(matrix, DEFAULT_TOLERANCES.spectral, "matrix"))
    return SpectralDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def _require_bipartite_square(matrix, local_dim: int, what: str) -> np.ndarray:
    """``matrix`` as a complex array that acts on a d (x) d space, d = ``local_dim``."""
    m = np.asarray(matrix, dtype=complex)
    d = int(local_dim)
    if d < 1 or m.shape != (d * d, d * d):
        raise DimensionMismatchError(
            f"{what} of shape {m.shape} does not act on a {d}(x){d} space"
        )
    return m


def partial_transpose(matrix, local_dim: int) -> np.ndarray:
    """Transpose the second tensor factor of a matrix on an n (x) n space.

    The local dimension is explicit metadata: entry ((i,j),(k,l)) of the output
    equals entry ((i,l),(k,j)) of the input.
    """
    m = _require_bipartite_square(matrix, local_dim, "matrix")
    d = int(local_dim)
    return m.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def is_ppt(matrix, local_dim: int, tol: float | None = None) -> bool:
    """Whether the partial transpose has no eigenvalue below ``-tol``: one
    Cholesky factorization where it decides (``_cholesky_accepts``), else
    ``eigvalsh``.  A matrix that is not Hermitian within the spectral tolerance
    is refused, since both read only one triangle."""
    if tol is None:
        tol = DEFAULT_TOLERANCES.psd_drift
    m = _hermitian_matrix(matrix, DEFAULT_TOLERANCES.spectral, "matrix")
    pt = partial_transpose(m, local_dim)
    return _cholesky_accepts(pt, tol) or float(np.linalg.eigvalsh(pt)[0]) >= -tol
