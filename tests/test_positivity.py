"""Positivity decided by one Cholesky factorization, against ``eigvalsh``.

``DensityMatrix`` and ``is_ppt`` accept a real matrix M once the Cholesky
factorization of M + (tol/2) I passes ``core._cholesky_accepts``, and decide
with ``eigvalsh`` otherwise. Either way the decision must be that of
``eigvalsh(M)[0] >= -tol``. Each test places lambda_min at a multiple of tol
on either side of the threshold and of the shift: -2 and -0.6 (the shifted
matrix is indefinite, so ``eigvalsh`` decides), -0.4, 0 and +1 (the
factorization decides), on rank-one, full-rank and PPT-boundary states, in
real and in complex form.
"""

import numpy as np
import pytest

from coherence_kit import DensityMatrix, ValidationError, is_ppt, partial_transpose
from coherence_kit.config import DEFAULT_TOLERANCES
from coherence_kit.core import _cholesky_accepts

TOL = DEFAULT_TOLERANCES.psd_drift
SCALES = (-2.0, -0.6, -0.4, 0.0, 1.0)
FAMILIES = ("rank-one", "full-rank", "ppt-boundary")


def spectrum(family: str, n: int, low: float, rng) -> np.ndarray:
    """n eigenvalues summing to one with smallest ``low``."""
    if family == "rank-one":  # |psi><psi|, with ``low`` on the complement
        return np.array([1.0 - (n - 1) * low] + [low] * (n - 1))
    p = rng.dirichlet(np.ones(n - 1)) * 0.5 + 0.5 / (n - 1)
    return np.concatenate([[low], p * (1.0 - low)])


def isotropic_pt(d: int, low: float) -> np.ndarray:
    """The partial transpose p F/d + (1 - p) I/d^2 of the isotropic state
    p |Phi+><Phi+| + (1 - p) I/d^2, with p chosen so that its antisymmetric
    eigenvalue, d(d-1)/2 times degenerate, is ``low``; at ``low`` = 0 the
    isotropic state lies on the PPT boundary."""
    p = (1.0 / d**2 - low) / (1.0 / d + 1.0 / d**2)
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return p * swap / d + (1.0 - p) * np.eye(d * d) / d**2


def matrix_with_lambda_min(family: str, n: int, low: float, rng) -> np.ndarray:
    """A real symmetric trace-one n x n matrix with lambda_min = ``low``."""
    if family == "ppt-boundary":
        return isotropic_pt(int(round(np.sqrt(n))), low)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * spectrum(family, n, low, rng)) @ q.T
    return (m + m.T) / 2.0


def complex_form(m: np.ndarray, rng) -> np.ndarray:
    """D M D^dagger for diagonal unitaries D of product form: the spectrum and
    that of the partial transpose are unchanged, the entries complex."""
    d = int(round(np.sqrt(m.shape[0])))
    if d * d == m.shape[0]:
        a, b = np.exp(2j * np.pi * rng.random(d)), np.exp(2j * np.pi * rng.random(d))
        phases = np.kron(a, b)
    else:
        phases = np.exp(2j * np.pi * rng.random(m.shape[0]))
    return phases[:, None] * m * phases.conj()[None, :]


def cases(dims):
    for family in FAMILIES:
        for n in dims if family != "ppt-boundary" else (4, 9):
            for scale in SCALES:
                for form in ("real", "complex"):
                    yield family, n, scale, form


def build(family, n, scale, form):
    rng = np.random.default_rng([n, FAMILIES.index(family), int(10 * scale) + 50])
    m = matrix_with_lambda_min(family, n, scale * TOL, rng)
    return complex_form(m, rng) if form == "complex" else m


@pytest.mark.parametrize("family, n, scale, form", list(cases((2, 5, 12))))
def test_density_matrix_decides_as_eigvalsh(family, n, scale, form):
    m = build(family, n, scale, form)
    spectrum_of_m = np.linalg.eigvalsh(np.asarray(m, dtype=complex))
    lowest = float(spectrum_of_m[0])
    assert (lowest >= -TOL) == (scale >= -1.0)
    if lowest < -TOL:
        message = f"density matrix has eigenvalue {lowest:.3e} below -{TOL:g}"
        with pytest.raises(ValidationError) as refused:
            DensityMatrix(m)
        assert str(refused.value) == message
        return
    rho = DensityMatrix(m)
    if form == "real":
        assert _cholesky_accepts(m, TOL) == (scale >= -0.4)
        assert ("eigenvalues" in vars(rho)) == (scale < -0.4)
    assert np.array_equal(rho.eigenvalues, spectrum_of_m)
    assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(rho.matrix))


@pytest.mark.parametrize("family, n, scale, form", list(cases((4, 9))))
def test_is_ppt_decides_as_eigvalsh(family, n, scale, form):
    d = int(round(np.sqrt(n)))
    state = partial_transpose(build(family, n, scale, form), d)
    expected = float(np.linalg.eigvalsh(partial_transpose(state, d))[0]) >= -TOL
    assert expected == (scale >= -1.0)
    assert is_ppt(state, d) == expected
    if form == "real":
        assert _cholesky_accepts(partial_transpose(state, d), TOL) == (scale >= -0.4)


def test_a_nan_factor_is_not_accepted():
    m = np.eye(4) / 4
    m[2, 1] = m[1, 2] = np.nan  # the factorization passes, with NaN in it
    assert not _cholesky_accepts(m, TOL)


def test_a_large_trace_is_left_to_eigvalsh():
    m = 1e6 * np.eye(4)  # positive definite, but 4 (n+1) u tr(m) > tol/2
    assert not _cholesky_accepts(m, TOL)
    assert is_ppt(m, 2)


def test_a_tiny_imaginary_part_is_left_to_eigvalsh():
    m = np.eye(4, dtype=complex) / 4
    m[1, 0], m[0, 1] = 1e-300j, -1e-300j
    assert not _cholesky_accepts(m, TOL)
    assert "eigenvalues" in vars(DensityMatrix(m))
