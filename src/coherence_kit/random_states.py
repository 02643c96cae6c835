"""Seeded samplers for the state families the toolkit and its tests consume."""

from __future__ import annotations

import numpy as np

from .core import BipartitePureState, DensityMatrix, PureState


def random_pure_state(n: int, rng: np.random.Generator) -> PureState:
    """Uniform on the unit sphere: normalized i.i.d. standard complex Gaussians."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(z)


def random_mixed_state(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized G G^dagger for a square standard complex Gaussian G."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_bipartite_pure(m: int, n: int, rng: np.random.Generator) -> BipartitePureState:
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return BipartitePureState(z)


def random_simplex_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform on the probability simplex (flat Dirichlet)."""
    return rng.dirichlet(np.ones(n))


def random_schmidt_state(n: int, rng: np.random.Generator) -> BipartitePureState:
    """Bipartite pure state already in Schmidt form: diagonal non-negative matrix."""
    lam = np.sort(np.sqrt(random_simplex_point(n, rng)))[::-1]
    return BipartitePureState(np.diag(lam))


def random_real_separable(n: int, terms: int, rng: np.random.Generator) -> DensityMatrix:
    """Convex mixture of real product states on n (x) n; separable, hence PPT."""
    weights = rng.dirichlet(np.ones(terms))
    sigma = np.zeros((n * n, n * n))
    for w in weights:
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        ket = np.kron(a, b)
        sigma += w * np.outer(ket, ket)
    return DensityMatrix(sigma)
