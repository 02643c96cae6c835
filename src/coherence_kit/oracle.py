"""Independent brute-force minimizers of ||rho - diag(delta)||_tr over the simplex.

These deliberately share no code path with the closed-form solver: the
subgradient oracle only ever sees the convex objective through dense
eigendecompositions, and the grid oracle is an exhaustive lattice search.
Both exist to validate closed-form results; the ``oracle`` command runs the
grid search.  For mixed states, which have no closed form, ``mixed_tr``
brackets C_tr to a certified gap.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from .core import IncoherentState, as_density_matrix
from .errors import ValidationError

STALL_WINDOW = 100


class OracleResult(NamedTuple):
    value: float
    argmin: IncoherentState
    iterations: int
    converged: bool


def simplex_project(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex (sort-and-threshold)."""
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.ndim != 1 or x.size == 0 or not np.isfinite(x).all():
        raise ValidationError("projection input must be a finite, non-empty 1-D array")
    n = x.size
    u = np.sort(x)[::-1]
    # theta_j = (1 - (u_1 + ... + u_j)) / j; the threshold is theta at the
    # last j with u_j + theta_j > 0.
    theta = (1.0 - u.cumsum()) / np.arange(1, n + 1)
    return np.maximum(x + theta[n - 1 - int((u + theta > 0.0)[::-1].argmax())], 0.0)


def c_tr_subgradient(
    rho, max_iters: int = 10000, step_scale: float = 0.04, tol: float = 1e-12
) -> OracleResult:
    """Projected subgradient descent on g(delta) = ||rho - diag(delta)||_tr.

    At each iterate the objective is eigendecomposed, the subgradient
    component j is -sum_i sign(lambda_i) |u_i(j)|^2, the step is
    step_scale * g(delta_0) / sqrt(t), and the iterate is projected back onto
    the simplex.  The best iterate is tracked (subgradient methods are not
    monotone) and the run stops early once the best value improves by less
    than ``tol`` over a ``STALL_WINDOW``-iteration window; improvements of the
    best value arrive in bursts, so a tight budget with ``tol=0`` (never stop
    early) is more accurate than a large budget with a loose ``tol``.

    Starts from the diagonal of rho, the natural incoherent shadow.
    """
    a = as_density_matrix(rho).matrix

    def evaluate(delta: np.ndarray) -> tuple[float, np.ndarray]:
        """g at delta, and minus a subgradient there."""
        w, u = np.linalg.eigh(a - np.diag(delta))
        return float(np.abs(w).sum()), (u.real**2 + u.imag**2) @ np.sign(w)

    delta = simplex_project(np.real(np.diag(a)))
    value, descent = evaluate(delta)
    best_value, best_delta = value, delta
    scale = step_scale * (value if value > 0.0 else 1.0)
    # The best value after each of the last STALL_WINDOW + 1 iterations.
    history = deque([best_value], maxlen=STALL_WINDOW + 1)
    for t in range(1, max_iters + 1):
        delta = simplex_project(delta + (scale / math.sqrt(t)) * descent)
        value, descent = evaluate(delta)
        if value < best_value:
            best_value, best_delta = value, delta
        history.append(best_value)
        if t >= STALL_WINDOW and history[0] - best_value < tol:
            return OracleResult(best_value, IncoherentState(best_delta), t, True)
    return OracleResult(best_value, IncoherentState(best_delta), max(max_iters, 0), False)


# Lattice points evaluated per stacked eigvalsh call.
_GRID_CHUNK = 32768
# About 25 s of walking at the 0.4 M points/s measured on one core of a 2-core
# x86 host; the default call at n = 4 and resolution 300 walks 4.6 M points.
_GRID_MAX_POINTS = 10**7


def _lattice_points(n: int, resolution: int):
    # Compositions of `resolution` into n parts, ascending lexicographic order.
    total = resolution + n - 1
    for bars in itertools.combinations(range(total), n - 1):
        parts = []
        prev = -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(total - prev - 1)
        yield parts


def c_tr_grid(rho, resolution: int) -> OracleResult:
    """Exhaustive search over the simplex lattice {a / resolution : sum a = resolution}.

    The trace norm is 1-Lipschitz in the l1 distance of the diagonal, so the
    lattice optimum is within 2 n / resolution of the true optimum and never
    below it.  Ties break toward the first lattice point in lexicographic
    order.  Guarded to n <= 4 and to at most ``_GRID_MAX_POINTS`` lattice
    points; the lattice grows combinatorially.  n is read before any dense
    matrix is built (a ``PureState`` gives its amplitude vector), so a large
    input is refused without densifying it.
    """
    shape = np.shape(rho)
    if shape and shape[0] > 4:
        raise ValidationError(f"grid oracle supports n <= 4, got n = {shape[0]}")
    a = as_density_matrix(rho).matrix
    n = a.shape[0]
    try:
        whole = int(resolution) == resolution
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or resolution < 1:
        raise ValidationError("resolution must be a positive integer")
    resolution = int(resolution)
    lattice_size = math.comb(resolution + n - 1, n - 1)
    if lattice_size > _GRID_MAX_POINTS:
        raise ValidationError(
            f"grid oracle lattice at n = {n}, resolution {resolution} has {lattice_size} "
            f"points, more than the limit of {_GRID_MAX_POINTS}"
        )

    best_value = np.inf
    best_point: np.ndarray | None = None
    count = 0
    diag_idx = np.arange(n)
    points = _lattice_points(n, resolution)
    while True:
        block = list(itertools.islice(points, _GRID_CHUNK))
        if not block:
            break
        deltas = np.asarray(block, dtype=float) / resolution
        stack = np.broadcast_to(a, (deltas.shape[0], n, n)).copy()
        stack[:, diag_idx, diag_idx] -= deltas
        values = np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_point = deltas[i].copy()
        count += deltas.shape[0]
    assert best_point is not None
    return OracleResult(
        value=best_value,
        argmin=IncoherentState(best_point),
        iterations=count,
        converged=True,
    )
