"""Independent brute-force minimizers of ||rho - diag(delta)||_tr over the simplex.

These deliberately share no code path with the closed-form solver: the
subgradient oracle only ever sees the convex objective through dense
eigendecompositions, and the grid oracle is an exhaustive lattice search.
Both exist to validate closed-form results; the subgradient oracle also
serves mixed states, for which there is no closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import IncoherentState, ValidationError, as_density_matrix


@dataclass(frozen=True, eq=False)
class OracleResult:
    value: float
    argmin: IncoherentState
    iterations: int
    converged: bool


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-and-threshold).

    A 1-D ``v`` is one point; each row of a 2-D ``v`` is projected on its own.
    """
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.ndim > 2 or x.size == 0 or not np.isfinite(x).all():
        raise ValidationError("projection input must be a finite, non-empty 1-D or 2-D array")
    return _project_rows(x.reshape(-1, x.shape[-1])).reshape(x.shape)


def _project_rows(x: np.ndarray) -> np.ndarray:
    """``simplex_project`` of each row of a finite 2-D ``x``, unchecked."""
    b, n = x.shape
    u = np.sort(x, axis=1)[:, ::-1]
    # theta_j = (1 - (u_1 + ... + u_j)) / j; the threshold is theta at the
    # last j with u_j + theta_j > 0.
    theta = (1.0 - u.cumsum(axis=1)) / np.arange(1, n + 1)
    from_end = (u + theta > 0.0)[:, ::-1].argmax(axis=1)
    threshold = theta.ravel()[np.arange(n - 1, b * n, n) - from_end]
    return np.maximum(x + threshold[:, None], 0.0)


def c_tr_subgradient(
    rho,
    max_iters: int = 10000,
    step_scale: float = 0.04,
    tol: float = 1e-12,
    stall_window: int = 100,
) -> OracleResult:
    """``c_tr_subgradient_many`` on the one state ``rho``."""
    return c_tr_subgradient_many([rho], max_iters, step_scale, tol, stall_window)[0]


def c_tr_subgradient_many(
    states,
    max_iters: int = 10000,
    step_scale: float = 0.04,
    tol: float = 1e-12,
    stall_window: int = 100,
) -> list[OracleResult]:
    """Projected subgradient descent on g(delta) = ||rho - diag(delta)||_tr,
    one result per state, in input order.

    At each iterate the objective is eigendecomposed, the subgradient
    component j is -sum_i sign(lambda_i) |u_i(j)|^2, the step is
    step_scale * g(delta_0) / sqrt(t), and the iterate is projected back onto
    the simplex.  The best iterate is tracked (subgradient methods are not
    monotone) and the run stops early once the best value improves by less
    than ``tol`` over a ``stall_window``-iteration window; improvements of the
    best value arrive in bursts, so a tight budget with ``tol=0`` (never stop
    early) is more accurate than a large budget with a loose ``tol``.

    Starts from the diagonal of rho, the natural incoherent shadow.  States
    of one dimension run together, one stacked ``eigh`` per iteration; each
    state's arithmetic is that of a run on it alone, so its result does not
    depend on the other states.
    """
    if stall_window < 0:
        raise ValidationError(f"stall_window must be non-negative, got {stall_window}")
    matrices = [as_density_matrix(rho).matrix for rho in states]
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(matrices):
        groups.setdefault(a.shape[0], []).append(i)
    results: list = [None] * len(matrices)
    for members in groups.values():
        stack = np.stack([matrices[i] for i in members])
        runs = _descend(stack, max_iters, step_scale, tol, stall_window)
        for i, result in zip(members, runs):
            results[i] = result
    return results


def _descend(a, max_iters, step_scale, tol, stall_window) -> list[OracleResult]:
    """The subgradient iteration on a (b, n, n) stack of density matrices.

    A row that stops early leaves the stack; while every row is active the
    arrays are updated in place, with no indexing by row.
    """
    b, n = a.shape[:2]

    def evaluate(a: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g at each row's delta, and minus a subgradient there."""
        np.copyto(work, a)
        np.subtract(work_diagonal, delta, out=work_diagonal)
        w, u = np.linalg.eigh(work)
        descent = ((u.real**2 + u.imag**2) @ np.sign(w)[:, :, None])[:, :, 0]
        return np.abs(w).sum(axis=1), descent

    work = np.empty_like(a)  # a - diag(delta); once rows drop out, its first rows
    work_diagonal = work.reshape(b, n * n)[:, :: n + 1]
    delta = simplex_project(np.real(np.diagonal(a, axis1=1, axis2=2)))
    values, descent = evaluate(a, delta)
    best_values = values.copy()
    best_deltas = delta.copy()
    scales = step_scale * np.where(values > 0.0, values, 1.0)[:, None]
    # history[t % (stall_window + 1)] is the best value after iteration t.
    history = np.empty((stall_window + 1, b))
    history[0] = best_values
    # The best value never increases, so with tol <= 0 no row ever stalls.
    can_stall = tol > 0.0
    rows = np.arange(b)
    out_values = np.empty_like(best_values)
    out_deltas = np.empty_like(best_deltas)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    for t in range(1, max_iters + 1):
        delta = _project_rows(delta + (scales / math.sqrt(t)) * descent)
        values, descent = evaluate(a, delta)
        improved = values < best_values
        if improved.any():
            np.copyto(best_values, values, where=improved)
            np.copyto(best_deltas, delta, where=improved[:, None])
        if not can_stall:
            continue
        history[t % (stall_window + 1)] = best_values
        if t < stall_window:
            continue
        stalled = history[(t + 1) % (stall_window + 1)] - best_values < tol
        if not stalled.any():
            continue
        done = rows[stalled]
        out_values[done] = best_values[stalled]
        out_deltas[done] = best_deltas[stalled]
        iterations[done] = t
        converged[done] = True
        if stalled.all():
            break
        keep = ~stalled
        a, delta, descent, scales = a[keep], delta[keep], descent[keep], scales[keep]
        best_values, best_deltas = best_values[keep], best_deltas[keep]
        history, rows = history[:, keep], rows[keep]
        work, work_diagonal = work[: len(rows)], work_diagonal[: len(rows)]
    else:
        out_values[rows] = best_values
        out_deltas[rows] = best_deltas
        iterations[rows] = max(max_iters, 0)
    return [
        OracleResult(
            value=float(out_values[r]),
            argmin=IncoherentState(out_deltas[r]),
            iterations=int(iterations[r]),
            converged=bool(converged[r]),
        )
        for r in range(b)
    ]


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
    if resolution < 1:
        raise ValidationError("resolution must be a positive integer")
    lattice_size = math.comb(int(resolution) + n - 1, n - 1)
    if lattice_size > _GRID_MAX_POINTS:
        raise ValidationError(
            f"grid oracle lattice at n = {n}, resolution {resolution} has {lattice_size} "
            f"points, more than the limit of {_GRID_MAX_POINTS}"
        )

    best_value = np.inf
    best_point: np.ndarray | None = None
    count = 0
    diag_idx = np.arange(n)
    points = _lattice_points(n, int(resolution))
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
