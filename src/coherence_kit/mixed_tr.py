"""Trace distance of coherence of a mixed state, to a certified gap.

min over the simplex of ||rho - Diag(delta)||_1 is the semidefinite program

    min tr(P + N)  s.t.  P - N = rho - Diag(delta),  P, N >= 0,  sum(delta) = 1.

With the barrier -mu (log det P + log det N) the best P and N for a fixed
delta have a closed form in the eigenvalues lambda of H = rho - Diag(delta):
each contributes g(lambda) = r + mu - mu log(mu (mu + r) / 2), where
r = sqrt(lambda^2 + mu^2), so g'(lambda) = lambda / (mu + r).  The solver
follows the central path of

    F(delta) = sum_i g(lambda_i) - mu sum_j log(delta_j)  on  sum(delta) = 1

by Newton steps in delta alone, lowering mu once a step is short (primal
barrier path following; Nesterov & Todd 1997, Vandenberghe & Boyd, SIAM Review
1996).  Every step also gives a lower bound: any Hermitian Y with ||Y|| <= 1
bounds the optimum below by <rho, Y> - max_j Y_jj, and g'(H), with or without
the step's first-order correction, is such a Y once divided by a bound on its
norm.  A state is done when its best value and best lower bound are within
``GAP_RTOL`` relative.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import IncoherentState, as_density_matrix

# A state is certified once value - lower_bound <= GAP_RTOL * max(1, value).
GAP_RTOL = 1e-9
# The first iterate mixes diag(rho) with this share of the uniform vector, so
# every weight is positive; mu starts at MU_START * C_tr(diag(rho)) / n, with
# C_tr(diag(rho)) taken as at least 1e-3 so that a diagonal rho starts at mu > 0.
START_MIX = 1e-2
MU_START = 0.1
# After a Newton step whose decrement is below CENTERED, mu is multiplied by
# MU_FACTOR; after a longer step it stays, and the next step re-centres.
CENTERED = 0.5
MU_FACTOR = 0.05
# Past this mu no state gains digits; a floor keeps g'' finite at lambda = 0.
MU_FLOOR = 1e-15
# Complex entries per state in one slab of the Hessian's n x n^2 product; the
# slab, not the whole O(n^3) array, is what a large n holds at once.  The three
# slab-sized work arrays (``_hessian_work``) are made once per dimension group
# and reused by every Newton step: at n = 16 each is 64 KB per state, and six
# states put it above the 128 KB past which a fresh allocation is a new mmap.
HESSIAN_SLAB = 2**18


class MixedTraceDistance(NamedTuple):
    value: float  # ||rho - Diag(nearest)||_1, the smallest seen
    lower_bound: float
    nearest: IncoherentState
    iterations: int  # Newton steps
    converged: bool  # value - lower_bound <= GAP_RTOL * max(1, value)


def c_tr_mixed_many(states, max_iters: int = 500) -> list[MixedTraceDistance]:
    """C_tr of each mixed state bracketed as [lower_bound, value], in input order.

    ``value`` is the smallest ||rho - Diag(delta)||_1 over diag(rho) and the
    Newton iterates, and ``nearest`` the delta that attains it.  A budget of 0
    reports diag(rho) with the lower bound 0.  States of one dimension run
    together, one stacked ``eigh`` per Newton step; each state's arithmetic is
    that of a run on it alone, so its result does not depend on the others.
    """
    matrices = [as_density_matrix(rho).matrix for rho in states]
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(matrices):
        groups.setdefault(a.shape[0], []).append(i)
    results: list = [None] * len(matrices)
    for members in groups.values():
        runs = _path_follow(np.stack([matrices[i] for i in members]), max_iters)
        for i, result in zip(members, runs):
            results[i] = result
    return results


def _path_follow(a, max_iters) -> list[MixedTraceDistance]:
    """The Newton iteration on a (b, n, n) stack; a certified row leaves the stack."""
    b, n = a.shape[:2]
    diagonal = np.arange(n)
    start = np.maximum(np.real(np.diagonal(a, axis1=1, axis2=2)), 0.0)
    start /= start.sum(axis=1, keepdims=True)
    h = a.copy()
    h[:, diagonal, diagonal] -= start
    best_values = np.abs(np.linalg.eigvalsh(h)).sum(axis=1)
    best_deltas = start.copy()
    lower = np.zeros(b)  # a trace norm is never negative
    iterations = np.full(b, max(max_iters, 0))
    delta = (start + START_MIX / n) / (1.0 + START_MIX)
    mu = MU_START * np.maximum(best_values, 1e-3) / n
    rows = np.arange(b)
    work = _hessian_work(b, n)
    for t in range(1, max_iters + 1):
        h = a.copy()
        h[:, diagonal, diagonal] -= delta
        lam, u = np.linalg.eigh(h)
        values = np.abs(lam).sum(axis=1)
        improved = values < best_values[rows]
        best_values[rows[improved]] = values[improved]
        best_deltas[rows[improved]] = delta[improved]

        m = mu[:, None]
        r = np.hypot(lam, m)
        slope = lam / (m + r)  # g'(lambda)
        gamma = _divided_differences(lam, r, mu)
        weights = u.real**2 + u.imag**2
        slope_diagonal = (weights @ slope[:, :, None])[:, :, 0]  # diag g'(H)
        grad = -slope_diagonal - m / delta
        kkt = np.ones((len(rows), n + 1, n + 1))
        kkt[:, n, n] = 0.0
        kkt[:, :n, :n] = _hessian(u, gamma, work)
        kkt[:, diagonal, diagonal] += m / delta**2
        rhs = np.zeros((len(rows), n + 1, 1))
        rhs[:, :n, 0] = -grad
        step = np.linalg.solve(kkt, rhs)[:, :n, 0]

        # g'(H) at the next iterate, to first order: diag(g') - Gamma o U^H Diag(step) U
        # in H's eigenbasis, with its norm bounded by the largest absolute row sum.
        uh = u.conj().transpose(0, 2, 1)
        z = -gamma * ((uh * step[:, None, :]) @ u)
        z[:, diagonal, diagonal] += slope
        scale = np.maximum(1.0, np.abs(z).sum(axis=2).max(axis=1))
        bounds = np.maximum(
            _dual_bound(a, (u * slope[:, None, :]) @ uh, 1.0), _dual_bound(a, u @ z @ uh, scale)
        )
        lower[rows] = np.maximum(lower[rows], bounds)
        done = best_values[rows] - lower[rows] <= GAP_RTOL * np.maximum(1.0, best_values[rows])
        iterations[rows[done]] = t
        if done.all():
            break

        # Newton decrement of F / mu, which is self-concordant: a damped step
        # keeps every weight positive, and the guard keeps it so in rounding.
        decrement = np.sqrt(np.maximum(-(step * grad).sum(axis=1), 0.0) / mu)
        alpha = np.where(decrement > CENTERED, 1.0 / (1.0 + decrement), 1.0)
        shrink = (-step / delta).max(axis=1)
        alpha = np.minimum(alpha, 0.99 / np.maximum(shrink, 0.99))
        delta = delta + alpha[:, None] * step
        mu = np.maximum(np.where(decrement < CENTERED, MU_FACTOR * mu, mu), MU_FLOOR)
        keep = ~done
        a, delta, mu, rows = a[keep], delta[keep], mu[keep], rows[keep]
    # A bound above the value is rounding: the optimum lies between them.
    lower = np.minimum(lower, best_values)
    converged = best_values - lower <= GAP_RTOL * np.maximum(1.0, best_values)
    return [
        MixedTraceDistance(
            value=float(best_values[i]),
            lower_bound=float(lower[i]),
            nearest=IncoherentState(best_deltas[i]),
            iterations=int(iterations[i]),
            converged=bool(converged[i]),
        )
        for i in range(b)
    ]


def _divided_differences(lam, r, mu) -> np.ndarray:
    """(g'(lambda_i) - g'(lambda_k)) / (lambda_i - lambda_k), g''(lambda_i) where
    they are equal, per row, in a form that does not cancel.

    The quotient is (mu + X) / ((mu + r_i)(mu + r_k)) with
    X = (lambda_i r_k - lambda_k r_i) / (lambda_i - lambda_k); when the two have
    one sign X = mu^2 (lambda_i + lambda_k) / (lambda_i r_k + lambda_k r_i), and
    when both are 0 it is mu.
    """
    li, lk = lam[:, :, None], lam[:, None, :]
    ri, rk = r[:, :, None], r[:, None, :]
    m = mu[:, None, None]
    same = li * lk > 0.0
    numerator = np.where(same, m * m * (li + lk), li * rk - lk * ri)
    denominator = np.where(same, li * rk + lk * ri, li - lk)
    x = np.broadcast_to(m, numerator.shape).copy()
    np.divide(numerator, denominator, out=x, where=denominator != 0.0)
    return (m + x) / ((m + ri) * (m + rk))


def _slab_rows(n) -> int:
    """Rows i per slab of the Hessian's product: at least one, at most n."""
    return min(n, max(1, HESSIAN_SLAB // (n * n)))


def _hessian_work(b, n) -> tuple[np.ndarray, ...]:
    """Flat work arrays for ``_hessian`` on up to b states of dimension n: a
    slab's products, their scaled copy and their conjugate, and the slab's
    complex n x n result."""
    slab = b * n * n * _slab_rows(n)
    return tuple(np.empty(size, dtype=complex) for size in (slab, slab, slab, b * n * n))


def _hessian(u, gamma, work) -> np.ndarray:
    """d^2/d delta^2 of sum_i g(lambda_i(rho - Diag delta)) by Daleckii-Krein:
    entry (j, l) is Re sum_ik Gamma_ik U_ji conj(U_li) conj(U_jk) U_lk, an
    O(n^4) product taken a slab of i at a time, in the leading entries of
    ``work``, ``_hessian_work`` arrays made for at least as many states."""
    b, n = u.shape[:2]
    products, scaled, conj, block = work
    out = np.zeros((b, n, n))
    width = _slab_rows(n)
    uc = u.conj()
    result = block[: b * n * n].reshape(b, n, n)
    for lo in range(0, n, width):
        hi = min(n, lo + width)
        shape = (b, n, (hi - lo) * n)
        size = b * n * (hi - lo) * n
        # w[:, j, (i, k)] = U_ji conj(U_jk)
        w = products[:size].reshape(b, n, hi - lo, n)
        np.multiply(u[:, :, lo:hi, None], uc[:, :, None, :], out=w)
        w = w.reshape(shape)
        g = gamma[:, lo:hi, :].reshape(b, 1, (hi - lo) * n)
        wg = np.multiply(w, g, out=scaled[:size].reshape(shape))
        wc = np.conjugate(w, out=conj[:size].reshape(shape))
        out += np.matmul(wg, wc.transpose(0, 2, 1), out=result).real
    return out


def _dual_bound(a, y, scale) -> np.ndarray:
    """<rho, Y / scale> - max_j Y_jj / scale for each row, a lower bound on C_tr
    when ||Y|| <= scale."""
    inner = (a.real * y.real + a.imag * y.imag).sum(axis=(1, 2))
    return (inner - np.real(np.diagonal(y, axis1=1, axis2=2)).max(axis=1)) / scale
