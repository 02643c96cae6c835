"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import json
import time

import numpy as np

from coherence_kit import (
    IncoherentState,
    PureState,
    c_tr_grid,
    c_tr_subgradient_many,
    check_l1_vs_relent,
    check_negativity_bound,
    cli,
    diagonal_twirl,
    f_gap,
    is_ppt,
    max_coherence_bound,
    nearest_incoherent,
    negativity_pure,
    omega_kraus_operators,
    trace_norm,
    verify_channel_pipeline,
    verify_pure_optimality,
)
from coherence_kit.entanglement import achieving_separable_state
from coherence_kit.random_states import (
    random_mixed_state,
    random_pure_state,
    random_real_separable,
    random_schmidt_state,
    random_simplex_point,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_qutrit_reference_values():
    x = PureState([2 / 3, 2 / 3, 1 / 3])
    result = nearest_incoherent(x)  # warm-up for the timing below

    expected_q = ((3 * np.sqrt(5) - 5) / 6, (3 * np.sqrt(17) + 5) / 48, 16 / 45)
    from coherence_kit import prefix_stats

    stats = prefix_stats(x.moduli())
    printed = tuple(f"{q:.4f}" for q in stats.q)
    q_ok = printed == ("0.2847", "0.3619", "0.3556")
    q_exact_ok = all(abs(a - b) <= 1e-12 for a, b in zip(stats.q, expected_q))

    k_ok = result.k == 2
    d_ok = np.abs(result.nearest.diag - np.array([0.5, 0.5, 0.0])).max() <= 1e-12
    c_ok = abs(result.c_tr - (3 + np.sqrt(17)) / 6) <= 1e-12

    best = min(
        _timed(lambda: nearest_incoherent(x))[1] for _ in range(5)
    )
    time_ok = best < 1e-3

    report(
        1,
        "qutrit reference values",
        q_ok and q_exact_ok and k_ok and d_ok and c_ok and time_ok,
        f"q={printed} k={result.k} c_tr={result.c_tr:.15f} time={best * 1e6:.0f}us",
    )


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_criterion_2_qubit_formula():
    rng = np.random.default_rng(2024)
    worst_value = 0.0
    worst_state = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        x = random_pure_state(2, rng)
        result = nearest_incoherent(x)
        moduli = x.moduli()
        worst_value = max(worst_value, abs(result.c_tr - 2 * moduli[0] * moduli[1]))
        worst_state = max(
            worst_state, float(np.abs(result.nearest.diag - moduli**2).max())
        )
    elapsed = time.perf_counter() - start
    ok = worst_value <= 1e-12 and worst_state <= 1e-12 and elapsed < 1.0
    report(
        2,
        "qubit closed form",
        ok,
        f"worst |c_tr - 2|x1 x2|| = {worst_value:.2e}, "
        f"worst nearest gap = {worst_state:.2e}, time = {elapsed:.2f}s",
    )


def test_criterion_3_maximal_coherence():
    equality_ok = True
    decrease_ok = True
    for n in range(2, 65):
        uniform = np.full(n, 1 / np.sqrt(n))
        bound = max_coherence_bound(n)
        if abs(nearest_incoherent(uniform).c_tr - bound) > 1e-12:
            equality_ok = False
        perturbed = uniform.copy()
        perturbed[0] += 1e-3
        if not nearest_incoherent(PureState(perturbed)).c_tr < bound:
            decrease_ok = False

    rng = np.random.default_rng(333)
    states = [random_mixed_state(int(rng.integers(2, 7)), rng) for _ in range(100)]
    oracle_ok = True
    worst = -np.inf
    for rho, result in zip(states, c_tr_subgradient_many(states, max_iters=3000, tol=0.0)):
        excess = result.value - max_coherence_bound(rho.dim)
        worst = max(worst, excess)
        if excess > 1e-4:
            oracle_ok = False
    report(
        3,
        "maximal coherence classification",
        equality_ok and decrease_ok and oracle_ok,
        f"equality(2..64)={equality_ok} strict-decrease={decrease_ok} "
        f"mixed-oracle worst excess={worst:.2e}",
    )


def test_criterion_4_certificate_soundness():
    rng = np.random.default_rng(444)
    margins = []
    perturbed_failures = 0
    perturbed_total = 0
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        x = random_pure_state(n, rng)
        result = nearest_incoherent(x)
        cert = verify_pure_optimality(x, result.nearest, tol=1e-10)
        margins.append(cert.margin)
        if not cert.optimal:
            report(4, "certificate soundness", False, f"optimum rejected at n={n}")
        d = result.nearest.diag.copy()
        hi = int(np.argmax(d))
        lo = int(np.argsort(d)[-2])
        d[hi] -= 1e-3
        d[lo] += 1e-3
        perturbed_total += 1
        try:
            perturbed = verify_pure_optimality(x, IncoherentState(d), tol=1e-10)
            if not perturbed.optimal:
                perturbed_failures += 1
        except Exception:
            pass
    min_margin = min(margins)
    rate = perturbed_failures / perturbed_total
    ok = min_margin >= -1e-10 and rate >= 0.99
    report(
        4,
        "certificate soundness",
        ok,
        f"min margin = {min_margin:.2e}, perturbation failure rate = {rate:.3f}",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(555)
    start = time.perf_counter()
    states = [random_pure_state(int(rng.integers(2, 9)), rng) for _ in range(200)]
    results = c_tr_subgradient_many(
        [x.density() for x in states], max_iters=6000, step_scale=0.04, tol=0.0
    )
    worst = max(
        abs(result.value - nearest_incoherent(x).c_tr) for x, result in zip(states, results)
    )
    elapsed = time.perf_counter() - start
    subgradient_ok = worst <= 1e-4 and elapsed < 120.0

    grid_worst = 0.0
    one_sided_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 4))
        x = random_pure_state(n, rng)
        exact = nearest_incoherent(x).c_tr
        value = c_tr_grid(x.density(), resolution=300).value
        grid_worst = max(grid_worst, abs(value - exact))
        if value < exact - 1e-12:
            one_sided_ok = False
    grid_ok = grid_worst <= 7e-3 and one_sided_ok
    report(
        5,
        "oracle equivalence",
        subgradient_ok and grid_ok,
        f"subgradient worst = {worst:.2e} in {elapsed:.0f}s, grid worst = {grid_worst:.2e}",
    )


def test_criterion_6_performance(tmp_path):
    out = tmp_path / "bench.json"
    code = cli.main(
        [
            "bench",
            "--sizes", "1000,10000,100000,1000000",
            "--repetitions", "3",
            "--seed", "0",
            "--output", str(out),
        ]
    )
    assert code == 0
    bench = json.loads(out.read_text())
    largest = bench["results"][-1]
    slope = bench["loglog_slope"]
    time_ok = largest["timings"]["best_s"] < 2.0
    slope_ok = 0.9 <= slope <= 1.3
    report(
        6,
        "million-dimensional performance",
        time_ok and slope_ok,
        f"t(1e6) = {largest['timings']['best_s'] * 1e3:.0f}ms, log-log slope = {slope:.3f}",
    )


def test_criterion_7_schmidt_reduction_harness():
    rng = np.random.default_rng(777)
    attain_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        v = random_schmidt_state(n, rng)
        lam = PureState(np.real(np.diag(v.amplitudes)))
        sigma_star = achieving_separable_state(v)
        attained = trace_norm(v.projector() - sigma_star.matrix)
        attain_worst = max(attain_worst, abs(attained - nearest_incoherent(lam).c_tr))
    attain_ok = attain_worst <= 1e-10

    chain_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        v = random_schmidt_state(n, rng)
        lam = PureState(np.real(np.diag(v.amplitudes)))
        sigma = random_real_separable(n, 5, rng)
        if not nearest_incoherent(lam).c_tr <= trace_norm(v.projector() - sigma.matrix) + 1e-10:
            chain_ok = False
    report(
        7,
        "Schmidt reduction harness",
        attain_ok and chain_ok,
        f"worst attainment gap = {attain_worst:.2e}, lower-bound chain ok = {chain_ok}",
    )


def test_criterion_8_channel_pipeline():
    rng = np.random.default_rng(888)
    worst_off = 0.0
    worst_fix = 0.0
    completeness_ok = True
    idempotent_ok = True
    ppt_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        sigma = random_real_separable(n, int(rng.integers(2, 8)), rng)
        v = random_schmidt_state(n, rng)
        check = verify_channel_pipeline(sigma, v)
        worst_off = max(worst_off, check.offdiag_mass)
        worst_fix = max(worst_fix, check.fixed_point_distance)
        ops = omega_kraus_operators(sigma, n)
        total = sum(op.T @ op for op in ops)
        if np.abs(total - np.eye(n * n)).max() > 1e-12:
            completeness_ok = False
        twirled = diagonal_twirl(sigma.matrix, n)
        if np.abs(diagonal_twirl(twirled, n) - twirled).max() > 1e-10:
            idempotent_ok = False
        if not is_ppt(twirled, n, 1e-10):
            ppt_ok = False
    ok = (
        worst_off < 1e-10
        and worst_fix < 1e-10
        and completeness_ok
        and idempotent_ok
        and ppt_ok
    )
    report(
        8,
        "channel pipeline",
        ok,
        f"worst off-diagonal mass = {worst_off:.2e}, worst fixed-point gap = {worst_fix:.2e}",
    )


def test_criterion_9_inequality_suite():
    rng = np.random.default_rng(999)
    f_min = np.inf
    for _ in range(100000):
        n = int(rng.integers(1, 11))
        f_min = min(f_min, f_gap(random_simplex_point(n, rng)))
    f_ok = f_min >= -1e-12

    l1_ok = True
    for _ in range(10000):
        n = int(rng.integers(2, 65))
        check = check_l1_vs_relent(random_pure_state(n, rng))
        if check.c_l1 < check.lower - 1e-12:
            l1_ok = False

    bound_ok = True
    region_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        v = random_schmidt_state(n, rng)
        check = check_negativity_bound(v)
        if check.e_r > check.two_n + 1e-12:
            bound_ok = False
        if check.improves != (negativity_pure(v) < 0.5):
            region_ok = False
    report(
        9,
        "inequality suite",
        f_ok and l1_ok and bound_ok and region_ok,
        f"min f_gap = {f_min:.2e}, l1-vs-relent ok = {l1_ok}, "
        f"negativity bound ok = {bound_ok}, improvement region ok = {region_ok}",
    )
