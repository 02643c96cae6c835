"""``bench``: time the closed-form solver across sizes."""

from __future__ import annotations

import time

import numpy as np

from ..cli import EXIT_OK


def handle(args, inputs) -> tuple[dict | None, int]:
    from ..random_states import random_pure_state
    from ..trace_distance import nearest_incoherent

    rng = np.random.default_rng(args.seed)
    rows = []
    for n in args.sizes:
        state = random_pure_state(n, rng)
        times = []
        for _ in range(args.repetitions):
            started = time.perf_counter()
            result = nearest_incoherent(state)
            times.append(time.perf_counter() - started)
        rows.append(
            {
                "n": n,
                "c_tr": result.c_tr,
                "timings": {"best_s": min(times), "median_s": sorted(times)[len(times) // 2]},
            }
        )
    body = {"sizes": args.sizes, "repetitions": args.repetitions, "results": rows}
    # A line through one distinct size is not determined.
    if len(set(args.sizes)) >= 2:
        logs_n = np.log([row["n"] for row in rows])
        logs_t = np.log([row["timings"]["best_s"] for row in rows])
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
        body["loglog_slope"] = slope
        body["scaling_consistent_with_nlogn"] = bool(0.9 <= slope <= 1.3)
    return body, EXIT_OK
