"""``oracle``: brute-force trace-distance minimization."""

from __future__ import annotations

from ..cli import EXIT_OK, _sparse


def handle(args, inputs) -> tuple[dict | None, int]:
    from ..oracle import c_tr_grid, c_tr_subgradient

    _, state = inputs.load(args.input, "oracle", "pure", "mixed")
    if args.method == "grid":
        result = c_tr_grid(state, resolution=args.resolution)
    else:
        result = c_tr_subgradient(
            state, max_iters=args.max_iters, step_scale=args.step_scale, tol=args.tol
        )
    body = {
        "method": args.method,
        "approximate": True,
        "value": result.value,
        "argmin": _sparse(result.argmin.diag),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return body, EXIT_OK
