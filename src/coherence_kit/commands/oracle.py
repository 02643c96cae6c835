"""``oracle``: exhaustive trace-distance minimization over a simplex lattice."""

from __future__ import annotations

from ..cli import EXIT_OK, _sparse


def handle(args, inputs) -> tuple[dict | None, int]:
    from ..oracle import c_tr_grid

    _, state = inputs.load(args.input, "oracle", "pure", "mixed")
    result = c_tr_grid(state, resolution=args.resolution)
    body = {
        "method": "grid",
        "approximate": True,
        "value": result.value,
        "argmin": _sparse(result.argmin.diag),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return body, EXIT_OK
