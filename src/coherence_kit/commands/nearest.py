"""``nearest``: the nearest incoherent state of a pure state."""

from __future__ import annotations

from ..cli import EXIT_OK, _sparse


def handle(args, inputs) -> tuple[dict | None, int]:
    from ..trace_distance import nearest_incoherent

    _, state = inputs.load(args.input, "nearest", "pure")
    result = nearest_incoherent(state)
    body = {
        "k": result.k,
        "q_k": result.q_k,
        "nearest": _sparse(result.nearest.diag),
        "mu": result.mu,
        "c_tr": result.c_tr,
        "operator_norm_distance": result.mu,
    }
    return body, EXIT_OK
