"""``nearest``: the nearest incoherent state of a pure state."""

from __future__ import annotations

from ..cli import EXIT_OK, _sparse


def handle(args, inputs) -> tuple[dict | None, int]:
    sf, state = inputs.load(args.input, "nearest", "pure", python_floats=True)
    if isinstance(sf.data, list):
        from ..pure_floats import nearest_incoherent
    else:
        from ..trace_distance import nearest_incoherent

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
