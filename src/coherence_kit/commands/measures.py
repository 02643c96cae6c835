"""``measures``: coherence measures of one or more state files."""

from __future__ import annotations

from ..cli import EXIT_OK, MEASURE_CHOICES, _sparse
from ..errors import ValidationError


def _closed_forms(sf) -> tuple:
    """c_l1, c_rel_entropy, c_robustness_pure and nearest_incoherent for the
    state of ``sf``: those of ``pure_floats`` when it was read as Python numbers."""
    if isinstance(sf.data, list):
        from ..pure_floats import c_l1, c_rel_entropy, c_robustness_pure, nearest_incoherent
    else:
        from ..measures import c_l1, c_rel_entropy, c_robustness_pure

        def nearest_incoherent(state):
            # Imported at the first pure `tr`: a call on mixed states only never needs it.
            from ..trace_distance import nearest_incoherent

            return nearest_incoherent(state)
    return c_l1, c_rel_entropy, c_robustness_pure, nearest_incoherent


def handle(args, inputs) -> tuple[dict | None, int]:
    loaded = []
    for path in args.input:
        sf, state = inputs.load(path, "measures", "pure", "mixed", python_floats=True)
        pure = sf.kind == "pure"
        names = args.measure or (MEASURE_CHOICES if pure else ("l1", "rel-ent", "tr"))
        if "robustness" in names and not pure:
            raise ValidationError(
                f"{path}: measure 'robustness' is only available for kind 'pure', "
                "not for mixed states"
            )
        loaded.append((sf, state, dict.fromkeys(names)))
    mixed_tr = []
    for sf, state, values in loaded:
        c_l1, c_rel_entropy, c_robustness_pure, nearest_incoherent = _closed_forms(sf)
        for name in values:
            if name == "l1":
                values[name] = c_l1(state)
            elif name == "rel-ent":
                values[name] = c_rel_entropy(state)
            elif name == "robustness":
                values[name] = c_robustness_pure(state)
            elif sf.kind == "pure":
                result = nearest_incoherent(state)
                values[name] = {
                    "value": result.c_tr,
                    "approximate": False,
                    "k": result.k,
                    "q_k": result.q_k,
                    "nearest": _sparse(result.nearest.diag),
                    "operator_norm_distance": result.mu,
                }
            else:
                mixed_tr.append((values, state))
    if mixed_tr:
        from ..mixed_tr import c_tr_mixed_many

        # One solve for every mixed state: those of one dimension share each eigh.
        results = c_tr_mixed_many([state for _, state in mixed_tr], max_iters=args.max_iters)
        for (values, _), result in zip(mixed_tr, results):
            values["tr"] = {
                "value": result.value,
                "lower_bound": result.lower_bound,
                "gap": result.value - result.lower_bound,
                "iterations": result.iterations,
                "converged": result.converged,
                "nearest": _sparse(result.nearest.diag),
            }
    body = {
        "requested": args.measure or "all applicable",
        "states": [
            {"kind": sf.kind, "dims": list(sf.dims), "values": values} for sf, _, values in loaded
        ],
    }
    return body, EXIT_OK
