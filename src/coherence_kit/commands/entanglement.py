"""``entanglement``: entanglement measures of a bipartite pure state."""

from __future__ import annotations

from ..cli import EXIT_OK, _sparse


def handle(args, inputs) -> tuple[dict | None, int]:
    from ..entanglement import check_negativity_bound, schmidt_vector
    from ..trace_distance import nearest_incoherent

    _, state = inputs.load(args.input, "entanglement", "bipartite-pure")
    lam = schmidt_vector(state)
    result = nearest_incoherent(lam)
    check = check_negativity_bound(lam)
    body = {
        "schmidt_coefficients": lam.amplitudes.real,
        "e_tr": result.c_tr,
        "nearest_schmidt_weights": _sparse(result.nearest.diag),
        # N = C_l1(lambda) / 2 and E_r = C_r(lambda), as the bound check computed them.
        "negativity": check.two_n / 2.0,
        "e_r": check.e_r,
        "bound_check": check._asdict(),
    }
    return body, EXIT_OK
