"""``verify``: certify a nearest-incoherent candidate of a pure or mixed state."""

from __future__ import annotations

from ..cli import EXIT_CERTIFICATE, EXIT_OK


def handle(args, inputs) -> tuple[dict | None, int]:
    sf, state = inputs.load(args.input, "verify --input", "pure", "mixed", python_floats=True)
    floats = isinstance(sf.data, list)
    # A state read as Python numbers takes its candidate as Python numbers too,
    # unless the candidate's file is too large for that.
    _, candidate = inputs.load(
        args.candidate, "verify --candidate", "incoherent", python_floats=floats
    )
    if sf.kind == "mixed":
        from ..certificates import verify_mixed_optimality

        certificate = verify_mixed_optimality(state, candidate, tol=args.tol)._asdict()
        passed = certificate["certified"]
    else:
        if floats:
            from ..pure_floats import verify_pure_optimality
        else:
            from ..certificates import verify_pure_optimality

        certificate = verify_pure_optimality(state, candidate, tol=args.tol)._asdict()
        passed = certificate["optimal"]
    return {"certificate": certificate}, EXIT_OK if passed else EXIT_CERTIFICATE
