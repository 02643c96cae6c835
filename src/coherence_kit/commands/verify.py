"""``verify``: certify a nearest-incoherent candidate of a pure or mixed state."""

from __future__ import annotations

from ..cli import EXIT_CERTIFICATE, EXIT_OK


def handle(args, inputs) -> tuple[dict | None, int]:
    from ..certificates import verify_mixed_optimality, verify_pure_optimality

    sf, state = inputs.load(args.input, "verify --input", "pure", "mixed")
    _, candidate = inputs.load(args.candidate, "verify --candidate", "incoherent")
    if sf.kind == "pure":
        certificate = verify_pure_optimality(state, candidate, tol=args.tol)._asdict()
        passed = certificate["optimal"]
    else:
        certificate = verify_mixed_optimality(state, candidate, tol=args.tol)._asdict()
        passed = certificate["certified"]
    return {"certificate": certificate}, EXIT_OK if passed else EXIT_CERTIFICATE
