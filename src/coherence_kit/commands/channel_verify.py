"""``channel-verify``: run the PPT-to-incoherent channel pipeline."""

from __future__ import annotations

from ..cli import EXIT_CERTIFICATE, EXIT_OK, _require_memory
from ..errors import ValidationError


def handle(args, inputs) -> tuple[dict | None, int]:
    from ..entanglement import verify_channel_pipeline
    from ..random_states import random_real_separable, random_schmidt_state

    sigma = v = None
    if args.sigma:
        _, sigma = inputs.load(args.sigma, "channel-verify --sigma", "mixed")
        if args.local_dim * args.local_dim != sigma.dim:
            raise ValidationError(
                f"{args.sigma}: sigma has dimension {sigma.dim}, which is not "
                f"--local-dim {args.local_dim} squared"
            )
    if args.input:
        _, v = inputs.load(args.input, "channel-verify --input", "bipartite-pure")
        if v.dims != (args.local_dim, args.local_dim):
            m, n = v.dims
            raise ValidationError(
                f"{args.input}: input state has dimensions {m} x {n}, which is not "
                f"--local-dim {args.local_dim} x {args.local_dim}"
            )
    # Both files are checked before anything is sampled; sigma is drawn before v.
    import numpy as np

    rng = np.random.default_rng(args.seed)
    if sigma is None:
        # sigma is d^2 x d^2 complex; sampling and validating it hold about four copies.
        _require_memory("channel-verify", f"--local-dim {args.local_dim}", 64 * args.local_dim**4)
        sigma = random_real_separable(args.local_dim, args.terms, rng)
    if v is None:
        v = random_schmidt_state(args.local_dim, rng)
    check = verify_channel_pipeline(sigma, v, tol=args.tol)
    passed = check.incoherent_ok and check.fixed_point_ok
    return {"local_dim": args.local_dim, **check._asdict()}, EXIT_OK if passed else EXIT_CERTIFICATE
