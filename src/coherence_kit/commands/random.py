"""``random``: sample state files, written as JSON lines."""

from __future__ import annotations

from .. import io as state_io
from ..cli import EXIT_OK, _output, _require_memory
from ..errors import ValidationError


def handle(args, inputs) -> tuple[dict | None, int]:
    if args.m is not None and args.kind != "bipartite-pure":
        raise ValidationError(f"random: --m applies only to --kind bipartite-pure, not {args.kind}")
    m = args.m or args.n
    entries = {"pure": args.n, "mixed": args.n * args.n, "bipartite-pure": m * args.n}[args.kind]
    flags = f"--m {m} --n {args.n}" if args.kind == "bipartite-pure" else f"--n {args.n}"
    # Peak child RSS less start-up is about 50 bytes per entry for a mixed
    # state (G, its conjugate and G G^dagger while it is sampled) and 33 for
    # the others, plus half as much again; the text is written a piece at a time.
    _require_memory("random", flags, (75 if args.kind == "mixed" else 50) * entries)
    # Imported after the refusals above, which need no numpy.
    import numpy as np

    from ..random_states import random_bipartite_pure, random_mixed_state, random_pure_state

    rng = np.random.default_rng(args.seed)
    with _output(args.output) as out:
        for _ in range(args.count):
            if args.kind == "pure":
                data = random_pure_state(args.n, rng).amplitudes
            elif args.kind == "mixed":
                data = random_mixed_state(args.n, rng).matrix
            else:
                data = random_bipartite_pure(m, args.n, rng).amplitudes
            digest, size = state_io.write_state_file(out, args.kind, data)
            if args.output and args.count == 1 and size >= state_io.CACHE_MIN_BYTES:
                from .. import cache

                # The file holds exactly these bytes, and they parse back to ``data``.
                cache.store(digest, args.kind, data)
            del data
    return None, EXIT_OK
