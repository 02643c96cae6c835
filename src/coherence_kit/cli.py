"""Command-line front end: state ingestion, batch measures, certification,
entanglement reports, channel verification, random generation, benchmarks.

Every command takes one path: the arguments are parsed, the handler loads
and checks its inputs, and ``main`` wraps the body of the report in the
report envelope and renders it as JSON or as a table. A handler returns
``(inputs, body, code)``: the (path, digest) pair of each file it read, the
report body (None for ``random``, which writes state files itself) and the
exit code. A handler imports the layers it runs when it runs, so a call loads
only its own command's modules.

Exit codes form a stable scripting contract: 0 success, 1 validation failure
(a usage error included) or an input too large for the memory available, 2 a
requested certificate or verification came back negative, 3 internal
numerical failure.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # A CLI call is one short process that makes little cyclic garbage; the
    # collector's passes would mostly walk the objects that importing numpy
    # and the package creates. Disabled here, before numpy loads; ``run``
    # does the same for the console script.
    gc.disable()

import argparse
import contextlib
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .core import InconclusiveCertificateError, PureState, ValidationError
from .io import (
    StateFile,
    dump_state_document,
    format_floats,
    load_state_file,
    render_json,
    state_document,
    to_state,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CERTIFICATE = 2
EXIT_NUMERICAL = 3

MEASURE_CHOICES = ("l1", "rel-ent", "robustness", "tr")


def thread_cap() -> int:
    """Worker cap from COHERENCE_KIT_THREADS; defaults to the CPU count.

    The CLI runs its inputs in order on one thread; the benchmark's traced
    replay (``perfbench/tracing.py``) still reads this cap.
    """
    raw = os.environ.get("COHERENCE_KIT_THREADS", "")
    try:
        value = int(raw)
    except ValueError:
        value = os.cpu_count() or 1
    return max(1, value)


def _flatten(obj, prefix="", out=None):
    if out is None:
        out = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}{key}." if prefix else f"{key}.", out)
    elif isinstance(obj, np.ndarray):
        out.append((prefix[:-1], format_floats(obj.shape, tuple(obj.ravel().tolist()))))
    elif isinstance(obj, list):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            out.append((prefix[:-1], format_floats((len(obj),), tuple(obj))))
        else:
            for i, value in enumerate(obj):
                _flatten(value, f"{prefix[:-1]}[{i}].", out)
    elif isinstance(obj, bool):
        out.append((prefix[:-1], "true" if obj else "false"))
    elif isinstance(obj, float):
        out.append((prefix[:-1], format_floats((), obj)))
    else:
        out.append((prefix[:-1], str(obj)))
    return out


@contextlib.contextmanager
def _output(output: str | None):
    """The file at ``output`` opened for writing, or stdout without one; an
    OSError opening or writing it is a ValidationError naming the path."""
    if not output:
        yield sys.stdout
        return
    try:
        with open(output, "w") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"{output}: {exc.strerror}") from exc


def _load(path: str, role: str, *kinds: str) -> tuple[StateFile, object]:
    """The state file at ``path`` and the state it describes.

    The document's kind is checked against ``kinds`` before any state is
    built; ``role`` names the command, or the command and option, reading it.
    """
    sf = load_state_file(path)
    if sf.kind not in kinds:
        accepted = " or ".join(repr(kind) for kind in kinds)
        hint = ""
        if sf.kind == "bipartite-pure" and "pure" in kinds:
            hint = "; use the 'entanglement' command for bipartite input"
        raise ValidationError(f"{path}: {role} takes kind {accepted}, got {sf.kind!r}{hint}")
    return sf, to_state(sf)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(command: str, flags: str, nbytes: int) -> None:
    """Refuse, before allocating, dense work estimated at more than physical memory.

    A host that overcommits memory may never raise MemoryError for it; the
    process would be killed instead.
    """
    available = _physical_memory()
    if available is not None and nbytes > available:
        raise ValidationError(
            f"{command}: {flags} needs about {nbytes / 1e9:.2f} GB of memory, "
            f"more than the {available / 1e9:.2f} GB of physical memory here"
        )


def _wall(started: float) -> dict:
    return {"wall_s": time.perf_counter() - started}


def cmd_measures(args) -> tuple[list, dict | None, int]:
    from .measures import c_l1, c_rel_entropy, c_robustness_pure
    from .trace_distance import nearest_incoherent

    started = time.perf_counter()
    loaded = []
    for path in args.input:
        sf, state = _load(path, "measures", "pure", "mixed")
        pure = isinstance(state, PureState)
        names = args.measure or (MEASURE_CHOICES if pure else ("l1", "rel-ent", "tr"))
        if "robustness" in names and not pure:
            raise ValidationError(
                f"{path}: measure 'robustness' is only available for kind 'pure', "
                "not for mixed states"
            )
        loaded.append((sf, state, dict.fromkeys(names)))
    mixed_tr = []
    for sf, state, values in loaded:
        for name in values:
            if name == "l1":
                values[name] = c_l1(state)
            elif name == "rel-ent":
                values[name] = c_rel_entropy(state)
            elif name == "robustness":
                values[name] = c_robustness_pure(state)
            elif isinstance(state, PureState):
                result = nearest_incoherent(state)
                values[name] = {
                    "value": result.c_tr,
                    "approximate": False,
                    "k": result.k,
                    "q_k": result.q_k,
                    "nearest": result.nearest.diag,
                    "operator_norm_distance": result.mu,
                }
            else:
                mixed_tr.append((values, state))
    if mixed_tr:
        from .oracle import c_tr_subgradient_many

        # One oracle run for every mixed state: those of one dimension share each eigh.
        oracles = c_tr_subgradient_many(
            [state for _, state in mixed_tr], max_iters=args.max_iters, step_scale=args.step_scale
        )
        for (values, _), oracle in zip(mixed_tr, oracles):
            values["tr"] = {
                "value": oracle.value,
                "approximate": True,
                "iterations": oracle.iterations,
                "converged": oracle.converged,
                "nearest": oracle.argmin.diag,
            }
    body = {
        "requested": args.measure or "all applicable",
        "states": [
            {"kind": sf.kind, "dims": list(sf.dims), "values": values} for sf, _, values in loaded
        ],
        "timings": _wall(started),
    }
    return [(path, sf.digest) for path, (sf, _, _) in zip(args.input, loaded)], body, EXIT_OK


def cmd_nearest(args) -> tuple[list, dict | None, int]:
    from .trace_distance import nearest_incoherent

    sf, state = _load(args.input, "nearest", "pure")
    started = time.perf_counter()
    result = nearest_incoherent(state)
    timings = _wall(started)
    body = {
        "k": result.k,
        "q_k": result.q_k,
        "nearest": result.nearest.diag,
        "mu": result.mu,
        "c_tr": result.c_tr,
        "operator_norm_distance": result.mu,
        "timings": timings,
    }
    return [(args.input, sf.digest)], body, EXIT_OK


def cmd_verify(args) -> tuple[list, dict | None, int]:
    from .certificates import verify_mixed_invertible, verify_pure_optimality

    sf, state = _load(args.input, "verify --input", "pure", "mixed")
    cf, candidate = _load(args.candidate, "verify --candidate", "incoherent")
    started = time.perf_counter()
    if sf.kind == "pure":
        certificate = asdict(verify_pure_optimality(state, candidate, tol=args.tol))
        passed = certificate["optimal"]
    else:
        certificate = asdict(verify_mixed_invertible(state, candidate, tol=args.tol))
        passed = certificate["certified"]
    body = {"certificate": certificate, "timings": _wall(started)}
    inputs = [(args.input, sf.digest), (args.candidate, cf.digest)]
    return inputs, body, EXIT_OK if passed else EXIT_CERTIFICATE


def cmd_entanglement(args) -> tuple[list, dict | None, int]:
    from .entanglement import (
        check_negativity_bound,
        e_r_pure,
        negativity_pure,
        schmidt_vector,
    )
    from .trace_distance import nearest_incoherent

    sf, state = _load(args.input, "entanglement", "bipartite-pure")
    started = time.perf_counter()
    lam = schmidt_vector(state)
    result = nearest_incoherent(lam)
    body = {
        "schmidt_coefficients": lam.amplitudes.real,
        "e_tr": result.c_tr,
        "nearest_schmidt_weights": result.nearest.diag,
        "negativity": negativity_pure(lam),
        "e_r": e_r_pure(lam),
        "bound_check": asdict(check_negativity_bound(lam)),
        "timings": _wall(started),
    }
    return [(args.input, sf.digest)], body, EXIT_OK


def cmd_channel_verify(args) -> tuple[list, dict | None, int]:
    from .entanglement import verify_channel_pipeline
    from .random_states import random_real_separable, random_schmidt_state

    rng = np.random.default_rng(args.seed)
    inputs = []
    if args.sigma:
        sf, sigma = _load(args.sigma, "channel-verify --sigma", "mixed")
        if args.local_dim * args.local_dim != sigma.dim:
            raise ValidationError(
                f"{args.sigma}: sigma has dimension {sigma.dim}, which is not "
                f"--local-dim {args.local_dim} squared"
            )
        inputs.append((args.sigma, sf.digest))
    else:
        # sigma is d^2 x d^2 complex; sampling and validating it hold about four copies.
        _require_memory("channel-verify", f"--local-dim {args.local_dim}", 64 * args.local_dim**4)
        sigma = random_real_separable(args.local_dim, args.terms, rng)
    if args.input:
        vf, v = _load(args.input, "channel-verify --input", "bipartite-pure")
        inputs.append((args.input, vf.digest))
    else:
        v = random_schmidt_state(args.local_dim, rng)
    started = time.perf_counter()
    check = verify_channel_pipeline(sigma, v, tol=args.tol)
    body = {"local_dim": args.local_dim, **asdict(check), "timings": _wall(started)}
    passed = check.incoherent_ok and check.fixed_point_ok
    return inputs, body, EXIT_OK if passed else EXIT_CERTIFICATE


def cmd_random(args) -> tuple[list, dict | None, int]:
    from .random_states import random_bipartite_pure, random_mixed_state, random_pure_state

    m = args.m or args.n
    entries = {"pure": args.n, "mixed": args.n * args.n, "bipartite-pure": m * args.n}[args.kind]
    flags = f"--m {m} --n {args.n}" if args.kind == "bipartite-pure" else f"--n {args.n}"
    # About 128 bytes per entry for sampling and formatting, and as much for
    # the text of the document. Each document is written, and dropped, before
    # the next is sampled, so --count does not change the peak.
    _require_memory("random", flags, 128 * entries * 2)
    rng = np.random.default_rng(args.seed)
    with _output(args.output) as out:
        for _ in range(args.count):
            if args.kind == "pure":
                data = random_pure_state(args.n, rng).amplitudes
            elif args.kind == "mixed":
                data = random_mixed_state(args.n, rng).matrix
            else:
                data = random_bipartite_pure(m, args.n, rng).amplitudes
            out.write(dump_state_document(state_document(args.kind, data)))
            out.write("\n")
            del data
    return [], None, EXIT_OK


def cmd_bench(args) -> tuple[list, dict | None, int]:
    from .random_states import random_pure_state
    from .trace_distance import nearest_incoherent

    rng = np.random.default_rng(args.seed)
    rows = []
    for n in args.sizes:
        state = random_pure_state(n, rng)
        times = []
        for _ in range(args.repetitions):
            started = time.perf_counter()
            result = nearest_incoherent(state)
            times.append(time.perf_counter() - started)
        rows.append(
            {
                "n": n,
                "c_tr": result.c_tr,
                "timings": {"best_s": min(times), "median_s": sorted(times)[len(times) // 2]},
            }
        )
    body = {"sizes": args.sizes, "repetitions": args.repetitions, "results": rows}
    if len(args.sizes) >= 2:
        logs_n = np.log([row["n"] for row in rows])
        logs_t = np.log([row["timings"]["best_s"] for row in rows])
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
        body["loglog_slope"] = slope
        body["scaling_consistent_with_nlogn"] = bool(0.9 <= slope <= 1.3)
    return [], body, EXIT_OK


def cmd_oracle(args) -> tuple[list, dict | None, int]:
    from .oracle import c_tr_grid, c_tr_subgradient

    sf, state = _load(args.input, "oracle", "pure", "mixed")
    started = time.perf_counter()
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
        "argmin": result.argmin.diag,
        "iterations": result.iterations,
        "converged": result.converged,
        "timings": _wall(started),
    }
    return [(args.input, sf.digest)], body, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the validation code; argparse's own 2 would read
    as a negative certificate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _number(convert, accept, what: str):
    """An argparse type: ``convert(text)``, a usage error unless ``accept`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_step_scale = _number(float, lambda v: 0.0 < v < np.inf, "a finite positive number")
_tolerance = _number(float, lambda v: 0.0 <= v < np.inf, "a finite non-negative number")


def _sizes(text: str) -> list[int]:
    sizes = [_positive_int(size) for size in text.split(",") if size]
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coherence-kit",
        description="Coherence and entanglement measures with certificates and oracles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("measures", cmd_measures, "coherence measures of a state file")
    p.add_argument("--input", action="append", required=True, help="state file (repeatable)")
    p.add_argument("--measure", action="append", choices=MEASURE_CHOICES)
    p.add_argument(
        "--max-iters", type=_non_negative_int, default=20000, help="mixed-state oracle budget"
    )
    p.add_argument("--step-scale", type=_step_scale, default=0.02)

    p = command("nearest", cmd_nearest, "nearest incoherent state of a pure state")
    p.add_argument("--input", required=True)

    p = command("verify", cmd_verify, "certify a nearest-incoherent candidate")
    p.add_argument("--input", required=True)
    p.add_argument("--candidate", required=True, help="incoherent state document")
    p.add_argument("--tol", type=_tolerance, default=None)

    p = command("entanglement", cmd_entanglement, "entanglement measures of a bipartite pure state")
    p.add_argument("--input", required=True)

    p = command("channel-verify", cmd_channel_verify, "run the PPT-to-incoherent channel pipeline")
    p.add_argument("--sigma", help="mixed state document on an n(x)n space")
    p.add_argument("--input", help="bipartite-pure document in Schmidt form")
    p.add_argument("--local-dim", type=_positive_int, default=3)
    p.add_argument("--terms", type=_positive_int, default=6, help="product terms for random sigma")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = command("random", cmd_random, "sample state files (JSON lines)")
    p.add_argument("--kind", choices=("pure", "mixed", "bipartite-pure"), default="pure")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, default=None, help="left dimension for bipartite states")
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = command("bench", cmd_bench, "time the closed-form solver across sizes")
    p.add_argument("--sizes", type=_sizes, default="1000,10000,100000,1000000")
    p.add_argument("--repetitions", type=_positive_int, default=3)
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = command("oracle", cmd_oracle, "brute-force trace-distance minimization")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("subgradient", "grid"), default="subgradient")
    p.add_argument("--max-iters", type=_non_negative_int, default=20000)
    p.add_argument("--step-scale", type=_step_scale, default=0.02)
    p.add_argument("--resolution", type=_positive_int, default=300)
    p.add_argument("--tol", type=_tolerance, default=1e-10)

    for name, p in sub.choices.items():
        if name != "random":
            p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, body, code = args.handler(args)
        if body is not None:
            report = {
                "tool": "coherence-kit",
                "version": __version__,
                "command": args.command,
                "seed": getattr(args, "seed", None),
                "inputs": [{"path": path, "digest": digest} for path, digest in inputs],
                **body,
            }
            if args.format == "table":
                text = "".join(f"{key} = {value}\n" for key, value in _flatten(report))
            else:
                text = render_json(report, indent=2) + "\n"
            with _output(args.output) as out:
                out.write(text)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(
            f"error: {args.command}: out of memory{detail}; the input is too large "
            "for the dense computation this command needs",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    except (InconclusiveCertificateError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


def run() -> None:
    """Entry point of the one-shot CLI process.

    The process runs without the cyclic garbage collector, and everything it
    holds at exit is frozen, so interpreter shutdown does not walk it all in
    a final collection. ``main`` alone, as a library call, leaves the
    collector as it found it.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
