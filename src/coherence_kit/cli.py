"""Command-line front end: state ingestion, batch measures, certification,
entanglement reports, channel verification, random generation, benchmarks.

Every command takes one path: the arguments are parsed, the handler loads
and checks its inputs through the ``_Inputs`` that ``main`` gives it, and
``main`` wraps the body of the report in the report envelope and renders it
as JSON or as a table. A handler returns ``(body, code)``: the report body
(None for ``random``, which writes state files itself) and the exit code.
``main`` times the handler call and ends every report with
``timings = {load_s, wall_s}``: the seconds spent loading the inputs, and
the rest of the handler's time. A handler imports the layers it runs when it
runs, so a call loads only its own command's modules.

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
import itertools
import os
import sys
import time

import numpy as np

from . import __version__
from .core import InconclusiveCertificateError, PureState, ValidationError
from .io import (
    StateFile,
    format_finite,
    load_state_file,
    render_pieces,
    to_state,
    write_state_file,
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
    elif isinstance(obj, list) and not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    ):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix[:-1]}[{i}].", out)
    elif isinstance(obj, (np.ndarray, list, float)):
        out.append((prefix[:-1], "".join(format_finite(obj))))
    elif isinstance(obj, bool):
        out.append((prefix[:-1], "true" if obj else "false"))
    else:
        out.append((prefix[:-1], str(obj)))
    return out


def _sparse(weights: np.ndarray) -> dict:
    """A nearest-incoherent weight vector as reports print it: the ascending
    indices of its nonzero weights, and those weights."""
    support = np.flatnonzero(weights)
    return {"support": support, "weights": weights[support]}


@contextlib.contextmanager
def _output(output: str | None):
    """The file at ``output`` opened for writing, or stdout without one; an
    OSError opening or writing the file is a ValidationError naming the path.
    Stdout is flushed on the way out, so a reader that has gone shows here."""
    if not output:
        yield sys.stdout
        sys.stdout.flush()
        return
    try:
        with open(output, "w") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"{output}: {exc.strerror}") from exc


class _Inputs:
    """The state files one command reads: the (path, digest) pair of each, in
    the order read, and ``load_s``, the seconds spent reading, parsing and
    validating them all."""

    def __init__(self):
        self.read: list[tuple[str, str]] = []
        self.load_s = 0.0

    def load(self, path: str, role: str, *kinds: str) -> tuple[StateFile, object]:
        """The state file at ``path`` and the state it describes.

        The document's kind is checked against ``kinds`` before any state is
        built; ``role`` names the command, or the command and option, reading it.
        """
        started = time.perf_counter()
        sf = load_state_file(path)
        if sf.kind not in kinds:
            accepted = " or ".join(repr(kind) for kind in kinds)
            hint = ""
            if sf.kind == "bipartite-pure" and "pure" in kinds:
                hint = "; use the 'entanglement' command for bipartite input"
            raise ValidationError(f"{path}: {role} takes kind {accepted}, got {sf.kind!r}{hint}")
        state = to_state(sf)
        self.load_s += time.perf_counter() - started
        self.read.append((path, sf.digest))
        return sf, state


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


def cmd_measures(args, inputs: _Inputs) -> tuple[dict | None, int]:
    from .measures import c_l1, c_rel_entropy, c_robustness_pure
    from .trace_distance import nearest_incoherent

    loaded = []
    for path in args.input:
        sf, state = inputs.load(path, "measures", "pure", "mixed")
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
                    "nearest": _sparse(result.nearest.diag),
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
                "nearest": _sparse(oracle.argmin.diag),
            }
    body = {
        "requested": args.measure or "all applicable",
        "states": [
            {"kind": sf.kind, "dims": list(sf.dims), "values": values} for sf, _, values in loaded
        ],
    }
    return body, EXIT_OK


def cmd_nearest(args, inputs: _Inputs) -> tuple[dict | None, int]:
    from .trace_distance import nearest_incoherent

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


def cmd_verify(args, inputs: _Inputs) -> tuple[dict | None, int]:
    from .certificates import verify_mixed_invertible, verify_pure_optimality

    sf, state = inputs.load(args.input, "verify --input", "pure", "mixed")
    _, candidate = inputs.load(args.candidate, "verify --candidate", "incoherent")
    if sf.kind == "pure":
        certificate = verify_pure_optimality(state, candidate, tol=args.tol)._asdict()
        passed = certificate["optimal"]
    else:
        certificate = verify_mixed_invertible(state, candidate, tol=args.tol)._asdict()
        passed = certificate["certified"]
    return {"certificate": certificate}, EXIT_OK if passed else EXIT_CERTIFICATE


def cmd_entanglement(args, inputs: _Inputs) -> tuple[dict | None, int]:
    from .entanglement import check_negativity_bound, schmidt_vector
    from .trace_distance import nearest_incoherent

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


def cmd_channel_verify(args, inputs: _Inputs) -> tuple[dict | None, int]:
    from .entanglement import verify_channel_pipeline
    from .random_states import random_real_separable, random_schmidt_state

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


def cmd_random(args, inputs: _Inputs) -> tuple[dict | None, int]:
    from . import io as state_io
    from .random_states import random_bipartite_pure, random_mixed_state, random_pure_state

    if args.m is not None and args.kind != "bipartite-pure":
        raise ValidationError(f"random: --m applies only to --kind bipartite-pure, not {args.kind}")
    m = args.m or args.n
    entries = {"pure": args.n, "mixed": args.n * args.n, "bipartite-pure": m * args.n}[args.kind]
    flags = f"--m {m} --n {args.n}" if args.kind == "bipartite-pure" else f"--n {args.n}"
    # Peak child RSS less start-up is about 50 bytes per entry for a mixed
    # state (G, its conjugate and G G^dagger while it is sampled) and 33 for
    # the others, plus half as much again; the text is written a piece at a time.
    _require_memory("random", flags, (75 if args.kind == "mixed" else 50) * entries)
    rng = np.random.default_rng(args.seed)
    with _output(args.output) as out:
        for _ in range(args.count):
            if args.kind == "pure":
                data = random_pure_state(args.n, rng).amplitudes
            elif args.kind == "mixed":
                data = random_mixed_state(args.n, rng).matrix
            else:
                data = random_bipartite_pure(m, args.n, rng).amplitudes
            digest, size = write_state_file(out, args.kind, data)
            if args.output and args.count == 1 and size >= state_io.CACHE_MIN_BYTES:
                from . import cache

                # The file holds exactly these bytes, and they parse back to ``data``.
                cache.store(digest, args.kind, data)
            del data
    return None, EXIT_OK


def cmd_bench(args, inputs: _Inputs) -> tuple[dict | None, int]:
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
    # A line through one distinct size is not determined.
    if len(set(args.sizes)) >= 2:
        logs_n = np.log([row["n"] for row in rows])
        logs_t = np.log([row["timings"]["best_s"] for row in rows])
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
        body["loglog_slope"] = slope
        body["scaling_consistent_with_nlogn"] = bool(0.9 <= slope <= 1.3)
    return body, EXIT_OK


def cmd_oracle(args, inputs: _Inputs) -> tuple[dict | None, int]:
    from .oracle import c_tr_grid, c_tr_subgradient

    _, state = inputs.load(args.input, "oracle", "pure", "mixed")
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
        "argmin": _sparse(result.argmin.diag),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return body, EXIT_OK


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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every command is registered with its help line, so
    help and an unknown command list them all, but only ``command`` gets its
    options, or every command when it is None: a call builds its own only."""
    parser = _Parser(
        prog="coherence-kit",
        description="Coherence and entanglement measures with certificates and oracles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's handler, help line and options, as (flag, add_argument keywords).
    commands = {
        "measures": (cmd_measures, "coherence measures of a state file", [
            ("--input", dict(action="append", required=True, help="state file (repeatable)")),
            ("--measure", dict(action="append", choices=MEASURE_CHOICES)),
            ("--max-iters", dict(
                type=_non_negative_int, default=20000, help="mixed-state oracle budget")),
            ("--step-scale", dict(type=_step_scale, default=0.02)),
        ]),
        "nearest": (cmd_nearest, "nearest incoherent state of a pure state", [
            ("--input", dict(required=True)),
        ]),
        "verify": (cmd_verify, "certify a nearest-incoherent candidate", [
            ("--input", dict(required=True)),
            ("--candidate", dict(required=True, help="incoherent state document")),
            ("--tol", dict(type=_tolerance, default=None)),
        ]),
        "entanglement": (cmd_entanglement, "entanglement measures of a bipartite pure state", [
            ("--input", dict(required=True)),
        ]),
        "channel-verify": (cmd_channel_verify, "run the PPT-to-incoherent channel pipeline", [
            ("--sigma", dict(help="mixed state document on an n(x)n space")),
            ("--input", dict(help="bipartite-pure document in Schmidt form")),
            ("--local-dim", dict(type=_positive_int, default=3)),
            ("--terms", dict(type=_positive_int, default=6, help="product terms for random sigma")),
            ("--tol", dict(type=_tolerance, default=None)),
            ("--seed", dict(type=_non_negative_int, default=0)),
        ]),
        "random": (cmd_random, "sample state files (JSON lines)", [
            ("--kind", dict(choices=("pure", "mixed", "bipartite-pure"), default="pure")),
            ("--n", dict(type=_positive_int, required=True)),
            ("--m", dict(
                type=_positive_int, default=None, help="left dimension for bipartite states")),
            ("--count", dict(type=_positive_int, default=1)),
            ("--seed", dict(type=_non_negative_int, default=0)),
        ]),
        "bench": (cmd_bench, "time the closed-form solver across sizes", [
            ("--sizes", dict(type=_sizes, default="10000,100000,1000000")),
            ("--repetitions", dict(type=_positive_int, default=3)),
            ("--seed", dict(type=_non_negative_int, default=0)),
        ]),
        "oracle": (cmd_oracle, "brute-force trace-distance minimization", [
            ("--input", dict(required=True)),
            ("--method", dict(choices=("subgradient", "grid"), default="subgradient")),
            ("--max-iters", dict(type=_non_negative_int, default=20000)),
            ("--step-scale", dict(type=_step_scale, default=0.02)),
            ("--resolution", dict(type=_positive_int, default=300)),
            ("--tol", dict(type=_tolerance, default=1e-10)),
        ]),
    }
    for name, (handler, summary, options) in commands.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if command is not None and command != name:
            continue
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if name != "random":
            p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top level takes only -h and --version, which take no value, so the
    # first token that is not an option names the command, if any does.
    command = next((token for token in argv if not token.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    inputs = _Inputs()
    try:
        started = time.perf_counter()
        body, code = args.handler(args, inputs)
        handler_s = time.perf_counter() - started
        if body is not None:
            report = {
                "tool": "coherence-kit",
                "version": __version__,
                "command": args.command,
                "seed": getattr(args, "seed", None),
                "inputs": [{"path": path, "digest": digest} for path, digest in inputs.read],
                **body,
                "timings": {"load_s": inputs.load_s, "wall_s": handler_s - inputs.load_s},
            }
            if args.format == "table":
                pieces = [f"{key} = {value}\n" for key, value in _flatten(report)]
            else:
                pieces = itertools.chain(render_pieces(report, indent=2), ("\n",))
            with _output(args.output) as out:
                out.writelines(pieces)
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
    except BrokenPipeError:
        # The reader of stdout has gone; ``run`` silences what is still buffered.
        return EXIT_VALIDATION
    return code


def run() -> None:
    """Entry point of the one-shot CLI process.

    The process runs without the cyclic garbage collector, and everything it
    holds at exit is frozen, so interpreter shutdown does not walk it all in
    a final collection. When the reader of stdout has gone, stdout is pointed
    at os.devnull, so the interpreter's last flush finds no broken pipe.
    ``main`` alone, as a library call, leaves the collector and stdout as it
    found them.
    """
    gc.disable()
    try:
        code = main()
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            code = EXIT_VALIDATION
        sys.exit(code)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
