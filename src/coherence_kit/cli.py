"""Command-line front end: state ingestion, batch measures, certification,
entanglement reports, channel verification, random generation, benchmarks.

Exit codes form a stable scripting contract: 0 success, 1 validation failure
or an input too large for the memory available, 2 a requested certificate or
verification came back negative, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .certificates import (
    InconclusiveCertificateError,
    verify_mixed_invertible,
    verify_pure_optimality,
)
from .core import (
    DensityMatrix,
    IncoherentState,
    PureState,
    ValidationError,
)
from .entanglement import (
    BipartitePureState,
    check_negativity_bound,
    e_r_pure,
    negativity_pure,
    schmidt,
    verify_channel_pipeline,
)
from .io import (
    dump_state_document,
    format_floats,
    load_state_file,
    render_json,
    state_document,
    to_state,
)
from .measures import c_l1, c_rel_entropy, c_robustness_pure
from .oracle import c_tr_grid, c_tr_subgradient
from .random_states import (
    random_bipartite_pure,
    random_mixed_state,
    random_pure_state,
    random_real_separable,
    random_schmidt_state,
)
from .trace_distance import nearest_incoherent

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CERTIFICATE = 2
EXIT_NUMERICAL = 3

MEASURE_CHOICES = ("l1", "rel-ent", "robustness", "tr")


def thread_cap() -> int:
    """Worker cap from COHERENCE_KIT_THREADS; defaults to the CPU count."""
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


def emit_report(report: dict, args) -> None:
    if getattr(args, "format", "json") == "table":
        lines = [f"{key} = {value}" for key, value in _flatten(report)]
        text = "\n".join(lines) + "\n"
    else:
        text = render_json(report, indent=2) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_envelope(command: str, args, inputs: list[tuple[str, str]]) -> dict:
    """The report head; ``inputs`` pairs each input path with the digest of
    the bytes that were parsed from it."""
    return {
        "tool": "coherence-kit",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "inputs": [{"path": p, "digest": digest} for p, digest in inputs],
    }


def _measures_for_state(path: str, which: list[str] | None, args) -> tuple[str, dict]:
    """The digest of the file parsed from ``path`` and its report entry."""
    sf = load_state_file(path)
    state = to_state(sf)
    entry: dict = {"kind": sf.kind, "dims": list(sf.dims), "values": {}}
    if sf.kind == "bipartite-pure":
        raise ValidationError(
            f"{path}: coherence measures take 'pure' or 'mixed' states; "
            "use the 'entanglement' command for bipartite input"
        )
    if sf.kind == "incoherent":
        raise ValidationError(f"{path}: expected a 'pure' or 'mixed' state document")

    if isinstance(state, PureState):
        if which is None:
            which = list(MEASURE_CHOICES)
        for name in which:
            if name == "l1":
                entry["values"]["l1"] = c_l1(state)
            elif name == "rel-ent":
                entry["values"]["rel-ent"] = c_rel_entropy(state)
            elif name == "robustness":
                entry["values"]["robustness"] = c_robustness_pure(state)
            elif name == "tr":
                result = nearest_incoherent(state)
                entry["values"]["tr"] = {
                    "value": result.c_tr,
                    "approximate": False,
                    "k": result.k,
                    "q_k": result.q_k,
                    "nearest": result.nearest.diag.tolist(),
                    "operator_norm_distance": result.op_dist,
                }
    else:
        assert isinstance(state, DensityMatrix)
        if which is None:
            which = ["l1", "rel-ent", "tr"]
        for name in which:
            if name == "robustness":
                raise ValidationError(
                    f"{path}: measure 'robustness' is only available for kind 'pure', "
                    "not for mixed states"
                )
            if name == "l1":
                entry["values"]["l1"] = c_l1(state)
            elif name == "rel-ent":
                entry["values"]["rel-ent"] = c_rel_entropy(state)
            elif name == "tr":
                oracle = c_tr_subgradient(
                    state, max_iters=args.max_iters, step_scale=args.step_scale
                )
                entry["values"]["tr"] = {
                    "value": oracle.value,
                    "approximate": True,
                    "iterations": oracle.iterations,
                    "converged": oracle.converged,
                    "nearest": oracle.argmin.diag.tolist(),
                }
    return sf.digest, entry


def cmd_measures(args) -> tuple[dict, int]:
    which = args.measure
    started = time.perf_counter()
    workers = min(thread_cap(), len(args.input))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda p: _measures_for_state(p, which, args), args.input)
            )
    else:
        results = [_measures_for_state(p, which, args) for p in args.input]
    digests, entries = zip(*results)
    report = _report_envelope("measures", args, list(zip(args.input, digests)))
    report["requested"] = which if which is not None else "all applicable"
    report["states"] = list(entries)
    report["timings"] = {"wall_s": time.perf_counter() - started}
    return report, EXIT_OK


def cmd_nearest(args) -> tuple[dict, int]:
    sf = load_state_file(args.input)
    if sf.kind != "pure":
        raise ValidationError(f"{args.input}: 'nearest' needs a pure state, got '{sf.kind}'")
    state = to_state(sf)
    started = time.perf_counter()
    result = nearest_incoherent(state)
    elapsed = time.perf_counter() - started
    report = _report_envelope("nearest", args, [(args.input, sf.digest)])
    report.update(
        {
            "k": result.k,
            "q_k": result.q_k,
            "nearest": result.nearest.diag.tolist(),
            "mu": result.mu,
            "c_tr": result.c_tr,
            "operator_norm_distance": result.op_dist,
            "timings": {"wall_s": elapsed},
        }
    )
    return report, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    sf = load_state_file(args.input)
    cf = load_state_file(args.candidate)
    if cf.kind != "incoherent":
        raise ValidationError(
            f"{args.candidate}: candidate must be an 'incoherent' document"
        )
    candidate = IncoherentState(cf.data)
    report = _report_envelope(
        "verify", args, [(args.input, sf.digest), (args.candidate, cf.digest)]
    )
    started = time.perf_counter()
    if sf.kind == "pure":
        certificate = verify_pure_optimality(to_state(sf), candidate, tol=args.tol)
        report["certificate"] = {
            "optimal": certificate.optimal,
            "margin": certificate.margin,
        }
        code = EXIT_OK if certificate.optimal else EXIT_CERTIFICATE
    elif sf.kind == "mixed":
        certificate = verify_mixed_invertible(to_state(sf), candidate, tol=args.tol)
        report["certificate"] = {
            "certified": certificate.certified,
            "margin": certificate.margin,
        }
        code = EXIT_OK if certificate.certified else EXIT_CERTIFICATE
    else:
        raise ValidationError(f"{args.input}: 'verify' needs a pure or mixed state")
    report["timings"] = {"wall_s": time.perf_counter() - started}
    return report, code


def cmd_entanglement(args) -> tuple[dict, int]:
    sf = load_state_file(args.input)
    if sf.kind != "bipartite-pure":
        raise ValidationError(
            f"{args.input}: 'entanglement' needs a bipartite-pure state, got '{sf.kind}'"
        )
    state: BipartitePureState = to_state(sf)
    started = time.perf_counter()
    data = schmidt(state)
    coeff_state = PureState(data.coefficients)
    result = nearest_incoherent(coeff_state)
    bound = check_negativity_bound(state)
    report = _report_envelope("entanglement", args, [(args.input, sf.digest)])
    report.update(
        {
            "schmidt_coefficients": data.coefficients.tolist(),
            "e_tr": result.c_tr,
            "nearest_schmidt_weights": result.nearest.diag.tolist(),
            "negativity": negativity_pure(state),
            "e_r": e_r_pure(state),
            "bound_check": {
                "e_r": bound.e_r,
                "two_n": bound.two_n,
                "old_bound": bound.old_bound,
                "holds": bound.holds,
                "improves": bound.improves,
            },
            "timings": {"wall_s": time.perf_counter() - started},
        }
    )
    return report, EXIT_OK


def cmd_channel_verify(args) -> tuple[dict, int]:
    rng = np.random.default_rng(args.seed)
    inputs = []
    local_dim = args.local_dim
    if args.sigma:
        sf = load_state_file(args.sigma)
        if sf.kind != "mixed":
            raise ValidationError(f"{args.sigma}: sigma must be a 'mixed' state document")
        sigma = to_state(sf)
        if local_dim * local_dim != sigma.dim:
            raise ValidationError(
                f"{args.sigma}: sigma has dimension {sigma.dim}, which is not "
                f"--local-dim {local_dim} squared"
            )
        inputs.append((args.sigma, sf.digest))
    else:
        sigma = random_real_separable(local_dim, args.terms, rng)
    if args.input:
        vf = load_state_file(args.input)
        if vf.kind != "bipartite-pure":
            raise ValidationError(f"{args.input}: v must be a 'bipartite-pure' document")
        v = to_state(vf)
        inputs.append((args.input, vf.digest))
    else:
        v = random_schmidt_state(local_dim, rng)

    report = _report_envelope("channel-verify", args, inputs)
    started = time.perf_counter()
    check = verify_channel_pipeline(sigma, v, tol=args.tol)
    report.update(
        {
            "local_dim": local_dim,
            "incoherent_ok": check.incoherent_ok,
            "fixed_point_ok": check.fixed_point_ok,
            "offdiag_mass": check.offdiag_mass,
            "fixed_point_distance": check.fixed_point_distance,
            "timings": {"wall_s": time.perf_counter() - started},
        }
    )
    ok = check.incoherent_ok and check.fixed_point_ok
    return report, EXIT_OK if ok else EXIT_CERTIFICATE


def cmd_random(args) -> tuple[dict | None, int]:
    rng = np.random.default_rng(args.seed)
    lines = []
    for _ in range(args.count):
        if args.kind == "pure":
            doc = state_document("pure", random_pure_state(args.n, rng).amplitudes)
        elif args.kind == "mixed":
            doc = state_document("mixed", random_mixed_state(args.n, rng).matrix)
        else:
            m = args.m or args.n
            doc = state_document(
                "bipartite-pure", random_bipartite_pure(m, args.n, rng).amplitudes
            )
        lines.append(dump_state_document(doc))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return None, EXIT_OK


def cmd_bench(args) -> tuple[dict, int]:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in sizes:
        state = random_pure_state(n, rng)
        times = []
        values = []
        for _ in range(args.repetitions):
            started = time.perf_counter()
            result = nearest_incoherent(state)
            times.append(time.perf_counter() - started)
            values.append(result.c_tr)
        rows.append(
            {
                "n": n,
                "c_tr": values[0],
                "timings": {
                    "best_s": min(times),
                    "median_s": sorted(times)[len(times) // 2],
                },
            }
        )
    report = _report_envelope("bench", args, [])
    report["sizes"] = sizes
    report["repetitions"] = args.repetitions
    report["results"] = rows
    if len(sizes) >= 2:
        logs_n = np.log([row["n"] for row in rows])
        logs_t = np.log([row["timings"]["best_s"] for row in rows])
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
        report["loglog_slope"] = slope
        report["scaling_consistent_with_nlogn"] = bool(0.9 <= slope <= 1.3)
    return report, EXIT_OK


def cmd_oracle(args) -> tuple[dict, int]:
    sf = load_state_file(args.input)
    if sf.kind not in ("pure", "mixed"):
        raise ValidationError(f"{args.input}: oracle needs a pure or mixed state")
    state = to_state(sf)
    density = state.density() if isinstance(state, PureState) else state
    report = _report_envelope("oracle", args, [(args.input, sf.digest)])
    started = time.perf_counter()
    if args.method == "grid":
        result = c_tr_grid(density, resolution=args.resolution)
    else:
        result = c_tr_subgradient(
            density,
            max_iters=args.max_iters,
            step_scale=args.step_scale,
            tol=args.tol,
        )
    report.update(
        {
            "method": args.method,
            "approximate": True,
            "value": result.value,
            "argmin": result.argmin.diag.tolist(),
            "iterations": result.iterations,
            "converged": result.converged,
            "timings": {"wall_s": time.perf_counter() - started},
        }
    )
    return report, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherence-kit",
        description="Coherence and entanglement measures with certificates and oracles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--format", choices=("json", "table"), default="json")
        if output:
            p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("measures", help="coherence measures of a state file")
    p.add_argument("--input", action="append", required=True, help="state file (repeatable)")
    p.add_argument("--measure", action="append", choices=MEASURE_CHOICES)
    p.add_argument("--max-iters", type=int, default=20000, help="mixed-state oracle budget")
    p.add_argument("--step-scale", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_measures)

    p = sub.add_parser("nearest", help="nearest incoherent state of a pure state")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_nearest)

    p = sub.add_parser("verify", help="certify a nearest-incoherent candidate")
    p.add_argument("--input", required=True)
    p.add_argument("--candidate", required=True, help="incoherent state document")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("entanglement", help="entanglement measures of a bipartite pure state")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_entanglement)

    p = sub.add_parser("channel-verify", help="run the PPT-to-incoherent channel pipeline")
    p.add_argument("--sigma", help="mixed state document on an n(x)n space")
    p.add_argument("--input", help="bipartite-pure document in Schmidt form")
    p.add_argument("--local-dim", type=int, default=3)
    p.add_argument("--terms", type=int, default=6, help="product terms for random sigma")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=cmd_channel_verify)

    p = sub.add_parser("random", help="sample state files (JSON lines)")
    p.add_argument("--kind", choices=("pure", "mixed", "bipartite-pure"), default="pure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="left dimension for bipartite states")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_random)

    p = sub.add_parser("bench", help="time the closed-form solver across sizes")
    p.add_argument("--sizes", default="1000,10000,100000,1000000")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force trace-distance minimization")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("subgradient", "grid"), default="subgradient")
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--step-scale", type=float, default=0.02)
    p.add_argument("--resolution", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)
    p.set_defaults(handler=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
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
    if report is not None:
        emit_report(report, args)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
