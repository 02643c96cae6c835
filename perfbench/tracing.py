"""Traced in-process replay of CLI calls, one span per call into a layer.

The replay repeats a handler's sequence of public layer calls on the same
inputs, each inside a span, so the time of a whole call splits into layers.
The layers are the modules of ``coherence_kit`` (``config`` holds only
constants). Spans are kept in memory and written out when the run ends.

Two calls the handlers make inside other layers are observed at the core
boundary while a replay runs: ``PureState.projector`` (every n x n matrix a
pure state forms, as span ``core.density``) and ``hermitian_eig`` as the
certificates module calls it (the size of the dense eigenproblem).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from coherence_kit import certificates, cli, core, entanglement, io, measures, oracle
from coherence_kit import random_states, trace_distance


class Tracer:
    """Spans with name, start, end, parent span and call id; counters beside them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, call: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "call": call if call is not None else (parent["call"] if parent else None),
                  "start": time.perf_counter(), "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    @contextmanager
    def adopt(self, parent: dict):
        """Make ``parent`` the current span of a worker thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        result[s["id"]] = s["end"] - s["start"] - covered
    return result


def layer_metrics(tracer, startup: float, overhead: float) -> dict:
    """Per-layer metrics of one traced iteration: self times of spans, and counts.

    A metric whose span or layer never ran in the iteration is marked idle.
    """
    own = self_times(tracer.spans)
    busy: dict[str, float] = {}
    for s in tracer.spans:
        key = "cli" if s["name"].startswith("cli.") else s["name"]
        busy[key] = busy.get(key, 0.0) + own[s["id"]]
    c = tracer.counts.get
    m: dict[str, dict] = {}

    def put(name, value, unit, source=None, derived=False):
        entry = {"value": float(value), "unit": unit}
        if derived:
            entry["derived"] = True
        if source and not any(k == source or k.startswith(source + ".") for k in busy):
            entry["idle"] = True
        m[name] = entry

    def ratio(a, b):
        return a / b if b else 0.0

    put("cli.startup_s", startup, "s")
    put("cli.self_s", busy.get("cli", 0.0), "s")
    for span in ("io.load", "io.digest", "io.render", "io.write", "core.construct",
                 "core.density", "trace_distance.canonicalize", "trace_distance.prefix_stats",
                 "trace_distance.find_k", "trace_distance.nearest", "measures.c_l1",
                 "measures.c_rel_entropy", "measures.robustness", "certificates.verify_pure",
                 "oracle.subgradient", "entanglement.schmidt", "entanglement.bound_check",
                 "entanglement.measures", "entanglement.kraus_build", "entanglement.apply_kraus",
                 "entanglement.pipeline", "random_states.sample"):
        put(span + "_s", busy.get(span, 0.0), "s", source=span)
    put("io.parse_entries_per_s", ratio(c("io.entries", 0), busy.get("io.load", 0.0)), "1/s",
        source="io.load")
    floats = c("io.render_floats", 0)
    put("io.render_floats", floats, "count", source="io.render")
    put("io.render_zero_share", ratio(c("io.render_zeros", 0), floats), "ratio", source="io.render")
    put("io.report_bytes", c("io.report_bytes", 0), "B", source="io.render")
    put("io.state_bytes", c("io.state_bytes", 0), "B", source="io.write")
    put("core.dense_bytes", c("core.dense_bytes", 0), "B", source="core.density")
    stages = sum(busy.get(f"trace_distance.{s}", 0.0) for s in ("canonicalize", "prefix_stats", "find_k"))
    put("trace_distance.assemble_s", busy.get("trace_distance.nearest", 0.0) - stages, "s",
        source="trace_distance", derived=True)
    k = c("trace_distance.k", 0)
    put("trace_distance.k", k, "count", source="trace_distance")
    put("trace_distance.support", c("trace_distance.support", 0), "count", source="trace_distance")
    put("trace_distance.sorted_per_k", ratio(c("trace_distance.n", 0), k), "ratio",
        source="trace_distance")
    put("certificates.eig_dim", c("certificates.eig_dim", 0), "count", source="certificates")
    iterations = c("oracle.iterations", 0)
    put("oracle.iterations", iterations, "count", source="oracle")
    put("oracle.s_per_iter", ratio(busy.get("oracle.subgradient", 0.0), iterations), "s",
        source="oracle")
    put("oracle.converged_share", ratio(c("oracle.converged", 0), c("oracle.runs", 0)), "ratio",
        source="oracle")
    put("entanglement.kraus_ops", c("entanglement.kraus_ops", 0), "count",
        source="entanglement.kraus_build")
    put("entanglement.kraus_nnz_share",
        ratio(c("entanglement.kraus_nnz", 0), c("entanglement.kraus_entries", 0)), "ratio",
        source="entanglement.kraus_build")
    put("trace.overhead_s", overhead, "s")
    return m


@contextmanager
def observe_core(tracer: Tracer):
    projector = core.PureState.projector
    eig = certificates.hermitian_eig

    def traced_projector(state):
        with tracer.span("core.density"):
            matrix = projector(state)
        tracer.count("core.dense_bytes", matrix.nbytes)
        return matrix

    def counted_eig(matrix, *args, **kwargs):
        tracer.count("certificates.eig_dim", np.shape(matrix)[0])
        return eig(matrix, *args, **kwargs)

    core.PureState.projector = traced_projector
    certificates.hermitian_eig = counted_eig
    try:
        yield
    finally:
        core.PureState.projector = projector
        certificates.hermitian_eig = eig


def _load(tracer: Tracer, path: str):
    with tracer.span("io.load"):
        sf = io.load_state_file(path)
    tracer.count("io.entries", sf.data.size)
    with tracer.span("core.construct"):
        return sf, io.to_state(sf)


def _digest(tracer: Tracer, paths) -> None:
    with tracer.span("io.digest"):
        for path in paths:
            io.file_digest(path)


def _nearest(tracer: Tracer, state, stage_queue: list) -> None:
    """The solver on one state; k and support are kept for the largest state solved."""
    with tracer.span("trace_distance.nearest"):
        result = trace_distance.nearest_incoherent(state)
    n = state.amplitudes.size
    with tracer._lock:
        counts = tracer.counts
        if n >= counts.get("trace_distance.n", 0):
            counts["trace_distance.n"] = n
            counts["trace_distance.k"] = result.k
            counts["trace_distance.support"] = int(np.count_nonzero(state.amplitudes))
    stage_queue.append(state)


def _solver_stages(tracer: Tracer, state) -> None:
    """The solver's three stages called one by one; the rest of nearest_s is assembly."""
    with tracer.span("trace_distance.canonicalize"):
        canon = trace_distance.canonicalize(state)
    ys = canon.moduli[: int(np.count_nonzero(canon.moduli > 0.0))]
    with tracer.span("trace_distance.prefix_stats"):
        stats = trace_distance.prefix_stats(ys)
    with tracer.span("trace_distance.find_k"):
        trace_distance.find_k(ys, stats)


def _random(tracer, args, out, stages):
    if args.kind != "pure":
        raise ValueError("the replay covers `random --kind pure` only")
    rng = np.random.default_rng(args.seed)
    with tracer.span("random_states.sample"):
        states = [random_states.random_pure_state(args.n, rng) for _ in range(args.count)]
    with tracer.span("io.write"):
        text = "\n".join(io.dump_state_document(io.state_document("pure", s.amplitudes))
                         for s in states) + "\n"
        Path(out).write_text(text)
    tracer.count("io.state_bytes", len(text))


def _nearest_cmd(tracer, args, out, stages):
    _, state = _load(tracer, args.input)
    _nearest(tracer, state, stages)
    _digest(tracer, [args.input])


def _measure_one(tracer, path, args, stages):
    sf, state = _load(tracer, path)
    if sf.kind == "pure":
        density = state.density()
        which = args.measure or list(cli.MEASURE_CHOICES)
        for name in which:
            if name == "l1":
                with tracer.span("measures.c_l1"):
                    measures.c_l1(density)
            elif name == "rel-ent":
                with tracer.span("measures.c_rel_entropy"):
                    measures.c_rel_entropy(density)
            elif name == "robustness":
                with tracer.span("measures.robustness"):
                    measures.c_robustness_pure(state)
            elif name == "tr":
                _nearest(tracer, state, stages)
        return
    for name in args.measure or ["l1", "rel-ent", "tr"]:
        if name == "l1":
            with tracer.span("measures.c_l1"):
                measures.c_l1(state)
        elif name == "rel-ent":
            with tracer.span("measures.c_rel_entropy"):
                measures.c_rel_entropy(state)
        elif name == "tr":
            with tracer.span("oracle.subgradient"):
                result = oracle.c_tr_subgradient(state, max_iters=args.max_iters,
                                                 step_scale=args.step_scale)
            tracer.count("oracle.iterations", result.iterations)
            tracer.count("oracle.converged", int(result.converged))
            tracer.count("oracle.runs")


def _measures_cmd(tracer, args, out, stages):
    _digest(tracer, args.input)
    root = tracer._stack()[-1]

    def one(path):
        with tracer.adopt(root):
            _measure_one(tracer, path, args, stages)

    workers = min(cli.thread_cap(), len(args.input))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, args.input))
    else:
        for path in args.input:
            one(path)


def _verify_cmd(tracer, args, out, stages):
    with tracer.span("io.load"):
        sf = io.load_state_file(args.input)
        cf = io.load_state_file(args.candidate)
    tracer.count("io.entries", sf.data.size + cf.data.size)
    with tracer.span("core.construct"):
        candidate = core.IncoherentState(cf.data)
    _digest(tracer, [args.input, args.candidate])
    with tracer.span("core.construct"):
        state = io.to_state(sf)
    with tracer.span("certificates.verify_pure"):
        certificates.verify_pure_optimality(state, candidate, tol=args.tol)


def _entanglement_cmd(tracer, args, out, stages):
    _, state = _load(tracer, args.input)
    with tracer.span("entanglement.schmidt"):
        data = entanglement.schmidt(state)
    with tracer.span("core.construct"):
        coefficients = core.PureState(data.coefficients)
    _nearest(tracer, coefficients, stages)
    with tracer.span("entanglement.bound_check"):
        entanglement.check_negativity_bound(state)
    _digest(tracer, [args.input])
    with tracer.span("entanglement.measures"):
        entanglement.negativity_pure(state)
        entanglement.e_r_pure(state)


def _channel_cmd(tracer, args, out, stages):
    if args.sigma or args.input:
        raise ValueError("the replay covers sampled sigma and v only")
    rng = np.random.default_rng(args.seed)
    with tracer.span("random_states.sample"):
        sigma = random_states.random_real_separable(args.local_dim, args.terms, rng)
        v = random_states.random_schmidt_state(args.local_dim, rng)
    with tracer.span("entanglement.pipeline"):
        entanglement.verify_channel_pipeline(sigma, v, tol=args.tol)
    stages.append((sigma, v))


def _channel_stages(tracer: Tracer, sigma, v) -> None:
    """The pipeline's Kraus construction and its two applications, called one by one."""
    n = v.dims[0]
    with tracer.span("entanglement.kraus_build"):
        operators = entanglement.omega_kraus_operators(sigma.matrix, n)
    tracer.count("entanglement.kraus_ops", len(operators))
    tracer.count("entanglement.kraus_nnz", sum(int(np.count_nonzero(op)) for op in operators))
    tracer.count("entanglement.kraus_entries", sum(op.size for op in operators))
    with tracer.span("entanglement.apply_kraus"):
        entanglement.apply_kraus(operators, entanglement.diagonal_twirl(sigma.matrix, n))
        entanglement.apply_kraus(operators, entanglement.diagonal_twirl(v.projector(), n))


REPLAYS = {
    "random": _random,
    "nearest": _nearest_cmd,
    "measures": _measures_cmd,
    "verify": _verify_cmd,
    "entanglement": _entanglement_cmd,
    "channel-verify": _channel_cmd,
}


def replay(tracer: Tracer, call_id: str, argv: list[str], out: Path, report) -> float:
    """Replay one CLI call in spans; return its wall time, stage replays included.

    ``report`` is the report ``cli.main`` wrote for the same call; rendering it
    again is the replay's render step, so a change to the report shows up here.
    """
    started = time.perf_counter()
    stages: list = []
    with observe_core(tracer):
        with tracer.span(f"cli.{argv[0]}", call=call_id):
            args = cli.build_parser().parse_args(argv)
            REPLAYS[argv[0]](tracer, args, out, stages)
            if report is not None:
                with tracer.span("io.render"):
                    text = io.render_json(report, indent=2) + "\n"
                tracer.count("io.report_bytes", len(text))
                floats = [v for v in _leaves(report) if isinstance(v, float) or v == 0]
                tracer.count("io.render_floats", len(floats))
                tracer.count("io.render_zeros", sum(1 for v in floats if v == 0))
                Path(out).write_text(text)
        with tracer.span("replay.stages", call=call_id):
            for item in stages:
                if isinstance(item, tuple):
                    _channel_stages(tracer, *item)
                else:
                    _solver_stages(tracer, item)
    return time.perf_counter() - started


def _leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj
