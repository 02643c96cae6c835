"""End-to-end benchmark of the coherence-kit CLI, with an optional traced run.

    python3 perfbench/run.py --workload pure-100k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Every CLI call is a fresh child
process (``python -m coherence_kit.cli ...`` on ``src/``), timed from its
start to its exit, with its peak memory taken from ``os.wait4``. Each output
is checked against references the benchmark computes itself (reference.py).

With ``--trace 0`` the run reports end-to-end metrics. With ``--trace 1`` it
runs each call of an iteration three ways: as a child process, through
``cli.main`` in process, and as a replay of the handler's layer calls inside
spans (tracing.py), and reports per-layer metrics.

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import os
import sys

# Thread caps go into the environment before numpy loads, so the benchmark's
# own references and every child run under the same caps. One thread keeps a
# call on one core: on a shared host, a call spread over two cores waits for
# the slower one, and run-to-run times scatter far more.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "COHERENCE_KIT_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CALL_TIMEOUT = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    revision = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = done.stdout.strip() or revision
    digest = hashlib.sha256()
    for path in sorted((SRC / "coherence_kit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
        "child_threads": {v: os.environ[v] for v in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "COHERENCE_KIT_THREADS")},
    }


class Runner:
    """Runs calls, checks their outputs and keeps one record per call."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.records: list[dict] = []
        self.selftest: dict[str, list[str]] = {}

    def child(self, call: Call, output: Path) -> dict:
        """One timed child process; returns its record after the output check."""
        argv = [sys.executable, "-m", "coherence_kit.cli", *call.argv, "--output", str(output)]
        killed = []
        holder: dict = {}

        def kill():
            killed.append(True)
            holder["proc"].kill()

        timer = threading.Timer(CALL_TIMEOUT, kill)
        with open(self.workdir / "stderr.txt", "w") as err:
            timer.start()
            try:
                started = time.perf_counter()
                proc = holder["proc"] = subprocess.Popen(
                    argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - started
            finally:
                timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        record = self.check(call, code, output, "timed out" if killed else None)
        record.update(seconds=seconds, rss_mb=usage.ru_maxrss / 1024.0)
        stderr = (self.workdir / "stderr.txt").read_text().strip()
        if record["problems"] and stderr:
            record["problems"].append(f"stderr: {stderr[-400:]}")
        return record

    def check(self, call: Call, code: int, output: Path, problem: str | None = None) -> dict:
        parsed = None
        problems = [problem] if problem else []
        if output.exists():
            try:
                parsed = json.loads(output.read_text())
            except json.JSONDecodeError as exc:
                problems.append(f"output is not JSON: {exc}")
        problems += call.check(code, parsed)
        if not problems and call.command not in self.selftest and parsed is not None:
            self.selftest[call.command] = [
                f"{call.command}: {what} was accepted"
                for what, bad_code, bad in ref.corruptions(call.command, code, parsed)
                if not call.check(bad_code, bad)
            ]
        return {"command": call.command, "code": code, "docs": call.docs, "problems": problems}

    def setup(self, workload) -> float:
        started = time.perf_counter()
        for call in workload.setup():
            record = self.child(call, call.output)
            record["phase"] = "warm-up"
            self.records.append(record)
        return time.perf_counter() - started


def percentile_summary(name: str, values: list[float], unit: str) -> dict:
    """The median, plus the highest percentile with at least ten samples beyond it."""
    out = {f"{name}.p50_s": metric(statistics.median(values), unit, len(values))}
    if len(values) >= 20:
        for p in TAIL_PERCENTILES:
            if len(values) * (1.0 - p / 100.0) >= 10:
                cut = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
                out[f"{name}.p{p:g}_s"] = metric(cut, unit, len(values), info=True)
                break
    return out


def metric(value: float, unit: str, samples: int, info: bool = False) -> dict:
    entry = {"value": float(value), "unit": unit, "samples": samples}
    if info:
        entry["gated"] = False
    return entry


def run_e2e(runner: Runner, workload, seconds: float, setups: list[float]) -> dict:
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        for call in workload.iteration(i):
            record = runner.child(call, call.output)
            record.update(phase="timed", iteration=i)
            runner.records.append(record)
        i += 1
    records = [r for r in runner.records if r["phase"] == "timed"]
    metrics = {"setup_s": metric(statistics.median(setups), "s", len(setups))}
    by_command: dict[str, list[float]] = {}
    for r in records:
        by_command.setdefault(r["command"], []).append(r["seconds"])
    for command, values in by_command.items():
        metrics.update(percentile_summary(command.replace("-", "_"), values, "s"))
    # Each command runs once per iteration. Summing the per-command medians
    # keeps one slow call from spoiling the whole iteration it fell in.
    iteration = sum(statistics.median(values) for values in by_command.values())
    docs = sum(r["docs"] for r in records if r["iteration"] == 0)
    metrics["iteration_s"] = metric(iteration, "s", i)
    metrics["states_per_s"] = metric(docs / iteration, "1/s", i)
    metrics["peak_rss_mb"] = metric(max(r["rss_mb"] for r in records), "MB", len(records))
    failed = sum(1 for r in runner.records if r["problems"])
    metrics["failed_ratio"] = metric(failed / len(runner.records), "ratio", len(runner.records))
    return metrics


def run_traced(runner: Runner, workload, seconds: float) -> tuple[dict, list]:
    sys.path.insert(0, str(SRC))
    import tracing  # noqa: E402

    cli = tracing.cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"coherence_kit was imported from {cli.__file__}, not from {SRC}")
    per_iteration: list[dict] = []
    spans: list[dict] = []
    started = time.perf_counter()
    i = 0
    while not per_iteration or time.perf_counter() - started < seconds:
        tracer = tracing.Tracer()
        startup = main_wall = replay_wall = 0.0
        for j, call in enumerate(workload.iteration(i)):
            call_id = f"{i}.{j}"
            process = runner.child(call, call.output)
            process.update(phase="timed", iteration=i, mode="process")
            runner.records.append(process)

            main_out = call.output.with_name("main-" + call.output.name)
            t0 = time.perf_counter()
            try:
                code = cli.main([*call.argv, "--output", str(main_out)])
                problem = None
            except Exception:  # a crash inside main is a failed call, not a failed run
                code, problem = -1, traceback.format_exc(limit=3)
            wall = time.perf_counter() - t0
            record = runner.check(call, code, main_out, problem)
            record.update(phase="timed", iteration=i, mode="main", seconds=wall)
            runner.records.append(record)
            startup += process["seconds"] - wall
            main_wall += wall

            report = None
            if call.command != "random" and main_out.exists():
                report = json.loads(main_out.read_text())
            replay_out = call.output.with_name("replay-" + call.output.name)
            replay_wall += tracing.replay(tracer, call_id, call.argv, replay_out, report)
        per_iteration.append(tracing.layer_metrics(tracer, startup, replay_wall - main_wall))
        spans += tracer.spans
        i += 1
    names = per_iteration[0].keys()
    metrics = {name: metric(statistics.median(m[name]["value"] for m in per_iteration),
                            per_iteration[0][name]["unit"], len(per_iteration))
               for name in names}
    for name in names:
        for flag in ("derived", "idle"):
            if per_iteration[0][name].get(flag):
                metrics[name][flag] = True
    return metrics, spans


def print_report(header: dict, metrics: dict, problems: list[str]) -> None:
    print(json.dumps(header))
    width = max(len(n) for n in metrics)
    for name, entry in metrics.items():
        notes = [k for k in ("derived",) if entry.get(k)]
        if entry.get("idle"):
            notes.append("layer idle on this workload")
        if entry.get("gated") is False:
            notes.append("information only")
        print(f"{name:<{width}}  {entry['value']:>16.6g}  {entry['unit']:<6} "
              f"samples={entry['samples']}" + (f"  ({', '.join(notes)})" if notes else ""))
    for problem in problems[:20]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coherence_kit" / "cli.py").is_file():
        print(f"error: no coherence_kit sources under {SRC}", file=sys.stderr)
        return 2
    gate = spec()["per_layer" if args.trace else "end_to_end"]
    env = environment()
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    runner = Runner(workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = WORKLOADS[args.workload](workdir, args.seed)
            setups.append(runner.setup(workload))
        spans: list = []
        if args.trace:
            metrics, spans = run_traced(runner, workload, args.seconds)
            metrics["setup_s"] = metric(statistics.median(setups), "s", len(setups))
        else:
            metrics = run_e2e(runner, workload, args.seconds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"{r['command']}: {p}" for r in runner.records for p in r["problems"]]
    problems += [p for found in runner.selftest.values() for p in found]
    if not runner.selftest:
        problems.append("self-test: no correct output to corrupt")
    failed = sum(1 for r in runner.records if r["problems"])
    correct = not problems
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "self_test": {c: not p for c, p in runner.selftest.items()}}
    results = HERE / "work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**header, "correct": correct, "metrics": metrics, "problems": problems,
         "calls": runner.records, "spans": spans}, indent=1))
    print_report(header, metrics, problems)
    missing = [m["name"] for m in gate if m["name"] not in metrics]
    if missing:
        print(f"error: metrics missing from this run: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in gate},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
