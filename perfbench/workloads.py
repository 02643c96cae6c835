"""The three workloads: their seeded inputs and the CLI calls of one iteration.

Each workload is a closed loop with one client: the benchmark starts the next
call only after the previous one has exited. Inputs are written by the
benchmark itself from ``--seed``; the program only ever sees the files.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Call:
    """One CLI call: ``python -m coherence_kit.cli <argv> --output <output>``."""

    command: str
    argv: list[str]
    output: Path
    docs: int  # state documents the call reads or writes
    check: Callable[[int, object], list[str]]  # (exit code, parsed output) -> problems


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and its position."""
    return int(np.random.SeedSequence([seed % 2**64, *path]).generate_state(1)[0])


def write_doc(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n")


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.tag = zlib.crc32(self.name.encode())

    def rng(self, *path: int) -> np.random.Generator:
        return np.random.default_rng(derive(self.seed, self.tag, *path))

    def setup(self) -> list[Call]:
        """Write the seeded inputs; return the untimed warm-up call."""
        amplitudes = ref.gaussian_pure(1000, self.rng(999))
        write_doc(self.dir / "warm.json", ref.state_doc("pure", amplitudes))
        self.write_inputs()
        expected = ref.closed_form(amplitudes)
        return [Call("nearest", ["nearest", "--input", str(self.dir / "warm.json")],
                     self.dir / "warm-report.json", 1,
                     lambda code, out: ref.check_nearest(code, out, expected))]

    def write_inputs(self) -> None:
        pass

    def iteration(self, i: int) -> list[Call]:
        raise NotImplementedError


class PureLarge(Workload):
    # The paper's headline size is n = 10^6, but one call there takes 7 to 13 s.
    # At 10^5 a run holds several iterations, so its median is steady; io and
    # trace_distance still do nearly all of the work.
    name = "pure-100k"
    n = 100_000

    def iteration(self, i: int) -> list[Call]:
        seed = derive(self.seed, self.tag, i)
        state = self.dir / f"pm-{i}.json"
        expected: dict = {}

        def check_random(code, doc):
            amplitudes = ref.regenerate_random_pure(seed, self.n)
            expected.update(ref.closed_form(amplitudes))
            return ref.check_state_file(code, doc, amplitudes)

        return [
            Call("random", ["random", "--kind", "pure", "--n", str(self.n), "--seed", str(seed)],
                 state, 1, check_random),
            Call("nearest", ["nearest", "--input", str(state)], self.dir / f"pm-{i}-report.json",
                 1, lambda code, out: ref.check_nearest(code, out, expected)),
        ]


class PureDense(Workload):
    name = "pure-dense"
    n = 1000
    states = 4

    def write_inputs(self) -> None:
        self.expected = []
        for j in range(self.states):
            amplitudes = ref.gaussian_pure(self.n, self.rng(j))
            expected = ref.pure_measures(amplitudes)
            self.expected.append(expected)
            write_doc(self.dir / f"pd-{j}.json", ref.state_doc("pure", amplitudes))
            weights = expected["tr"]["weights"]
            write_doc(self.dir / f"pd-{j}-nearest.json", ref.state_doc("incoherent", weights))
            # Move a quarter of the largest weight onto the strongest amplitude
            # outside the support: a valid state the certificate must refute.
            shifted = weights.copy()
            top = int(np.argmax(shifted))
            outside = int(np.argsort(-np.abs(amplitudes), kind="stable")[expected["tr"]["k"]])
            shifted[outside] += shifted[top] / 4.0
            shifted[top] -= shifted[top] / 4.0
            write_doc(self.dir / f"pd-{j}-shifted.json", ref.state_doc("incoherent", shifted))

    def iteration(self, i: int) -> list[Call]:
        j = i % self.states
        state = str(self.dir / f"pd-{j}.json")
        optimal = i % 2 == 0
        candidate = self.dir / f"pd-{j}-{'nearest' if optimal else 'shifted'}.json"
        expected = self.expected[j]
        return [
            Call("measures", ["measures", "--input", state], self.dir / f"pd-{i}-measures.json",
                 1, lambda code, out: ref.check_pure_measures(code, out, expected)),
            Call("verify", ["verify", "--input", state, "--candidate", str(candidate)],
                 self.dir / f"pd-{i}-verify.json", 2,
                 lambda code, out: ref.check_verify(code, out, optimal)),
        ]


class MixedEntangle(Workload):
    name = "mixed-entangle"
    mixed_dims = (8,) * 6 + (16,) * 6
    # Past this budget nearly every state stops at the cap, so the oracle does
    # about the same work on every seed.
    max_iters = 500
    bipartite = (400, 400)
    local_dim = 16

    def write_inputs(self) -> None:
        self.mixed = []
        for j, n in enumerate(self.mixed_dims):
            rho = ref.gaussian_mixed(n, self.rng(j))
            self.mixed.append(ref.mixed_measures(rho))
            write_doc(self.dir / f"mx-{j}.json", ref.state_doc("mixed", rho))
        amplitudes = ref.gaussian_bipartite(*self.bipartite, self.rng(100))
        self.schmidt = ref.schmidt_reference(amplitudes)
        write_doc(self.dir / "bp.json", ref.state_doc("bipartite-pure", amplitudes))

    def iteration(self, i: int) -> list[Call]:
        inputs = [a for j in range(len(self.mixed_dims)) for a in ("--input", str(self.dir / f"mx-{j}.json"))]
        return [
            Call("measures", ["measures", *inputs, "--max-iters", str(self.max_iters)],
                 self.dir / f"me-{i}-measures.json", len(self.mixed_dims),
                 lambda code, out: ref.check_mixed_measures(code, out, self.mixed, self.max_iters)),
            Call("entanglement", ["entanglement", "--input", str(self.dir / "bp.json")],
                 self.dir / f"me-{i}-entanglement.json", 1,
                 lambda code, out: ref.check_entanglement(code, out, self.schmidt)),
            Call("channel-verify", ["channel-verify", "--local-dim", str(self.local_dim),
                                    "--seed", str(derive(self.seed, self.tag, i))],
                 self.dir / f"me-{i}-channel.json", 0,
                 lambda code, out: ref.check_channel(code, out, self.local_dim)),
        ]


WORKLOADS = {w.name: w for w in (PureLarge, PureDense, MixedEntangle)}
