import hashlib
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from coherence_kit import cli, oracle, random_states, trace_distance
from coherence_kit import io as state_io
from coherence_kit.core import PureState, ValidationError
from coherence_kit.io import (
    load_state_file,
    parse_state_document,
    render_json,
    state_document,
    to_state,
    write_state_file,
)
from coherence_kit.random_states import (
    random_bipartite_pure,
    random_mixed_state,
    random_pure_state,
    random_real_separable,
)
from coherence_kit.trace_distance import nearest_incoherent


def write_pure(path, amplitudes):
    write_state_file(path, "pure", np.asarray(amplitudes, dtype=complex))
    return str(path)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args + ["--format", "json"], capsys)
    return code, json.loads(out) if out else None


class TestStateFiles:
    def test_round_trip_pure(self, tmp_path):
        rng = np.random.default_rng(101)
        x = random_pure_state(7, rng)
        path = tmp_path / "x.json"
        write_state_file(path, "pure", x.amplitudes)
        loaded = load_state_file(path)
        assert np.array_equal(loaded.data, x.amplitudes)
        assert np.abs(to_state(loaded).amplitudes - x.amplitudes).max() <= 1e-15

    def test_round_trip_mixed(self, tmp_path):
        rng = np.random.default_rng(102)
        rho = random_mixed_state(4, rng)
        path = tmp_path / "rho.json"
        write_state_file(path, "mixed", rho.matrix)
        loaded = to_state(load_state_file(path))
        assert np.array_equal(loaded.matrix, rho.matrix)

    def test_round_trip_bipartite(self, tmp_path):
        rng = np.random.default_rng(103)
        v = random_bipartite_pure(3, 4, rng)
        path = tmp_path / "v.json"
        write_state_file(path, "bipartite-pure", v.amplitudes)
        loaded = load_state_file(path)
        assert np.array_equal(loaded.data, v.amplitudes)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "pure", "dims": [2], "data": [[1, 0],]}')
        with pytest.raises(Exception, match="line 1"):
            load_state_file(path)

    def test_field_errors_are_named(self):
        with pytest.raises(Exception, match="kind"):
            parse_state_document({"dims": [2], "data": [[1, 0]]})
        with pytest.raises(Exception, match="dims"):
            parse_state_document({"kind": "pure", "dims": "2", "data": [[1, 0]]})
        with pytest.raises(Exception, match=r"data\[1\]"):
            parse_state_document(
                {"kind": "pure", "dims": [2], "data": [[1, 0], "oops"]}
            )


class TestMeasures:
    def test_qutrit_reference_state(self, tmp_path, capsys):
        path = write_pure(tmp_path / "ex1.json", [2 / 3, 2 / 3, 1 / 3])
        code, report = run_json(["measures", "--input", path], capsys)
        assert code == 0
        values = report["states"][0]["values"]
        assert values["l1"] == pytest.approx(16 / 9, abs=1e-12)
        assert values["tr"]["value"] == pytest.approx((3 + np.sqrt(17)) / 6, abs=1e-12)
        assert values["tr"]["k"] == 2
        assert values["tr"]["approximate"] is False
        assert values["tr"]["nearest"] == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)

    def test_basis_state_all_zero(self, tmp_path, capsys):
        path = write_pure(tmp_path / "e1.json", [1.0, 0.0, 0.0, 0.0])
        code, report = run_json(["measures", "--input", path], capsys)
        assert code == 0
        values = report["states"][0]["values"]
        assert values["l1"] == 0.0
        assert values["rel-ent"] == 0.0
        assert values["robustness"] == 0.0
        assert values["tr"]["value"] == 0.0

    def test_maximally_coherent_n8(self, tmp_path, capsys):
        path = write_pure(tmp_path / "max8.json", np.full(8, 1 / np.sqrt(8)))
        code, report = run_json(["measures", "--input", path], capsys)
        assert code == 0
        values = report["states"][0]["values"]
        assert values["l1"] == pytest.approx(7.0, abs=1e-12)
        assert values["rel-ent"] == pytest.approx(3.0, abs=1e-12)
        assert values["tr"]["value"] == pytest.approx(7 / 4, abs=1e-12)

    def test_mixed_default_measures_skip_robustness(self, tmp_path, capsys):
        rng = np.random.default_rng(106)
        rho = random_mixed_state(3, rng)
        path = tmp_path / "rho.json"
        write_state_file(path, "mixed", rho.matrix)
        code, report = run_json(["measures", "--input", str(path)], capsys)
        assert code == 0
        values = report["states"][0]["values"]
        assert set(values) == {"l1", "rel-ent", "tr"}

    def test_mixed_tr_is_flagged_approximate(self, tmp_path, capsys):
        rng = np.random.default_rng(104)
        rho = random_mixed_state(3, rng)
        path = tmp_path / "rho.json"
        write_state_file(path, "mixed", rho.matrix)
        code, report = run_json(
            ["measures", "--input", str(path), "--measure", "tr"], capsys
        )
        assert code == 0
        assert report["states"][0]["values"]["tr"]["approximate"] is True

    def test_robustness_on_mixed_is_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(105)
        rho = random_mixed_state(3, rng)
        path = tmp_path / "rho.json"
        write_state_file(path, "mixed", rho.matrix)
        code = cli.main(
            ["measures", "--input", str(path), "--measure", "robustness"]
        )
        assert code == 1

    def test_bipartite_input_is_rejected_with_pointer(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        write_state_file(path, "bipartite-pure", np.eye(2) / np.sqrt(2))
        code = cli.main(["measures", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "entanglement" in err

    def test_thread_cap_respects_env(self, monkeypatch):
        monkeypatch.setenv("COHERENCE_KIT_THREADS", "2")
        assert cli.thread_cap() == 2
        monkeypatch.setenv("COHERENCE_KIT_THREADS", "garbage")
        assert cli.thread_cap() >= 1

    def test_deterministic_modulo_timings(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        _, first = run_json(["measures", "--input", path], capsys)
        _, second = run_json(["measures", "--input", path], capsys)
        first.pop("timings")
        second.pop("timings")
        assert first == second

    def test_batch_inputs_keep_order(self, tmp_path, capsys):
        paths = []
        for i, amp in enumerate(([1.0, 0.0], [0.8, 0.6], [0.6, 0.8])):
            paths.append(write_pure(tmp_path / f"s{i}.json", amp))
        args = ["measures"]
        for p in paths:
            args += ["--input", p]
        code, report = run_json(args, capsys)
        assert code == 0
        assert [s["values"]["tr"]["value"] for s in report["states"]] == pytest.approx(
            [0.0, 0.96, 0.96], abs=1e-12
        )


class TestBatchedMeasures:
    """``measures`` runs the oracle once for all mixed inputs; each entry is
    what a call on that file alone reports."""

    @pytest.fixture
    def interleaved(self, tmp_path):
        rng = np.random.default_rng(107)
        paths = []
        for i, (kind, n) in enumerate(
            [("mixed", 4), ("pure", 3), ("mixed", 3), ("mixed", 4), ("pure", 4), ("mixed", 3)]
        ):
            path = tmp_path / f"s{i}.json"
            if kind == "pure":
                write_state_file(path, kind, random_pure_state(n, rng).amplitudes)
            else:
                write_state_file(path, kind, random_mixed_state(n, rng).matrix)
            paths.append(str(path))
        return paths

    def test_entries_match_one_call_per_file(self, interleaved, capsys):
        options = ["--max-iters", "300"]
        args = ["measures"]
        for path in interleaved:
            args += ["--input", path]
        code, report = run_json(args + options, capsys)
        assert code == 0
        singles = []
        for path in interleaved:
            single_code, single = run_json(["measures", "--input", path] + options, capsys)
            assert single_code == 0
            singles.append(single["states"][0])
        assert report["states"] == singles
        assert [entry["path"] for entry in report["inputs"]] == interleaved

    def test_one_oracle_call_for_all_mixed_inputs(self, interleaved, capsys, monkeypatch):
        calls = []
        many = oracle.c_tr_subgradient_many

        def counted(states, **options):
            calls.append([state.dim for state in states])
            return many(states, **options)

        monkeypatch.setattr(oracle, "c_tr_subgradient_many", counted)
        args = ["measures", "--max-iters", "20"]
        for path in interleaved:
            args += ["--input", path]
        assert run_json(args, capsys)[0] == 0
        assert calls == [[4, 3, 4, 3]]

    def test_one_eigendecomposition_per_mixed_input(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "rho.json"
        write_state_file(path, "mixed", random_mixed_state(8, np.random.default_rng(108)).matrix)
        m = load_state_file(path).data

        def bits(p):
            p = p[p > 0.0]
            return float(-(p @ np.log2(p)))

        # The values of the code that decomposed the matrix once to validate it
        # and once more for S(rho).
        moduli = np.abs(m)
        np.fill_diagonal(moduli, 0.0)
        diag = np.clip(np.real(np.diag(m)), 0.0, 1.0)
        rel_ent = max(0.0, bits(diag) - bits(np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        argv = ["measures", "--input", str(path), "--measure", "l1", "--measure", "rel-ent"]
        code, report = run_json(argv, capsys)
        assert code == 0
        assert calls == [(8, 8)]
        assert report["states"][0]["values"] == {"l1": float(moduli.sum()), "rel-ent": rel_ent}

    @pytest.mark.parametrize("third", ["bipartite", "missing", "robustness"])
    def test_invalid_third_input_keeps_message_and_exit_code(
        self, interleaved, third, tmp_path, capsys
    ):
        first, second, options = interleaved[0], interleaved[1], []
        if third == "bipartite":
            path = tmp_path / "v.json"
            write_state_file(path, "bipartite-pure", np.eye(2) / np.sqrt(2))
            message = (
                f"{path}: measures takes kind 'pure' or 'mixed', got 'bipartite-pure'; "
                "use the 'entanglement' command for bipartite input"
            )
        elif third == "missing":
            path = tmp_path / "nope.json"
            message = f"{path}: No such file or directory"
        else:
            # Robustness is asked of all three inputs; only the third is mixed.
            first, second, path = interleaved[1], interleaved[4], interleaved[2]
            options = ["--measure", "l1", "--measure", "robustness"]
            message = (
                f"{path}: measure 'robustness' is only available for kind 'pure', "
                "not for mixed states"
            )
        args = ["measures", "--input", first, "--input", second, "--input", str(path)]
        code = cli.main(args + options)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestNearestAndVerify:
    def test_nearest(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        code, report = run_json(["nearest", "--input", path], capsys)
        assert code == 0
        assert report["c_tr"] == pytest.approx(0.96, abs=1e-12)
        assert report["nearest"] == pytest.approx([0.64, 0.36], abs=1e-12)

    def test_verify_optimal_exit_zero(self, tmp_path, capsys):
        state = write_pure(tmp_path / "x.json", [2 / 3, 2 / 3, 1 / 3])
        cand = tmp_path / "d.json"
        write_state_file(cand, "incoherent", np.array([0.5, 0.5, 0.0]))
        code, report = run_json(
            ["verify", "--input", state, "--candidate", str(cand)], capsys
        )
        assert code == 0
        assert report["certificate"]["optimal"] is True

    def test_verify_suboptimal_exit_two(self, tmp_path, capsys):
        state = write_pure(tmp_path / "x.json", [2 / 3, 2 / 3, 1 / 3])
        cand = tmp_path / "d.json"
        write_state_file(cand, "incoherent", np.array([1.0, 0.0, 0.0]))
        code = cli.main(["verify", "--input", state, "--candidate", str(cand)])
        assert code == 2

    def test_verify_incoherent_input_exit_one(self, tmp_path, capsys):
        state = write_pure(tmp_path / "x.json", [1.0, 0.0])
        cand = tmp_path / "d.json"
        write_state_file(cand, "incoherent", np.array([1.0, 0.0]))
        code = cli.main(["verify", "--input", state, "--candidate", str(cand)])
        assert code == 1

    def test_malformed_input_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code = cli.main(["nearest", "--input", str(path)])
        assert code == 1

    def test_missing_input_exit_one(self, tmp_path):
        code = cli.main(["nearest", "--input", str(tmp_path / "nope.json")])
        assert code == 1

    def test_amplitudes_whose_squares_overflow(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [1e200, 1e200])
        code, report = run_json(["nearest", "--input", path], capsys)
        assert code == 0
        assert report["c_tr"] == pytest.approx(1.0, abs=1e-15)
        assert report["nearest"] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_amplitudes_whose_squares_underflow(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [1e-160, 1e-160])
        code, report = run_json(["measures", "--input", path, "--measure", "l1"], capsys)
        assert code == 0
        assert report["states"][0]["values"]["l1"] == pytest.approx(1.0, abs=1e-15)

    def test_inconclusive_certificate_exit_three(self, tmp_path):
        eps = 1e-11
        amps = np.array([np.sqrt(1 - eps * eps), eps], dtype=complex)
        state = write_pure(tmp_path / "x.json", amps)
        cand = tmp_path / "d.json"
        write_state_file(cand, "incoherent", np.abs(amps) ** 2)
        code = cli.main(["verify", "--input", state, "--candidate", str(cand)])
        assert code == 3


class TestEntanglementCommand:
    def test_bell(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        write_state_file(path, "bipartite-pure", np.eye(2) / np.sqrt(2))
        code, report = run_json(["entanglement", "--input", str(path)], capsys)
        assert code == 0
        assert report["e_tr"] == pytest.approx(1.0, abs=1e-12)
        assert report["negativity"] == pytest.approx(0.5, abs=1e-12)
        assert report["e_r"] == pytest.approx(1.0, abs=1e-12)

    def test_product_state_zeros(self, tmp_path, capsys):
        path = tmp_path / "prod.json"
        write_state_file(path, "bipartite-pure", np.outer([1.0, 0.0], [0.6, 0.8]))
        code, report = run_json(["entanglement", "--input", str(path)], capsys)
        assert code == 0
        assert report["e_tr"] <= 1e-12
        assert report["negativity"] <= 1e-12

    def test_correlated_example(self, tmp_path, capsys):
        path = tmp_path / "corr.json"
        write_state_file(path, "bipartite-pure", np.diag([2 / 3, 2 / 3, 1 / 3]))
        code, report = run_json(["entanglement", "--input", str(path)], capsys)
        assert code == 0
        assert report["e_tr"] == pytest.approx((3 + np.sqrt(17)) / 6, abs=1e-12)

    def test_one_svd_per_call(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(106)
        path = tmp_path / "v.json"
        write_state_file(path, "bipartite-pure", random_bipartite_pure(5, 4, rng).amplitudes)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        code, report = run_json(["entanglement", "--input", str(path)], capsys)
        assert code == 0
        assert calls == [(5, 4)]
        assert report["negativity"] == pytest.approx(report["bound_check"]["two_n"] / 2, rel=1e-15)


class TestRandomCommand:
    def test_byte_identical_given_seed(self, capsys):
        args = ["random", "--kind", "pure", "--n", "4", "--count", "3", "--seed", "9"]
        code1, out1 = run_cli(list(args), capsys)
        code2, out2 = run_cli(list(args), capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_single_amplitude_state(self, capsys):
        code, out = run_cli(["random", "--kind", "pure", "--n", "1", "--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        z = complex(doc["data"][0][0], doc["data"][0][1])
        assert abs(z) == pytest.approx(1.0, abs=1e-12)

    def test_generated_states_parse_and_validate(self, tmp_path, capsys):
        out_path = tmp_path / "states.jsonl"
        code = cli.main(
            [
                "random", "--kind", "mixed", "--n", "3", "--count", "2",
                "--seed", "11", "--output", str(out_path),
            ]
        )
        assert code == 0
        for line in out_path.read_text().splitlines():
            state = to_state(parse_state_document(json.loads(line)))
            assert state.dim == 3

    def test_peak_memory_does_not_grow_with_count(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))

        def peak_rss(count):
            target = tmp_path / f"states-{count}.jsonl"
            argv = ["random", "--kind", "mixed", "--n", "500", "--count", str(count)]
            child = subprocess.Popen(
                [sys.executable, "-m", "coherence_kit.cli", *argv, "--output", str(target)], env=env
            )
            _, status, usage = os.wait4(child.pid, 0)
            assert status == 0
            assert len(target.read_text().splitlines()) == count
            return usage.ru_maxrss

        assert peak_rss(3) <= 1.10 * peak_rss(1)

    def test_qubit_mean_coherence_band(self, capsys):
        # Monte Carlo sanity band for 2 |x1 x2| over uniform qubit states.
        rng = np.random.default_rng(12)
        values = [nearest_incoherent(random_pure_state(2, rng)).c_tr for _ in range(1000)]
        mean = float(np.mean(values))
        assert 0.0 < mean < 1.0


class TestBenchAndOracle:
    def test_bench_smoke(self, capsys):
        code, report = run_json(
            ["bench", "--sizes", "256,1024", "--repetitions", "2", "--seed", "0"],
            capsys,
        )
        assert code == 0
        assert len(report["results"]) == 2
        assert "loglog_slope" in report

    def test_bench_thousand_under_five_ms(self, capsys):
        code, report = run_json(
            ["bench", "--sizes", "1000", "--repetitions", "5", "--seed", "0"], capsys
        )
        assert code == 0
        assert report["results"][0]["timings"]["best_s"] < 5e-3

    def test_bench_values_deterministic(self, capsys):
        args = ["bench", "--sizes", "128,512", "--repetitions", "2", "--seed", "3"]
        _, first = run_json(list(args), capsys)
        _, second = run_json(list(args), capsys)
        values1 = [row["c_tr"] for row in first["results"]]
        values2 = [row["c_tr"] for row in second["results"]]
        assert values1 == values2

    def test_oracle_subgradient(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        code, report = run_json(
            ["oracle", "--input", path, "--method", "subgradient", "--max-iters", "2000"],
            capsys,
        )
        assert code == 0
        assert report["value"] == pytest.approx(0.96, abs=1e-3)
        assert report["approximate"] is True

    def test_zero_iterations_report_the_starting_point(self, tmp_path, capsys):
        rho = random_mixed_state(3, np.random.default_rng(131))
        path = tmp_path / "rho.json"
        write_state_file(path, "mixed", rho.matrix)
        code, report = run_json(["oracle", "--input", str(path), "--max-iters", "0"], capsys)
        assert code == 0
        assert report["iterations"] == 0
        assert report["argmin"] == pytest.approx(np.real(np.diag(rho.matrix)).tolist(), abs=1e-12)

    def test_grid_refuses_large_n_before_densifying(self, tmp_path, capsys, monkeypatch):
        def projector(self):
            raise AssertionError("the grid oracle built the projector")

        monkeypatch.setattr(PureState, "projector", projector)
        path = write_pure(tmp_path / "x.json", np.ones(4000))
        assert cli.main(["oracle", "--input", path, "--method", "grid"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid oracle supports n <= 4, got n = 4000\n"

    def test_grid_refuses_a_lattice_beyond_the_point_limit(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [2 / 3, 2 / 3, 1 / 3])
        argv = ["oracle", "--input", path, "--method", "grid", "--resolution", "100000"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: grid oracle lattice at n = 3, resolution 100000 has 5000150001 points, "
            "more than the limit of 10000000\n"
        )

    def test_grid_admits_the_default_resolution_at_n4(self, tmp_path, capsys, monkeypatch):
        def first_point(n, resolution):
            # The walk itself (4.6 M points) is replaced by its first point.
            return iter([(resolution, 0, 0, 0)])

        monkeypatch.setattr(oracle, "_lattice_points", first_point)
        path = write_pure(tmp_path / "x.json", [0.5, 0.5, 0.5, 0.5])
        code, report = run_json(["oracle", "--input", path, "--method", "grid"], capsys)
        assert code == 0
        assert report["argmin"] == [1.0, 0.0, 0.0, 0.0]

    def test_oracle_grid(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [2 / 3, 2 / 3, 1 / 3])
        code, report = run_json(
            ["oracle", "--input", path, "--method", "grid", "--resolution", "300"],
            capsys,
        )
        assert code == 0
        assert report["value"] == pytest.approx((3 + np.sqrt(17)) / 6, abs=7e-3)


class TestChannelVerifyCommand:
    def test_random_pipeline(self, capsys):
        code, report = run_json(
            ["channel-verify", "--local-dim", "3", "--seed", "4"], capsys
        )
        assert code == 0
        assert report["incoherent_ok"] is True
        assert report["fixed_point_ok"] is True

    def test_explicit_sigma(self, tmp_path, capsys):
        from coherence_kit.random_states import random_real_separable

        rng = np.random.default_rng(13)
        sigma = random_real_separable(2, 4, rng)
        path = tmp_path / "sigma.json"
        write_state_file(path, "mixed", sigma.matrix)
        code, report = run_json(
            ["channel-verify", "--sigma", str(path), "--local-dim", "2", "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert report["incoherent_ok"] is True


class TestTableFormat:
    def test_table_output(self, tmp_path, capsys):
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        code, out = run_cli(["nearest", "--input", path, "--format", "table"], capsys)
        assert code == 0
        lines = dict(line.split(" = ") for line in out.splitlines())
        # 17 significant digits in table mode
        assert len(lines["c_tr"].replace(".", "").lstrip("0")) >= 16
        assert float(lines["c_tr"]) == pytest.approx(0.96, abs=1e-12)


class TestLargePureState:
    """Pure-state `measures` and `verify` at n = 10^5 form no n x n matrix."""

    def test_measures_and_verify_without_dense_matrix(self, tmp_path, capsys, monkeypatch):
        from coherence_kit.core import PureState
        from coherence_kit.trace_distance import nearest_incoherent

        x = random_pure_state(100_000, np.random.default_rng(121))
        path = write_pure(tmp_path / "x.json", x.amplitudes)
        optimum = nearest_incoherent(to_state(load_state_file(path))).nearest.diag
        shifted = optimum.copy()
        order = np.argsort(shifted)
        shifted[order[-1]] -= 1e-3
        shifted[order[-2]] += 1e-3
        cand = tmp_path / "d.json"
        write_state_file(cand, "incoherent", optimum)
        worse = tmp_path / "worse.json"
        write_state_file(worse, "incoherent", shifted)

        def forbidden(self):
            raise AssertionError("an n x n matrix was formed")

        monkeypatch.setattr(PureState, "projector", forbidden)
        monkeypatch.setattr(PureState, "density", forbidden)

        code, report = run_json(["measures", "--input", path], capsys)
        assert code == 0
        values = report["states"][0]["values"]
        assert set(values) == {"l1", "rel-ent", "robustness", "tr"}
        m = np.abs(x.amplitudes)
        w = m * m
        assert values["l1"] == pytest.approx(float(np.sum(m)) ** 2 - 1.0, rel=1e-12)
        assert values["robustness"] == values["l1"]
        assert values["rel-ent"] == pytest.approx(float(-(w @ np.log2(w))), abs=1e-9)
        assert values["tr"]["k"] >= 1

        code, report = run_json(["verify", "--input", path, "--candidate", str(cand)], capsys)
        assert code == 0
        assert report["certificate"]["optimal"] is True
        code, report = run_json(["verify", "--input", path, "--candidate", str(worse)], capsys)
        assert code == 2
        assert report["certificate"]["optimal"] is False


class TestResourceErrors:
    """Dense sizes set by a flag are checked against physical memory before
    anything is sampled; MemoryError may never come on an overcommitting host."""

    @pytest.fixture
    def small_host(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a sampler ran before the size guard")

        monkeypatch.setattr(cli, "_physical_memory", lambda: 10**9)
        for name in (
            "random_real_separable",
            "random_schmidt_state",
            "random_mixed_state",
            "random_bipartite_pure",
            "random_pure_state",
        ):
            monkeypatch.setattr(random_states, name, forbidden)

    @pytest.mark.parametrize(
        "argv, flags, gigabytes",
        [
            (["channel-verify", "--local-dim", "64"], "--local-dim 64", "1.07"),
            (["random", "--kind", "mixed", "--n", "2000"], "--n 2000", "1.02"),
            (
                ["random", "--kind", "bipartite-pure", "--n", "2000", "--m", "3000", "--count", "2"],
                "--m 3000 --n 2000",
                "1.54",
            ),
            (["random", "--kind", "pure", "--n", "10000000"], "--n 10000000", "2.56"),
        ],
    )
    def test_too_large_for_memory_exits_one_before_sampling(
        self, argv, flags, gigabytes, small_host, tmp_path, capsys
    ):
        target = tmp_path / "out.json"
        assert cli.main(argv + ["--output", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {argv[0]}: {flags} needs about {gigabytes} GB of memory, "
            "more than the 1.00 GB of physical memory here\n"
        )
        assert not target.exists()

    def test_sizes_that_fit_still_run(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_physical_memory", lambda: 10**9)
        code, report = run_json(["channel-verify", "--local-dim", "8"], capsys)
        assert code == 0 and report["incoherent_ok"] and report["fixed_point_ok"]
        assert cli.main(["random", "--kind", "mixed", "--n", "100"]) == 0

    def test_memory_error_is_exit_one_with_message(self, tmp_path, capsys, monkeypatch):
        def exhausted(state):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(trace_distance, "nearest_incoherent", exhausted)
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        code = cli.main(["nearest", "--input", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: nearest: out of memory")
        assert "74.5 GiB" in lines[0]


def special_values() -> np.ndarray:
    """Signed zeros, subnormals, the extremes, values that need all 17
    digits, and finite doubles drawn from random bit patterns."""
    fixed = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 0.1, 1 / 3, 0.30000000000000004, 1.0000000000000002,
        9007199254740993.0, 123456789.01234567,
    ]
    drawn = np.random.default_rng(131).integers(0, 2**64, size=96, dtype=np.uint64).view(float)
    return np.concatenate([fixed, drawn[np.isfinite(drawn)]])


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


def element_body(kind: str, data: np.ndarray) -> list:
    """A document body of numpy scalars, which ``render_json`` formats one by one."""
    if kind == "incoherent":
        return [np.float64(v) for v in data]
    if data.ndim == 1:
        return [[np.float64(z.real), np.float64(z.imag)] for z in data]
    return [element_body(kind, row) for row in data]


def complex_values(shape) -> np.ndarray:
    v = special_values()
    size = int(np.prod(shape))
    z = np.empty(size, dtype=complex)
    z.real = np.resize(v, size)
    z.imag = np.resize(np.roll(v, 5), size)
    return z.reshape(shape)


class TestVectorizedStateFileIO:
    @pytest.mark.parametrize(
        "kind, shape",
        [("pure", (40,)), ("mixed", (7, 7)), ("bipartite-pure", (3, 11)), ("incoherent", (40,))],
    )
    def test_write_then_read_is_bit_exact(self, tmp_path, kind, shape):
        data = np.resize(special_values(), shape) if kind == "incoherent" else complex_values(shape)
        path = tmp_path / "s.json"
        write_state_file(path, kind, data)
        dims = list(shape) if kind == "bipartite-pure" else [shape[0]]
        element = render_json({"kind": kind, "dims": dims, "data": element_body(kind, data)})
        assert path.read_text() == element + "\n"
        loaded = load_state_file(path)
        assert loaded.kind == kind and loaded.dims == tuple(dims)
        assert np.array_equal(bits(loaded.data), bits(data))

    @pytest.mark.parametrize("indent", [0, 2])
    def test_fast_render_matches_element_render(self, indent):
        v = special_values()
        per_element = [np.float64(x) for x in v]
        expected = render_json(per_element, indent)
        assert render_json(v.tolist(), indent) == expected
        assert render_json(v, indent) == expected
        if not indent:
            assert expected == "[" + ", ".join(format(float(x), ".17g") for x in v) + "]"
        cube = v[:24].reshape(2, 3, 4)
        nested = [[[np.float64(x) for x in row] for row in plane] for plane in cube]
        assert render_json(cube, indent) == render_json(nested, indent)
        report = {"a": v.tolist(), "b": {"c": cube, "n": 3}, "d": [], "e": [1.5, 2]}
        element = {"a": per_element, "b": {"c": nested, "n": 3}, "d": [], "e": [1.5, 2]}
        assert render_json(report, indent) == render_json(element, indent)
        assert render_json(np.zeros((2, 0)), indent) == render_json([[], []], indent)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_report_values_raise(self, tmp_path, bad):
        for obj in ([0.5, bad], np.array([0.5, bad]), [np.float64(bad)], {"x": [[bad, 0.5]]}, bad):
            with pytest.raises(ValidationError, match="^reports must contain only finite numbers$"):
                render_json(obj, 2)
        with pytest.raises(ValidationError, match="^reports must contain only finite numbers$"):
            write_state_file(tmp_path / "s.json", "pure", np.array([bad, 1.0]))

    @pytest.mark.parametrize(
        "data",
        ["[[NaN, 0], [1, 0]]", "[[1, 0], [0, Infinity]]", "[-Infinity, 1]", "[[NaN, 0], 1]"],
    )
    def test_non_finite_literals_in_input_files(self, tmp_path, capsys, data):
        path = tmp_path / "s.json"
        path.write_text('{"kind": "pure", "dims": [2], "data": %s}' % data)
        assert cli.main(["nearest", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: pure state amplitudes must contain only finite entries\n"
        )

    @pytest.mark.parametrize(
        "kind, dims, data, message",
        [
            ("pure", [1], '[["1", 0]]', "data[0]: expected a number or a [re, im] pair, got ['1', 0]"),
            ("pure", [1], "[[null, 0]]", "data[0]: expected a number or a [re, im] pair, got [None, 0]"),
            ("pure", [1], "[[1, 2, 3]]", "data[0]: expected a number or a [re, im] pair, got [1, 2, 3]"),
            ("pure", [1], "[[[1, 0], 0]]", "data[0]: expected a number or a [re, im] pair, got [[1, 0], 0]"),
            ("pure", [2], "[[1, 0], [1, 0, 0]]", "data[1]: expected a number or a [re, im] pair, got [1, 0, 0]"),
            ("mixed", [2], "[[1, 0], [0]]", "data[1] must be a list of 2 entries"),
            ("mixed", [2], "[[1, 0], 5]", "data[1] must be a list of 2 entries"),
            ("mixed", [2], "[[[1, 0], 0], [0, [1, 0, 0]]]", "data[1][1]: expected a number or a [re, im] pair, got [1, 0, 0]"),
            ("bipartite-pure", [1, 2], "[[[1, 0], [[0, 0]]]]", "data[0][1]: expected a number or a [re, im] pair, got [[0, 0]]"),
            ("incoherent", [2], '[1, "0"]', "data[1]: expected a real number, got '0'"),
            ("incoherent", [2], "[1, [0, 0]]", "data[1]: expected a real number, got [0, 0]"),
        ],
    )
    def test_parse_errors_name_the_entry(self, tmp_path, kind, dims, data, message):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "%s", "dims": %s, "data": %s}' % (kind, dims, data))
        with pytest.raises(ValidationError) as info:
            load_state_file(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "kind, entry, expected",
        [
            ("pure", [0.5] * 200_000, "a number or a [re, im] pair"),
            ("incoherent", "x" * 200_000, "a real number"),
        ],
    )
    def test_parse_errors_quote_at_most_100_characters(
        self, tmp_path, capsys, kind, entry, expected
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": kind, "dims": [1], "data": [entry]}))
        assert cli.main(["nearest", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: data[0]: expected {expected}, got {repr(entry)[:100]}...\n"
        assert len(err.encode()) < 1024

    def test_numbers_mixed_with_pairs_are_accepted(self):
        pure = parse_state_document({"kind": "pure", "dims": [4], "data": [0.6, [0, 0.8], 0, 1]})
        assert np.array_equal(bits(pure.data), bits(np.array([0.6, 0.8j, 0, 1], dtype=complex)))
        mixed = parse_state_document(
            {"kind": "mixed", "dims": [2], "data": [[0.5, [0, -0.5]], [[0, 0.5], 0.5]]}
        )
        expected = np.array([[0.5, complex(0, -0.5)], [0.5j, 0.5]])
        assert np.array_equal(bits(mixed.data), bits(expected))
        plain = parse_state_document({"kind": "bipartite-pure", "dims": [2, 2], "data": [[1, 0], [0, 1]]})
        assert np.array_equal(bits(plain.data), bits(np.eye(2, dtype=complex)))

    def test_state_document_body_is_one_float_array(self):
        z = complex_values((3, 2))
        doc = state_document("bipartite-pure", z)
        assert doc["dims"] == [3, 2]
        assert doc["data"].dtype == float and doc["data"].shape == (3, 2, 2)
        assert np.array_equal(bits(doc["data"][..., 0]), bits(z.real))
        assert np.array_equal(bits(doc["data"][..., 1]), bits(z.imag))


class TestInputDigest:
    """Each input is read once, and its report digest is of the bytes parsed."""

    @pytest.mark.parametrize(
        "command", ["nearest", "verify", "measures", "entanglement", "oracle", "channel-verify"]
    )
    def test_one_read_per_input(self, tmp_path, capsys, monkeypatch, command):
        x = write_pure(tmp_path / "x.json", [0.8, 0.6])
        y = write_pure(tmp_path / "y.json", [2 / 3, 2 / 3, 1 / 3])
        d = tmp_path / "d.json"
        write_state_file(d, "incoherent", np.array([0.64, 0.36]))
        v = tmp_path / "v.json"
        write_state_file(v, "bipartite-pure", np.diag([0.8, 0.6]))
        sigma = tmp_path / "sigma.json"
        write_state_file(sigma, "mixed", random_real_separable(2, 4, np.random.default_rng(13)).matrix)
        argv = {
            "nearest": ["nearest", "--input", x],
            "verify": ["verify", "--input", x, "--candidate", str(d)],
            "measures": ["measures", "--input", x, "--input", y],
            "entanglement": ["entanglement", "--input", str(v)],
            "oracle": ["oracle", "--input", x, "--max-iters", "50"],
            "channel-verify": [
                "channel-verify", "--sigma", str(sigma), "--input", str(v), "--local-dim", "2",
            ],
        }[command]
        inputs = [a for flag, a in zip(argv, argv[1:]) if flag in ("--input", "--candidate", "--sigma")]
        parsed = {p: pathlib.Path(p).read_bytes() for p in inputs}
        opened = Counter()
        real_open = pathlib.Path.open

        def open_then_replace(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            if str(self) in parsed:
                opened[str(self)] += 1
                # Swap the file on disk once it is open: a second read sees other bytes.
                swap = tmp_path / "swap"
                with real_open(swap, "w") as fh:
                    fh.write('{"kind": "pure", "dims": [1], "data": [1]}\n')
                os.replace(swap, self)
            return handle

        monkeypatch.setattr(pathlib.Path, "open", open_then_replace)
        code, report = run_json(argv, capsys)
        assert code in (0, 2)
        assert opened == Counter(inputs)
        assert report["inputs"] == [
            {"path": p, "digest": hashlib.sha256(parsed[p]).hexdigest()} for p in inputs
        ]

    def test_load_keeps_digest_of_parsed_bytes(self, tmp_path):
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        assert load_state_file(path).digest == state_io.file_digest(path)
        assert parse_state_document(json.loads(pathlib.Path(path).read_text())).digest is None

    def test_missing_input_among_several_is_exit_one(self, tmp_path, capsys):
        x = write_pure(tmp_path / "x.json", [0.8, 0.6])
        code = cli.main(["measures", "--input", x, "--input", str(tmp_path / "nope.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'nope.json'}: ")


class TestLargeStateFiles:
    """`random`, `nearest` and `verify` at n = 10^5 take no per-entry encode or parse."""

    def test_round_trip_without_per_entry_paths(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a per-entry path ran")

        monkeypatch.setattr(state_io, "_parse_complex", forbidden)
        monkeypatch.setattr(state_io, "_parse_real", forbidden)
        monkeypatch.setattr(state_io, "_holds_bool", forbidden)
        monkeypatch.setattr(state_io, "_encode_complex", forbidden, raising=False)
        path = tmp_path / "x.json"
        argv = ["random", "--kind", "pure", "--n", "100000", "--seed", "123", "--output", str(path)]
        assert cli.main(argv) == 0
        code, report = run_json(["nearest", "--input", str(path)], capsys)
        assert code == 0
        # The state as a file holds it: its amplitudes, validated again on load.
        x = random_pure_state(100_000, np.random.default_rng(123))
        expected = nearest_incoherent(PureState(x.amplitudes))
        assert report["k"] == expected.k
        assert report["c_tr"] == expected.c_tr
        assert np.array_equal(report["nearest"], expected.nearest.diag)
        cand = tmp_path / "d.json"
        write_state_file(cand, "incoherent", np.array(report["nearest"]))
        code, report = run_json(["verify", "--input", str(path), "--candidate", str(cand)], capsys)
        assert code == 0
        assert report["certificate"]["optimal"] is True

    def test_large_table_matches_per_element_format(self, tmp_path, capsys):
        x = random_pure_state(10_000, np.random.default_rng(141))
        path = write_pure(tmp_path / "x.json", x.amplitudes)
        code, out = run_cli(["nearest", "--input", path, "--format", "table"], capsys)
        assert code == 0
        result = nearest_incoherent(to_state(load_state_file(path)))
        lines = dict(line.split(" = ", 1) for line in out.splitlines())
        per_element = ", ".join(format(float(v), ".17g") for v in result.nearest.diag)
        assert lines["nearest"] == "[" + per_element + "]"
        assert lines["c_tr"] == format(result.c_tr, ".17g")
        assert lines["mu"] == format(result.mu, ".17g")
        assert lines["k"] == str(result.k)


BIG = "1" + "0" * 400  # an integer literal beyond the largest double


class TestNonNumbersInStateFiles:
    """JSON true/false and integers too large for a double are validation errors
    that name the entry, on the numpy path and on the per-entry path."""

    @pytest.mark.parametrize(
        "kind, dims, data, where",
        [
            ("pure", "[2]", "[true, 0]", "data[0]: "),
            ("pure", "[2]", "[[0.8, 0], [0.6, false]]", "data[1]: "),
            ("pure", "[3]", "[[0.6, 0], [0.8, 0], [0, true]]", "data[2]: "),
            ("mixed", "[2]", "[[true, 0], [0, 0]]", "data[0][0]: "),
            ("incoherent", "[2]", "[true, 0]", "data[0]: "),
            ("incoherent", "[2]", "[true, false]", "data[0]: "),
            ("incoherent", "[3]", "[0.5, 0.5, false]", "data[2]: "),
            ("pure", "[true]", "[1]", "field 'dims' must be a list of positive integers"),
            ("pure", "[2]", "[BIG, 0]", "data[0]: "),
            ("pure", "[2]", "[[0, BIG], [1, 0]]", "data[0]: "),
            ("mixed", "[2]", "[[1, 0], [0, -BIG]]", "data[1][1]: "),
            ("incoherent", "[2]", "[0, BIG]", "data[1]: "),
        ],
    )
    def test_exit_one_naming_the_entry(self, tmp_path, capsys, kind, dims, data, where):
        path = tmp_path / "s.json"
        data = data.replace("BIG", BIG)
        path.write_text('{"kind": "%s", "dims": %s, "data": %s}' % (kind, dims, data))
        x = write_pure(tmp_path / "x.json", [0.8, 0.6])
        argv = {
            "pure": ["nearest", "--input", str(path)],
            "mixed": ["measures", "--input", str(path), "--measure", "l1"],
            "incoherent": ["verify", "--input", x, "--candidate", str(path)],
        }[kind]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {where}")


class TestLoader:
    """Each command and option that reads a file checks its kind before building a state."""

    @pytest.mark.parametrize(
        "role, accepted, found",
        [
            ("measures", "'pure' or 'mixed'", "incoherent"),
            ("nearest", "'pure'", "mixed"),
            ("verify --input", "'pure' or 'mixed'", "incoherent"),
            ("verify --candidate", "'incoherent'", "pure"),
            ("entanglement", "'bipartite-pure'", "pure"),
            ("channel-verify --sigma", "'mixed'", "pure"),
            ("channel-verify --input", "'bipartite-pure'", "mixed"),
            ("oracle", "'pure' or 'mixed'", "incoherent"),
        ],
    )
    def test_wrong_kind_names_path_kinds_and_found(self, tmp_path, capsys, role, accepted, found):
        docs = {
            "pure": ("pure", np.array([0.8, 0.6], dtype=complex)),
            "mixed": ("mixed", np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)),
            "incoherent": ("incoherent", np.array([0.64, 0.36])),
        }
        wrong = tmp_path / "wrong.json"
        write_state_file(wrong, *docs[found])
        x = write_pure(tmp_path / "x.json", [0.8, 0.6])
        d = tmp_path / "d.json"
        write_state_file(d, *docs["incoherent"])
        command, _, option = role.partition(" ")
        argv = [command, option or "--input", str(wrong)]
        if role == "verify --input":
            argv += ["--candidate", str(d)]
        elif role == "verify --candidate":
            argv += ["--input", x]
        elif command == "channel-verify":
            argv += ["--local-dim", "2"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {wrong}: {role} takes kind {accepted}, got '{found}'\n"

    def test_deeply_nested_json_is_exit_one_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert cli.main(["nearest", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: JSON nested too deeply\n"

    def test_measures_rejects_bipartite_before_building_it(self, tmp_path, capsys, monkeypatch):
        from coherence_kit.entanglement import BipartitePureState

        path = tmp_path / "v.json"
        write_state_file(path, "bipartite-pure", np.eye(2) / np.sqrt(2))

        def built(self):
            raise AssertionError("a bipartite state was built")

        monkeypatch.setattr(BipartitePureState, "__post_init__", built)
        assert cli.main(["measures", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: measures takes kind 'pure' or 'mixed', got 'bipartite-pure'; "
            "use the 'entanglement' command for bipartite input\n"
        )


def run_process(argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "coherence_kit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestUsageErrors:
    """Usage errors exit 1 (2 means a negative certificate), with usage text and no traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["nearest"], "the following arguments are required: --input"),
            (["nearest", "--input", "x.json", "--bogus"], "unrecognized arguments: --bogus"),
            (["measures", "--input", "x.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["random", "--n", "-1"], "argument --n: expected a positive integer, got '-1'"),
            (
                ["random", "--kind", "bipartite-pure", "--n", "2", "--m", "-1"],
                "argument --m: expected a positive integer, got '-1'",
            ),
            (["random", "--n", "2", "--count", "0"], "argument --count: expected a positive integer"),
            (["bench", "--sizes", "abc"], "argument --sizes: expected a positive integer, got 'abc'"),
            (["bench", "--sizes", "-5"], "argument --sizes: expected a positive integer, got '-5'"),
            (["bench", "--sizes", "8,0"], "argument --sizes: expected a positive integer, got '0'"),
            (["bench", "--repetitions", "0"], "argument --repetitions: expected a positive integer"),
            (["channel-verify", "--local-dim", "0"], "argument --local-dim: expected a positive integer"),
            (["channel-verify", "--terms", "x"], "argument --terms: expected a positive integer"),
            (["verify", "--tol", "nan"], "argument --tol: expected a finite non-negative number, got 'nan'"),
            (["verify", "--tol", "-1"], "argument --tol: expected a finite non-negative number, got '-1'"),
            (["channel-verify", "--tol", "inf"], "argument --tol: expected a finite non-negative number"),
            (["oracle", "--tol=-1e-3"], "argument --tol: expected a finite non-negative number"),
            (["oracle", "--tol", "abc"], "argument --tol: expected a finite non-negative number"),
            (
                ["measures", "--step-scale", "nan"],
                "argument --step-scale: expected a finite positive number, got 'nan'",
            ),
            (["measures", "--step-scale", "inf"], "argument --step-scale: expected a finite positive number"),
            (["oracle", "--step-scale", "-1"], "argument --step-scale: expected a finite positive number"),
            (["oracle", "--step-scale", "0"], "argument --step-scale: expected a finite positive number"),
            (
                ["measures", "--max-iters", "-3"],
                "argument --max-iters: expected a non-negative integer, got '-3'",
            ),
            (["oracle", "--max-iters", "1.5"], "argument --max-iters: expected a non-negative integer"),
            (["random", "--n", "2", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
            (["channel-verify", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
            (["bench", "--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
            (
                ["oracle", "--resolution", "0"],
                "argument --resolution: expected a positive integer, got '0'",
            ),
            (["bench", "--sizes", ","], "argument --sizes: expected a positive integer, got ','"),
        ],
    )
    def test_exit_one_without_traceback(self, argv, message):
        result = run_process(argv)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("usage: coherence-kit")
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bench", "--help"]])
    def test_help_and_version_exit_zero(self, argv):
        result = run_process(argv)
        assert result.returncode == 0
        assert result.stdout and result.stderr == ""


class TestOutputErrors:
    """An --output path that cannot be opened exits 1 with a message naming it."""

    def test_random_into_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        result = run_process(["random", "--n", "2", "--output", str(target)])
        assert result.returncode == 1
        assert result.stderr == f"error: {target}: No such file or directory\n"
        assert not target.exists()

    def test_report_into_missing_directory(self, tmp_path):
        state = write_pure(tmp_path / "x.json", [0.6, 0.8])
        target = tmp_path / "missing" / "report.json"
        result = run_process(["nearest", "--input", state, "--output", str(target)])
        assert result.returncode == 1
        assert result.stderr == f"error: {target}: No such file or directory\n"
        assert "Traceback" not in result.stderr
