import json

import numpy as np
import pytest

from coherence_kit import cli
from coherence_kit.io import (
    load_state_file,
    parse_state_document,
    state_document,
    to_state,
    write_state_file,
)
from coherence_kit.random_states import (
    random_bipartite_pure,
    random_mixed_state,
    random_pure_state,
)


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

    def test_qubit_mean_coherence_band(self, capsys):
        # Monte Carlo sanity band for 2 |x1 x2| over uniform qubit states.
        from coherence_kit import c_tr_pure

        rng = np.random.default_rng(12)
        values = [c_tr_pure(random_pure_state(2, rng)) for _ in range(1000)]
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
    def test_memory_error_is_exit_one_with_message(self, tmp_path, capsys, monkeypatch):
        def exhausted(state):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, "nearest_incoherent", exhausted)
        path = write_pure(tmp_path / "x.json", [0.8, 0.6])
        code = cli.main(["nearest", "--input", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: nearest: out of memory")
        assert "74.5 GiB" in lines[0]
