"""End-to-end command-line runs: routing, exit codes, files, golden mode."""

import json
import math

import numpy as np
import pytest

from haartorus import (
    ShiftOperator,
    TrigPoly,
    apply_sj,
    haar_analyze,
    lp_norm_estimate,
    matrix_operator,
    operator_matrix,
    random_ek_element,
    riesz_apply,
)
from haartorus.cli import (
    EXIT_GOLDEN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    run,
)
from haartorus.serialize import (
    dumps_json,
    haar_coeffs_from_dict,
    read_modulation_sweep_csv,
    read_samples_csv,
    trig_poly_from_dict,
    write_ek_element,
    write_haar_coeffs,
    write_json,
    write_matrix_csv,
    write_samples_csv,
    write_trig_poly,
)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestExitCodes:
    def test_non_power_of_two_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "six.csv"
        write_samples_csv(path, np.arange(6.0))
        assert main(["haar", "analyze", "--input", str(path)]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_input_file_is_usage_error(self, tmp_path):
        absent = tmp_path / "absent.csv"
        assert main(["haar", "analyze", "--input", str(absent)]) == EXIT_USAGE

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json\n")
        assert main(["haar", "synthesize", "--input", str(bad)]) == EXIT_USAGE

    def test_depth_limit_mismatch_is_usage_error(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, np.arange(32.0))
        rc = main(["haar", "analyze", "--input", str(path), "--depth-limit", "2"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("freq, re, named", [
        ([1], [float("nan")], ("'terms'", "not finite")),
        ([10**20], [1.0], ("'terms'", str(10**20))),
        ([float("nan")], [1.0], ("'freq'",)),
    ], ids=["nan-coefficient", "frequency-beyond-bound", "nan-frequency"])
    def test_bad_poly_file_is_usage_error(self, tmp_path, capsys, freq, re, named):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"schema": 1, "kind": "trig_poly", "d": 1, "clusters": 1,
                                    "value_dim": 1,
                                    "terms": [{"freq": freq, "re": re, "im": [0.0]}]}))
        assert main(["torus", "riesz", "--input", str(path), "--j", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        for text in (str(path), *named):
            assert text in captured.err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_usage_error(self, tmp_path, capsys, cell):
        src, out = tmp_path / "samples.csv", tmp_path / "coeffs.json"
        src.write_text(f"1.0\n{cell}\n2.0\n3.0\n")
        assert main(["haar", "analyze", "--input", str(src), "--output", str(out)]) \
            == EXIT_USAGE
        assert not out.exists()
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_coefficient_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"schema": 1, "kind": "haar_coeffs", "depth_limit": 2,
                                    "value_dim": 1, "mean": [0.0],
                                    "entries": [{"depth": 2, "index": 1,
                                                 "value": [float("nan")]}]}))
        assert main(["haar", "synthesize", "--input", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and "(2, 1)" in captured.err

    @pytest.mark.parametrize("re, im", [
        ([float("nan")], [0.0]),
        ([1.0], [float("-inf")]),
    ], ids=["nan-re", "inf-im"])
    def test_non_finite_ek_element_is_usage_error(self, tmp_path, capsys, re, im):
        path = tmp_path / "e.json"
        write_json(path, {
            "schema": 1, "kind": "ek_element", "d": 2, "clusters": 1,
            "value_dim": 1,
            "terms": [{"k": 0, "m": 0, "sign": 1, "freq": [1, 0],
                       "re": re, "im": im}],
        })
        assert main(["code", "modulate", "--input", str(path), "--A", "16"]) \
            == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and "terms[0]" in captured.err

    def test_scale_beyond_float_range_is_usage_error(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        out = tmp_path / "sweep.csv"
        assert main(["experiment", "modulation", "--A-list", f"16,{huge}",
                     "--output", str(out)]) == EXIT_USAGE
        assert "A of 1329 bits" in capsys.readouterr().err and not out.exists()
        # the exact-integer modulation itself still runs at that scale
        src = tmp_path / "e.json"
        write_json(src, {
            "schema": 1, "kind": "ek_element", "d": 2, "clusters": 1,
            "value_dim": 1,
            "terms": [{"k": 0, "m": 0, "sign": 1, "freq": [1, 0],
                       "re": [1.0], "im": [0.0]}],
        })
        rc, obj = run_json(capsys, ["code", "modulate", "--input", str(src), "--A", huge])
        assert rc == EXIT_OK and obj["terms"][0]["stacked"] == [10**400, 0]

    def test_oversized_matrix_is_internal_error(self, capsys):
        rc = main(["shift", "matrix", "--op", "s0", "--depth", "13"])
        assert rc == EXIT_INTERNAL

    @pytest.mark.parametrize("argv", [
        ["verify", "hvs", "--d", "2", "--j", "1", "--cutoff", "1048577"],
        ["torus", "squarewave", "--kind", "sqcos", "--cutoff", "1048577"],
    ])
    def test_wave_cutoff_beyond_cap_is_internal_error(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL
        assert captured.out == ""
        assert "MAX_WAVE_CUTOFF = 1048576" in captured.err

    def test_zero_directions_are_usage_errors(self, tmp_path, capsys):
        src = tmp_path / "coeffs.json"
        write_haar_coeffs(src, haar_analyze(np.arange(16.0)))
        for argv in (["code", "decompose", "--input", str(src), "--d", "0"],
                     ["experiment", "duality", "--d", "0"]):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == "" and "need d >= 1" in captured.err

    @pytest.mark.parametrize("flags, named", [
        (["--d", "1", "--kmax", "0", "--max-mag", "1", "--terms", "3"], "only 2 are nonzero"),
        (["--d", "1", "--kmax", "0", "--max-mag", "1", "--terms", "2", "--A-list", "4"], None),
        (["--max-mag", "0"], "max_mag = 0"),
        (["--kmax", "-1"], "k_max = -1"),
        (["--d", "0"], "d = 0"),
        (["--terms", "-1"], "n_terms = -1"),
    ], ids=["more-terms-than-frequencies", "every-frequency", "zero-magnitude",
            "negative-kmax", "zero-d", "negative-terms"])
    def test_random_spectrum_bounds(self, capsys, flags, named):
        rc = main(["experiment", "modulation", *flags])
        captured = capsys.readouterr()
        if named is None:
            assert rc == EXIT_OK
            assert json.loads(captured.out)["A_values"] == [4]
        else:
            assert rc == EXIT_USAGE and captured.out == ""
            assert named in captured.err

    @pytest.mark.parametrize("depth, code, named", [
        ("0", EXIT_USAGE, "at least 1, got 0"),
        ("-3", EXIT_USAGE, "at least 1, got -3"),
        ("17", EXIT_INTERNAL, "MAX_DUALITY_DEPTH = 16"),
    ])
    def test_duality_depth_bounds(self, capsys, depth, code, named):
        assert main(["experiment", "duality", "--depth", depth]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(RunConfig("no such")) == EXIT_USAGE

    def test_unknown_norm_operator_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["norm", "estimate", "--operator", "bogus"])


class TestHaarCommands:
    def test_analyze_synthesize_file_roundtrip(self, rng, tmp_path):
        samples = rng.standard_normal(64)
        src = tmp_path / "samples.csv"
        coeffs_path = tmp_path / "coeffs.json"
        back_path = tmp_path / "back.csv"
        write_samples_csv(src, samples)
        assert main(["haar", "analyze", "--input", str(src),
                     "--output", str(coeffs_path)]) == EXIT_OK
        assert main(["haar", "synthesize", "--input", str(coeffs_path),
                     "--output", str(back_path)]) == EXIT_OK
        assert np.max(np.abs(read_samples_csv(back_path) - samples)) <= 1e-12

    def test_analyze_writes_schema_fields(self, rng, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        write_samples_csv(src, rng.standard_normal(8))
        rc, obj = run_json(capsys, ["haar", "analyze", "--input", str(src)])
        assert rc == EXIT_OK
        assert obj["kind"] == "haar_coeffs"
        assert obj["depth_limit"] == 2
        assert all({"depth", "index", "value"} <= set(row) for row in obj["entries"])


class TestShiftCommands:
    def test_matrix_stdout_depth_one(self, capsys):
        assert main(["shift", "matrix", "--op", "s0", "--depth", "1"]) == EXIT_OK
        assert capsys.readouterr().out == "0,0,0,0\n0,0,0,0\n0,0,0,-1\n0,0,1,0\n"

    @pytest.mark.parametrize("op", [
        ShiftOperator("s0"),
        ShiftOperator("sj", j=1, d=1),
        ShiftOperator("sj", j=1, d=2),
        ShiftOperator("sj", j=2, d=2),
        ShiftOperator("sj", j=3, d=3),
    ], ids=lambda op: op.kind if op.d is None else f"s{op.j}of{op.d}")
    def test_matrix_stream_equals_dense_rendering(self, op, capsys, tmp_path):
        flags = ["--op", op.kind] + (["--j", str(op.j), "--d", str(op.d)] if op.d else [])
        for depth in range(9):
            dense = tmp_path / f"dense{depth}.csv"
            write_matrix_csv(dense, operator_matrix(op, depth))
            want = dense.read_text()
            argv = ["shift", "matrix", *flags, "--depth", str(depth)]
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == want
            out = tmp_path / f"streamed{depth}.csv"
            assert main(argv + ["--output", str(out)]) == EXIT_OK
            assert out.read_bytes() == dense.read_bytes()

    def test_apply_matches_library(self, rng, tmp_path, capsys):
        coeffs = haar_analyze(rng.standard_normal(32))
        src = tmp_path / "coeffs.json"
        write_haar_coeffs(src, coeffs)
        rc, obj = run_json(capsys, ["shift", "apply", "--input", str(src),
                                    "--op", "sj", "--j", "2", "--d", "2"])
        assert rc == EXIT_OK
        got = haar_coeffs_from_dict(obj)
        want = apply_sj(2, 2, coeffs)
        assert set(got.entries) == set(want.entries)
        for key, v in want.entries.items():
            assert np.array_equal(got.entries[key], v)


class TestTorusCommands:
    def test_squarewave_spectrum(self, capsys):
        rc, obj = run_json(capsys, ["torus", "squarewave", "--kind", "sqsin",
                                    "--cutoff", "5"])
        assert rc == EXIT_OK
        freqs = sorted(row["freq"][0] for row in obj["terms"])
        assert freqs == [-5, -3, -1, 1, 3, 5]

    def test_riesz_matches_library(self, rng, tmp_path, capsys):
        p = TrigPoly(2, 1, {(1, 2): 1.0 + 0.5j, (-3, 1): 2.0 + 0.0j})
        src = tmp_path / "poly.json"
        write_trig_poly(src, p)
        rc, obj = run_json(capsys, ["torus", "riesz", "--input", str(src),
                                    "--j", "1"])
        assert rc == EXIT_OK
        got = trig_poly_from_dict(obj)
        want = riesz_apply(1, p)
        assert set(got.terms) == set(want.terms)
        for f, c in want.terms.items():
            assert np.max(np.abs(got.terms[f] - c)) <= 1e-15

    def test_project_reports_arc_constants(self, tmp_path, capsys):
        src = tmp_path / "cos.json"
        write_trig_poly(src, TrigPoly(1, 1, {(1,): 0.5 + 0.0j, (-1,): 0.5 + 0.0j}))
        rc, obj = run_json(capsys, ["torus", "project", "--input", str(src),
                                    "--var", "1"])
        assert rc == EXIT_OK
        by_arc = {row["n"]: row["poly"]["terms"] for row in obj["arcs"]}
        assert by_arc[0][0]["re"][0] == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert by_arc[1][0]["re"][0] == pytest.approx(-2.0 / math.pi, abs=1e-15)


class TestCodeCommands:
    def test_decompose_reports_blocks(self, rng, tmp_path, capsys):
        src = tmp_path / "coeffs.json"
        write_haar_coeffs(src, haar_analyze(rng.standard_normal(16)))
        rc, obj = run_json(capsys, ["code", "decompose", "--input", str(src),
                                    "--d", "2"])
        assert rc == EXIT_OK
        kinds = [row["kind"] for row in obj["blocks"]]
        assert kinds.count("mean") == 1
        assert "pm" in kinds

    def test_check_ek_reports_membership(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_ek_element(good, random_ek_element(seed=2, n_terms=5))
        rc, obj = run_json(capsys, ["code", "check-ek", "--input", str(good)])
        assert rc == EXIT_OK and obj["member"] is True
        bad = tmp_path / "bad.json"
        write_json(bad, {
            "schema": 1, "kind": "ek_element", "d": 2, "clusters": 1,
            "value_dim": 1,
            "terms": [{"k": 0, "m": 0, "sign": 1, "freq": [2, 5],
                       "re": [1.0], "im": [0.0]}],
        })
        rc, obj = run_json(capsys, ["code", "check-ek", "--input", str(bad)])
        assert rc == EXIT_OK and obj["member"] is False
        assert obj["violations"]

    def test_modulate_worked_example(self, tmp_path, capsys):
        src = tmp_path / "element.json"
        write_json(src, {
            "schema": 1, "kind": "ek_element", "d": 2, "clusters": 1,
            "value_dim": 1,
            "terms": [{"k": 0, "m": 0, "sign": 1, "freq": [1, 0],
                       "re": [1.0], "im": [0.0]}],
        })
        rc, obj = run_json(capsys, ["code", "modulate", "--input", str(src),
                                    "--A", "100"])
        assert rc == EXIT_OK
        assert obj["terms"][0]["stacked"] == [100, 0]
        assert obj["all_distinct"] is True
        assert main(["code", "modulate", "--input", str(src), "--A", "2"]) \
            == EXIT_USAGE

    def test_decay_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["experiment", "modulation", "--A-list", "16,32,64",
                   "--output", str(out)])
        assert rc == EXIT_OK
        rows, slope = read_modulation_sweep_csv(out)
        assert [a for a, _ in rows] == [16, 32, 64]
        assert slope < 0.0

    def test_decay_sweep_seed_changes_element(self, tmp_path):
        paths = []
        for seed in ("1", "2"):
            out = tmp_path / f"sweep{seed}.csv"
            assert main(["--seed", seed, "experiment", "modulation",
                         "--A-list", "16,32", "--output", str(out)]) == EXIT_OK
            paths.append(out.read_text())
        assert paths[0] != paths[1]


class TestVerifyAndExperiments:
    def test_verify_against_golden_passes(self):
        rc = main(["verify", "hvs", "--d", "2", "--j", "1", "--compare-golden"])
        assert rc == EXIT_OK

    def test_verify_reports_lemma_fields(self, capsys):
        rc, obj = run_json(capsys, ["verify", "hvs", "--d", "2", "--j", "1",
                                    "--cutoff", "255"])
        assert rc == EXIT_OK
        assert obj["kind"] == "lemma_report"
        assert obj["parameters"]["matched"] is True
        assert obj["fitted_constant"] == pytest.approx(0.742, abs=1e-3)

    def test_verify_mismatched_direction(self, capsys):
        rc, obj = run_json(capsys, ["verify", "hvs", "--d", "2", "--j", "1",
                                    "--i", "1", "--cutoff", "255"])
        assert rc == EXIT_OK
        assert obj["both_sides_zero"] is True
        assert obj["residual"] == 0.0

    def test_verify_tampered_golden_fails(self, tmp_path):
        fake = tmp_path / "golden"
        fake.mkdir()
        write_json(fake / "c0.json", {"schema": 1, "kind": "golden_constant",
                                      "c0": 0.9})
        rc = main(["--golden-dir", str(fake), "verify", "hvs", "--d", "2",
                   "--j", "1", "--cutoff", "2047", "--compare-golden"])
        assert rc == EXIT_GOLDEN

    def test_golden_dir_env_override(self, tmp_path, monkeypatch):
        fake = tmp_path / "golden"
        fake.mkdir()
        write_json(fake / "c0.json", {"schema": 1, "kind": "golden_constant",
                                      "c0": 0.9})
        monkeypatch.setenv("HAARTORUS_GOLDEN_DIR", str(fake))
        rc = main(["verify", "hvs", "--d", "2", "--j", "1",
                   "--cutoff", "2047", "--compare-golden"])
        assert rc == EXIT_GOLDEN

    def test_modulation_six_point_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["experiment", "modulation",
                   "--A-list", "16,32,64,128,256,512", "--output", str(out)])
        assert rc == EXIT_OK
        rows, slope = read_modulation_sweep_csv(out)
        assert len(rows) == 6
        assert -1.3 <= slope <= -0.8

    def test_modulation_against_golden_passes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["experiment", "modulation", "--output", str(out),
                   "--compare-golden"])
        assert rc == EXIT_OK

    def test_modulation_golden_grid_mismatch(self):
        rc = main(["experiment", "modulation", "--A-list", "16,32",
                   "--output", "/dev/null", "--compare-golden"])
        assert rc == EXIT_GOLDEN

    def test_duality_runs_reported(self, capsys):
        rc, obj = run_json(capsys, ["experiment", "duality", "--runs", "2",
                                    "--cutoff", "256", "--A", "256"])
        assert rc == EXIT_OK
        assert len(obj["runs"]) == 2
        for row in obj["runs"]:
            assert row["coded_matches"] is True
            assert row["inequality_holds"] is True

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["experiment", "modulation", "--A-list", "16,32,64",
                         "--output", str(out)]) == EXIT_OK
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestNormCommands:
    def test_identity_estimate_is_one(self, capsys):
        rc, obj = run_json(capsys, ["norm", "estimate", "--operator", "identity",
                                    "--p", "3.0", "--depth", "3"])
        assert rc == EXIT_OK
        assert obj["estimate"] == pytest.approx(1.0, abs=1e-12)

    def test_full_shift_estimate_is_one(self, capsys):
        rc, obj = run_json(capsys, ["norm", "estimate", "--operator", "s0",
                                    "--depth", "6"])
        assert rc == EXIT_OK
        assert obj["estimate"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("depth", [1, 5, 8])
    @pytest.mark.parametrize("p", [4.0 / 3.0, 4.0])
    def test_s0_estimate_equals_the_dense_matrix_path(self, capsys, depth, p):
        rc, obj = run_json(capsys, ["norm", "estimate", "--operator", "s0",
                                    "--depth", str(depth), "--p", repr(p)])
        assert rc == EXIT_OK
        assert obj["operator_id"] == f"s0[depth={depth},restricted]"
        mat = operator_matrix(ShiftOperator("s0"), depth)[2:, 2:]
        dense = lp_norm_estimate(matrix_operator([mat], obj["operator_id"]), p, seed=1)
        assert obj["trace"] == list(dense.trace)
        assert obj["estimate"] == dense.estimate and obj["iterations"] == dense.iterations

    def test_estimate_reports_its_trace(self, capsys):
        rc, obj = run_json(capsys, ["norm", "estimate", "--operator", "hilbert",
                                    "--cutoff", "16", "--p", "4.0"])
        assert rc == EXIT_OK
        trace = obj["trace"]
        assert len(trace) == obj["iterations"] and max(trace) == obj["estimate"]
        assert obj["last_relative_change"] == \
            abs(trace[-1] - trace[-2]) / max(1.0, trace[-1])
        assert obj["converged"] and obj["last_relative_change"] <= 1e-13

    def test_band_multiplier_estimate(self, capsys):
        rc, obj = run_json(capsys, ["norm", "estimate", "--operator", "hilbert",
                                    "--cutoff", "64", "--p", "4.0"])
        assert rc == EXIT_OK
        assert 1.5 < obj["estimate"] < 1.0 + math.sqrt(2.0)

    def test_dimension_sweep_against_golden(self):
        rc = main(["norm", "dimension-sweep", "--dmax", "6", "--compare-golden"])
        assert rc == EXIT_OK
