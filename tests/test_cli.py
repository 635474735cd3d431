"""End-to-end command-line runs: routing, exit codes, files, golden mode."""

import hashlib
import json
import math

import numpy as np
import pytest

from haartorus import (
    HaarCoeffs,
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
from haartorus import coding, experiments, serialize
from haartorus.cli import (
    EXIT_GOLDEN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    build_parser,
    main,
    run,
)
from haartorus.coding import MAX_DRAW_CELLS
from haartorus.experiments import MAX_DUALITY_RUNS, MAX_GRID, MAX_MODULATION_CELLS
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
from haartorus.shifts import MAX_MATRIX_DEPTH


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_parser_is_built_once_and_output_is_unchanged(capsys):
    build_parser.cache_clear()
    outs = []
    for _ in range(2):
        assert main(["torus", "squarewave", "--cutoff", "7", "--d", "2"]) == EXIT_OK
        outs.append(capsys.readouterr().out.encode())
    assert build_parser.cache_info().misses == 1
    assert outs[0] == outs[1] and outs[0]


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
        # json.dumps, not write_json, which refuses to write NaN or infinity
        path.write_text(json.dumps({
            "schema": 1, "kind": "ek_element", "d": 2, "clusters": 1,
            "value_dim": 1,
            "terms": [{"k": 0, "m": 0, "sign": 1, "freq": [1, 0],
                       "re": re, "im": im}],
        }))
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

    def test_kmax_beyond_cap_is_internal_error_before_any_draw(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the capped work started")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(experiments, "modulation_decay_experiment", forbidden)
        kmax = MAX_DRAW_CELLS // 60  # 30 terms, d = 2: the first kmax past the cap
        rc = main(["experiment", "modulation", "--kmax", str(kmax)])
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL and captured.out == ""
        assert ("30 terms of d = 2 x 8739 clusters draw 524340 cells, over the cap "
                "MAX_DRAW_CELLS = 524288") in captured.err

    @pytest.mark.parametrize("flags, named", [
        (["--terms", "87382"], "87382 terms of d = 2 x 3 clusters draw 524292 cells"),
        (["--d", "5826"], "30 terms of d = 5826 x 3 clusters draw 524340 cells"),
    ], ids=["terms", "d"])
    def test_terms_or_d_beyond_draw_cap_are_internal_errors_before_any_draw(
            self, capsys, monkeypatch, flags, named):
        def forbidden(*args, **kwargs):
            raise AssertionError("the capped work started")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(experiments, "modulation_decay_experiment", forbidden)
        rc = main(["experiment", "modulation", *flags])
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL and captured.out == ""
        assert named in captured.err and "MAX_DRAW_CELLS = 524288" in captured.err

    def test_draw_beyond_the_expected_draws_cap_is_internal_error_before_any_draw(
            self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the capped work started")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(experiments, "modulation_decay_experiment", forbidden)
        # every one of the 50,000 nonzero frequencies of magnitude <= 25,000: 50,000 cells,
        # inside MAX_DRAW_CELLS, but some 570,000 expected draws
        rc = main(["experiment", "modulation", "--d", "1", "--kmax", "0", "--terms", "50000",
                   "--max-mag", "25000"])
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL and captured.out == ""
        assert ("50000 distinct of 50000 frequencies take 569850 expected draws, over the "
                "cap of 524288") in captured.err

    def test_modulation_beyond_cell_cap_is_internal_error_before_modulating(self, capsys,
                                                                           monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the capped work started")

        monkeypatch.setattr(experiments, "modulate", forbidden)
        monkeypatch.setattr(coding, "modulate", forbidden)
        # 3 terms of 4097 clusters, d = 2: 24,582 cells per scale
        scales = MAX_MODULATION_CELLS // 24582 + 1
        rc = main(["experiment", "modulation", "--kmax", "4096", "--terms", "3",
                   "--A-list", ",".join(["16"] * scales)])
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL and captured.out == ""
        assert (f"modulating 3 terms of 4097 clusters x d = 2 at {scales} scales visits "
                f"{24582 * scales} cells, over the cap MAX_MODULATION_CELLS = 4194304"
                in captured.err)

    def test_cheap_modulation_at_the_kmax_cap_runs(self, capsys):
        # kmax 4096, the largest the former cluster cap admitted, with few terms and scales
        rc = main(["experiment", "modulation", "--kmax", "4096", "--terms", "3",
                   "--A-list", "16,32"])
        assert rc == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["A_values"] == [16, 32] and obj["slope"] < 0.0

    def test_duality_runs_beyond_cap_are_internal_error_before_any_run(self, capsys,
                                                                       monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the capped work started")

        monkeypatch.setattr(experiments, "run_duality_experiment", forbidden)
        rc = main(["experiment", "duality", "--runs", str(MAX_DUALITY_RUNS + 1)])
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL and captured.out == ""
        assert "1001 runs exceed MAX_DUALITY_RUNS = 1000" in captured.err

    @pytest.mark.parametrize("flags, named", [
        (["--operator", "hilbert", "--cutoff", str(MAX_GRID // 8 + 1)],
         f"8 x cutoff {MAX_GRID // 8 + 1} = {MAX_GRID + 8} points exceeds MAX_GRID = 2097152"),
        (["--operator", "identity", "--depth", str(MAX_MATRIX_DEPTH + 1)],
         "depth 13 exceeds the identity depth cap 12"),
    ], ids=["hilbert-grid", "identity-depth"])
    def test_norm_estimate_beyond_cap_is_internal_error(self, capsys, monkeypatch, flags, named):
        def forbidden(*args, **kwargs):
            raise AssertionError("the capped work started")

        monkeypatch.setattr(experiments, "lp_norm_estimate", forbidden)
        monkeypatch.setattr(experiments, "identity_operator", forbidden)
        rc = main(["norm", "estimate", *flags])
        captured = capsys.readouterr()
        assert rc == EXIT_INTERNAL and captured.out == ""
        assert named in captured.err

    def test_negative_identity_depth_is_usage_error(self, capsys):
        assert main(["norm", "estimate", "--operator", "identity", "--depth", "-3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "depth must be >= 0, got -3" in captured.err

    def test_complex_coefficients_to_write_are_usage_error(self, capsys, monkeypatch):
        complex_coeffs = HaarCoeffs(1, 1, [0.0], [1.0], {(1, 0): [1.0j], (1, 1): [2.0]})
        monkeypatch.setattr(serialize, "read_haar_coeffs", lambda path: complex_coeffs)
        assert main(["shift", "apply", "--input", "unused.json", "--d", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "haar_coeffs_text: field 'value' holds complex values" in captured.err

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

    # sha256 of `code modulate` output on seeded elements, taken before the exact
    # stacked integers were formed on demand; A = 10^400 is beyond the float range
    MODULATE_PINS = {
        ("d2", "16"): "d9c30eac53527210060edbe9e1459250028538db5cf3a79b7d7bea80bf388cd1",
        ("d2", "1024"): "5d143a65853deacac67cdd19ca5e419c7b6ea2935a27f2fad175d48148febef4",
        ("d2", "1" + "0" * 400): "dda1b00dd2d1121f41d1c8edce4b34c6e12a857c9fdd5a10f119f9a2dfc45e61",
        ("d3", "16"): "57a444b5dd2ac7b44d1e7576e0ed6b482eaff7a9da651330d0e06be9bac655df",
        ("d3", "1024"): "1583f68caf4d3ab03751960466a4585cf3b7627b9e482274b31f88b804e0329f",
    }
    MODULATE_ELEMENTS = {
        "d2": dict(d=2, k_max=2, n_terms=30, seed=5, max_mag=7),
        "d3": dict(d=3, k_max=3, n_terms=20, seed=9, max_mag=7, value_dim=2),
    }

    @pytest.mark.parametrize("name, A", sorted(MODULATE_PINS),
                             ids=lambda v: v if len(v) < 8 else "1e400")
    def test_modulate_bytes_pinned(self, tmp_path, capsys, name, A):
        src = tmp_path / "element.json"
        write_ek_element(src, random_ek_element(**self.MODULATE_ELEMENTS[name]))
        assert main(["code", "modulate", "--input", str(src), "--A", A]) == EXIT_OK
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == self.MODULATE_PINS[name, A]

    def test_modulate_beyond_the_int_to_text_limit_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "element.json"
        write_ek_element(src, random_ek_element(**self.MODULATE_ELEMENTS["d3"]))
        A = "1" + "0" * 400  # its stacked frequencies reach A^11, 4,401 digits
        assert main(["code", "modulate", "--input", str(src), "--A", A]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"at A = {A} a stacked frequency has 4401 decimal digits, more than Python "
                "writes as text (4300, sys.get_int_max_str_digits())") in captured.err

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
