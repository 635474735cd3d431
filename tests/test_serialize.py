"""File formats: JSON schemas, CSV layouts, atomic writes, golden comparison."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from haartorus import (
    GoldenMismatchError,
    HaarCoeffs,
    InvalidInputError,
    MartingaleBlock,
    ParseError,
    TrigPoly,
    haar_analyze,
    martingale_decompose,
    random_ek_element,
)
from haartorus.experiments import (
    DimensionFreeRow,
    ModulationDecayResult,
    identity_operator,
    lp_norm_estimate,
    modulation_decay_experiment,
)
from haartorus.serialize import (
    GOLDEN_DIR_ENV,
    atomic_write_text,
    blocks_to_dict,
    compare_dimension_sweep,
    compare_modulation_sweep,
    compare_to_golden_scalar,
    dumps_json,
    ek_element_from_dict,
    ek_element_to_dict,
    golden_dir,
    haar_coeffs_from_dict,
    haar_coeffs_to_dict,
    load_golden_c0,
    load_json,
    norm_estimate_to_dict,
    read_dimension_sweep_csv,
    read_haar_coeffs,
    read_modulation_sweep_csv,
    read_samples_csv,
    trig_poly_from_dict,
    trig_poly_to_dict,
    write_dimension_sweep_csv,
    write_haar_coeffs,
    write_matrix_csv,
    write_modulation_sweep_csv,
    write_samples_csv,
)


class TestJsonSchemas:
    def test_haar_roundtrip_with_root_mode(self, rng):
        coeffs = HaarCoeffs(3, 1, np.array([1.5]), np.array([-2.0]),
                            {(2, 1): np.array([0.25]), (1, 0): np.array([3.0])})
        obj = haar_coeffs_to_dict(coeffs)
        assert obj["entries"][0] == {"depth": 0, "index": 0, "value": [-2.0]}
        back = haar_coeffs_from_dict(obj)
        assert back.depth_limit == 3
        assert np.array_equal(back.mean_part, coeffs.mean_part)
        assert np.array_equal(back.root_part, coeffs.root_part)
        assert set(back.entries) == set(coeffs.entries)
        for key, v in coeffs.entries.items():
            assert np.array_equal(back.entries[key], v)

    def test_haar_file_roundtrip(self, rng, tmp_path):
        coeffs = haar_analyze(rng.standard_normal(32))
        path = tmp_path / "coeffs.json"
        write_haar_coeffs(path, coeffs)
        back = read_haar_coeffs(path)
        assert set(back.entries) == set(coeffs.entries)
        for key, v in coeffs.entries.items():
            assert np.array_equal(back.entries[key], v)

    def test_zero_root_mode_not_serialized(self):
        coeffs = HaarCoeffs(2, 1, np.array([1.0]), np.zeros(1),
                            {(1, 1): np.array([2.0])})
        obj = haar_coeffs_to_dict(coeffs)
        assert all(row["depth"] >= 1 for row in obj["entries"])

    def test_schema_version_enforced(self):
        obj = haar_coeffs_to_dict(HaarCoeffs(1, 1, np.zeros(1), np.zeros(1), {}))
        obj["schema"] = 99
        with pytest.raises(ParseError) as exc:
            haar_coeffs_from_dict(obj)
        assert exc.value.field == "schema"

    def test_missing_field_names_the_field(self):
        obj = haar_coeffs_to_dict(HaarCoeffs(1, 1, np.zeros(1), np.zeros(1), {}))
        del obj["mean"]
        with pytest.raises(ParseError) as exc:
            haar_coeffs_from_dict(obj)
        assert exc.value.field == "mean"

    def test_component_count_checked(self):
        obj = haar_coeffs_to_dict(HaarCoeffs(1, 1, np.zeros(1), np.zeros(1), {}))
        obj["mean"] = [1.0, 2.0]
        with pytest.raises(ParseError) as exc:
            haar_coeffs_from_dict(obj)
        assert exc.value.field == "mean"

    def test_trig_poly_roundtrip(self):
        p = TrigPoly(2, 1, {(1, -3): 0.5 - 0.25j, (-1, 3): 0.5 + 0.25j})
        back = trig_poly_from_dict(trig_poly_to_dict(p))
        assert set(back.terms) == set(p.terms)
        for f, c in p.terms.items():
            assert np.array_equal(back.terms[f], c)

    def test_ek_element_roundtrip(self):
        e = random_ek_element(seed=8, n_terms=12)
        back = ek_element_from_dict(ek_element_to_dict(e))
        assert back.d == e.d and back.clusters == e.clusters
        assert [t.freq for t in back.terms] == [t.freq for t in e.terms]
        assert all(np.array_equal(a.coeff, b.coeff)
                   for a, b in zip(back.terms, e.terms))

    @given(st.sampled_from(["re", "im"]), st.integers(0, 2),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_ek_element_non_finite_part_rejected(self, part, at, bad):
        obj = ek_element_to_dict(random_ek_element(seed=8, n_terms=3))
        obj["terms"][at][part] = [bad]
        with pytest.raises(InvalidInputError) as info:
            ek_element_from_dict(obj, path="e.json")
        assert "e.json" in str(info.value)
        assert f"terms[{at}].{part}" in str(info.value)

    def test_single_iterate_has_no_relative_change(self):
        est = lp_norm_estimate(identity_operator(4), 2.0, max_iter=1)
        obj = norm_estimate_to_dict(est)
        assert obj["trace"] == [est.estimate]
        assert obj["last_relative_change"] is None

    def test_blocks_roundtrip(self, rng):
        blocks = martingale_decompose(haar_analyze(rng.standard_normal(16)), 2, 1)
        obj = json.loads(dumps_json(blocks_to_dict(blocks, 2)))
        assert obj["d"] == 2
        assert len(obj["blocks"]) == len(blocks)
        for row, b in zip(obj["blocks"], blocks):
            assert (row["kind"], row["k"], row["m"], row["sign"]) == (b.kind, b.k, b.m, b.sign)
            back = {tuple(e["prefix"]): e["values"] for e in row["entries"]}
            assert set(back) == set(b.entries)
            for prefix, w in b.entries.items():
                assert np.array_equal(back[prefix], w)

    def test_complex_weights_rejected(self):
        block = MartingaleBlock("pm", 0, 0, 1, np.array([2]), np.array([[1.0 + 2.0j]]))
        with pytest.raises(InvalidInputError, match="^blocks_to_dict: field 'values' holds"):
            blocks_to_dict([block], 1)

    def test_dumps_deterministic_and_sorted(self, rng):
        coeffs = haar_analyze(rng.standard_normal(16))
        obj = haar_coeffs_to_dict(coeffs)
        text = dumps_json(obj)
        assert text == dumps_json(haar_coeffs_to_dict(coeffs))
        assert text.index('"depth_limit"') < text.index('"entries"') < text.index('"mean"')
        assert text.endswith("\n")


def ref_trig_poly_terms(p):
    """The term list as written from the sorted dict view of the poly."""
    return [{"freq": [int(x) for x in freq], "re": [float(c.real) for c in coeff],
             "im": [float(c.imag) for c in coeff]} for freq, coeff in sorted(p.terms.items())]


class TestStrictJson:
    def test_poly_writer_equals_the_sorted_dict_form(self):
        p = TrigPoly(2, 1, {(3, -1): np.array([1.5 - 0.0j, -0.0 + 2j]),
                            (-2, 5): np.array([0.25j, 1e-300]),
                            (0, 0): np.array([-1.0, 0.0])}, value_dim=2)
        obj = trig_poly_to_dict(p)
        assert dumps_json(obj) == dumps_json({**obj, "terms": ref_trig_poly_terms(p)})

    def test_non_finite_values_are_refused(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                dumps_json({"x": bad})

    def test_duality_report_with_zero_pairing_writes_null_slack(self, golden_c0):
        from haartorus.experiments import duality_chain_check
        from haartorus.serialize import duality_report_to_dict

        def coeffs(entries):
            z = np.zeros(1)
            return HaarCoeffs(3, 1, z, z.copy(), {k: np.array([v]) for k, v in entries.items()})

        f = coeffs({(3, 0): 1.0, (2, 0): 2.0})
        g = coeffs({(3, 6): 1.0, (2, 3): -1.0})
        report = duality_chain_check(f, [g, g], 2, c0=golden_c0)
        assert report.dyadic_pairing == 0.0 and report.slack_ratio == float("inf")
        obj = json.loads(dumps_json(duality_report_to_dict(report)))
        assert obj["slack_ratio"] is None and obj["inequality_holds"] is True


class TestFileHandling:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out" / "data.json"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert [p.name for p in target.parent.iterdir()] == ["data.json"]

    def test_atomic_write_replaces_existing(self, tmp_path):
        target = tmp_path / "data.json"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_load_json_reports_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "a": 1,\n  b\n}\n')
        with pytest.raises(ParseError) as exc:
            load_json(bad)
        assert exc.value.line == 3

    def test_load_json_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_json(tmp_path / "absent.json")


class TestCsv:
    def test_samples_roundtrip_bitwise(self, rng, tmp_path):
        samples = rng.standard_normal(32)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples)
        assert np.array_equal(read_samples_csv(path), samples)

    def test_two_column_samples(self, rng, tmp_path):
        samples = rng.standard_normal((8, 2))
        path = tmp_path / "pairs.csv"
        write_samples_csv(path, samples)
        back = read_samples_csv(path)
        assert back.shape == (8, 2)
        assert np.array_equal(back, samples)

    def test_ragged_rows_rejected_with_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as exc:
            read_samples_csv(path)
        assert exc.value.line == 2

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1.0\noops\n")
        with pytest.raises(ParseError) as exc:
            read_samples_csv(path)
        assert exc.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ParseError):
            read_samples_csv(path)

    def test_matrix_values_are_integers(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, np.array([[0, -1], [1, 0]]))
        assert path.read_text() == "0,-1\n1,0\n"

    def test_modulation_sweep_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_modulation_sweep_csv(path, [16, 32], [0.5, 0.25], -1.0)
        rows, slope = read_modulation_sweep_csv(path)
        assert rows == [(16, 0.5), (32, 0.25)]
        assert slope == -1.0

    def test_modulation_sweep_missing_slope(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("A,aggregate_error\n16,0.5\n")
        with pytest.raises(ParseError):
            read_modulation_sweep_csv(path)

    def test_dimension_sweep_roundtrip(self, tmp_path):
        rows = [DimensionFreeRow(1, 6, 1.0, 3, True),
                DimensionFreeRow(2, 6, 1.0, 4, True)]
        path = tmp_path / "dims.csv"
        write_dimension_sweep_csv(path, rows)
        assert read_dimension_sweep_csv(path) == [(1, 1.0), (2, 1.0)]


class TestGoldenData:
    def test_golden_dir_precedence(self, tmp_path, monkeypatch):
        override = tmp_path / "somewhere"
        assert golden_dir(override) == override
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path / "env"))
        assert golden_dir() == tmp_path / "env"
        monkeypatch.delenv(GOLDEN_DIR_ENV)
        default = golden_dir()
        assert default.name == "golden"
        assert (default / "c0.json").is_file()

    def test_load_golden_constant(self, golden_c0):
        assert load_golden_c0() == golden_c0
        assert 0.74 < golden_c0 < 0.75

    def test_scalar_comparison(self):
        gap = compare_to_golden_scalar("x", 1.0 + 1e-9, 1.0, 1e-6)
        assert gap <= 1e-6
        with pytest.raises(GoldenMismatchError):
            compare_to_golden_scalar("x", 1.1, 1.0, 1e-6)
        with pytest.raises(GoldenMismatchError):
            compare_to_golden_scalar("x", math.nan, 1.0, 1e-6)

    def test_modulation_sweep_comparison(self, tmp_path):
        result = modulation_decay_experiment(A_list=[16, 32, 64])
        path = tmp_path / "sweep.csv"
        write_modulation_sweep_csv(path, result.A_values,
                                   result.aggregate_errors, result.slope)
        compare_modulation_sweep(result, path)
        other = modulation_decay_experiment(A_list=[16, 32])
        with pytest.raises(GoldenMismatchError):
            compare_modulation_sweep(other, path)
        tampered = ModulationDecayResult(
            result.d, result.A_values,
            tuple(e * 1.01 for e in result.aggregate_errors),
            result.slope, False)
        with pytest.raises(GoldenMismatchError):
            compare_modulation_sweep(tampered, path)

    def test_dimension_sweep_comparison(self, tmp_path):
        rows = [DimensionFreeRow(d, 6, 1.0, 3, True) for d in (1, 2)]
        path = tmp_path / "dims.csv"
        write_dimension_sweep_csv(path, rows)
        compare_dimension_sweep(rows, path)
        off = [DimensionFreeRow(1, 6, 1.0, 3, True),
               DimensionFreeRow(2, 6, 1.5, 3, True)]
        with pytest.raises(GoldenMismatchError):
            compare_dimension_sweep(off, path)
        with pytest.raises(GoldenMismatchError):
            compare_dimension_sweep(rows[:1], path)
