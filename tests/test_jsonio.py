import dataclasses
import json

import numpy as np
import pytest

from oqho import jsonio
from oqho.errors import SchemaError
from oqho.realizability import check_pr_frequency, synthesize
from oqho.skewfactor import cholesky_like
from oqho.statespace import eval_tf, spectrum_report
from oqho.structured import j_matrix
from oqho.worked_example import (
    example_ac_params,
    example_pm_params,
    example_rational_entries,
    example_state_space,
)


def reload(payload):
    return json.loads(jsonio.dumps(payload))


def test_real_matrix_roundtrip():
    mat = np.array([[1.5, -2.0], [0.0, 3.25], [4.0, 5.0]])
    assert np.array_equal(jsonio.decode_real_matrix(reload(jsonio.encode_real_matrix(mat))), mat)


def test_real_matrix_empty_roundtrip():
    for shape in ((0, 0), (0, 3), (2, 0)):
        mat = np.zeros(shape)
        out = jsonio.decode_real_matrix(reload(jsonio.encode_real_matrix(mat)))
        assert out.shape == shape


def test_complex_matrix_roundtrip():
    mat = np.array([[1 + 2j, -3j], [0.5, 4 - 1j]])
    out = jsonio.decode_complex_matrix(reload(jsonio.encode_complex_matrix(mat)))
    assert np.array_equal(out, mat)


def test_complex_scalar_roundtrip():
    z = 1.25 - 3.5j
    assert jsonio.decode_complex_scalar(jsonio.encode_complex_scalar(z)) == z


class TestDecodeErrors:
    def test_missing_field_is_named(self):
        with pytest.raises(SchemaError, match="'data'"):
            jsonio.decode_real_matrix({"rows": 1, "cols": 1})

    def test_shape_mismatch_is_named(self):
        with pytest.raises(SchemaError, match="declared 2x2"):
            jsonio.decode_real_matrix({"rows": 2, "cols": 2, "data": [[1.0, 2.0]]})

    def test_ragged_rows(self):
        with pytest.raises(SchemaError):
            jsonio.decode_real_matrix({"rows": 2, "cols": 2, "data": [[1.0, 2.0], [3.0]]})

    def test_non_numeric_entry(self):
        with pytest.raises(SchemaError, match="non-numeric"):
            jsonio.decode_real_matrix({"rows": 1, "cols": 1, "data": [["x"]]})

    def test_rowless_data_must_match_the_declared_shape(self):
        for rows, cols in ((2, 2), (-1, 0), (0, -2)):
            with pytest.raises(SchemaError, match=f"declared {rows}x{cols}"):
                jsonio.decode_real_matrix({"rows": rows, "cols": cols, "data": []})

    def test_non_integer_dimension(self):
        with pytest.raises(SchemaError, match="'matrix.rows'"):
            jsonio.decode_real_matrix({"rows": "1", "cols": 1, "data": [[0.0]]})


class TestDetectPayload:
    def test_all_kinds(self):
        cases = {
            "state_space": jsonio.encode_state_space(example_state_space()),
            "rational_entries": jsonio.encode_rational_entries(example_rational_entries()),
            "pm_params": jsonio.encode_pm_params(example_pm_params()),
            "ac_params": jsonio.encode_ac_params(example_ac_params()),
            "real_matrix": jsonio.encode_real_matrix(j_matrix(2)),
            "complex_matrix": jsonio.encode_complex_matrix(np.eye(2, dtype=complex)),
            "skew_factorization": jsonio.encode_skew_factorization(
                cholesky_like(j_matrix(4))
            ),
        }
        for kind, payload in cases.items():
            assert jsonio.detect_payload(payload) == kind

    def test_unknown(self):
        with pytest.raises(SchemaError, match="no known schema"):
            jsonio.detect_payload({"foo": 1})

    def test_ambiguous(self):
        payload = jsonio.encode_state_space(example_state_space())
        payload.update(jsonio.encode_pm_params(example_pm_params()))
        with pytest.raises(SchemaError, match="ambiguous"):
            jsonio.detect_payload(payload)

    def test_non_object(self):
        with pytest.raises(SchemaError):
            jsonio.detect_payload([1, 2, 3])


def test_state_space_roundtrip():
    ss = example_state_space()
    out = jsonio.decode_state_space(reload(jsonio.encode_state_space(ss)))
    for name in ("A", "B", "C", "D"):
        assert np.array_equal(getattr(out, name), getattr(ss, name))


def test_state_space_dimension_cross_check():
    payload = jsonio.encode_state_space(example_state_space())
    payload["n"] = 3
    with pytest.raises(SchemaError, match="'A'"):
        jsonio.decode_state_space(payload)


def test_rational_entries_roundtrip_and_system():
    entries = example_rational_entries()
    decoded = jsonio.decode_rational_entries(
        reload(jsonio.encode_rational_entries(entries))
    )
    assert decoded == entries
    ss = jsonio.rational_entries_to_state_space(decoded)
    assert abs(eval_tf(ss, 2.0)[0, 0] - 1.5) < 1e-12


def test_rational_entries_rejects_improper():
    with pytest.raises(SchemaError, match="entries\\[0\\]"):
        jsonio.decode_rational_entries(
            {"entries": [{"num": [1.0, 0.0, 0.0], "den": [1.0, 1.0]}]}
        )


def test_system_from_payload_accepts_both_system_kinds():
    ss1 = jsonio.system_from_payload(jsonio.encode_state_space(example_state_space()))
    ss2 = jsonio.system_from_payload(
        jsonio.encode_rational_entries(example_rational_entries())
    )
    assert ss1.state_dim == ss2.state_dim == 4
    with pytest.raises(SchemaError, match="system"):
        jsonio.system_from_payload(jsonio.encode_pm_params(example_pm_params()))


def test_pm_params_roundtrip():
    p = example_pm_params()
    out = jsonio.decode_pm_params(reload(jsonio.encode_pm_params(p)))
    for name in ("D", "M", "R", "Theta"):
        assert np.array_equal(getattr(out, name), getattr(p, name))


def test_pm_params_shape_inconsistency():
    payload = jsonio.encode_pm_params(example_pm_params())
    payload["M"] = jsonio.encode_real_matrix(np.zeros((2, 2)))
    with pytest.raises(SchemaError, match="inconsistent"):
        jsonio.decode_pm_params(payload)


def test_ac_params_roundtrip():
    a = example_ac_params()
    out = jsonio.decode_ac_params(reload(jsonio.encode_ac_params(a)))
    for name in ("S", "N1", "N2", "H1", "H2", "E1", "E2"):
        assert np.array_equal(getattr(out, name), getattr(a, name))


def test_skew_factorization_roundtrip():
    fact = cholesky_like(j_matrix(6))
    out = jsonio.decode_skew_factorization(
        reload(jsonio.encode_skew_factorization(fact))
    )
    assert np.array_equal(out.Sigma, fact.Sigma)
    assert np.array_equal(out.O, fact.O)
    assert np.array_equal(out.deltas, fact.deltas)


def test_pr_report_roundtrip():
    report = check_pr_frequency(example_state_space())
    out = jsonio.decode_pr_report(reload(jsonio.encode_pr_report(report)))
    assert out.verdict == report.verdict
    assert out.jj_unitarity_max_residual == report.jj_unitarity_max_residual
    assert out.sample_points == report.sample_points
    assert out.condition_residuals == report.condition_residuals
    assert out.failure_reason is None


def test_pr_report_rejects_unknown_verdict():
    payload = reload(jsonio.encode_pr_report(check_pr_frequency(example_state_space())))
    payload["verdict"] = "maybe"
    with pytest.raises(SchemaError, match="verdict"):
        jsonio.decode_pr_report(payload)


def test_spectrum_report_roundtrip():
    report = spectrum_report(example_state_space())
    out = jsonio.decode_spectrum_report(reload(jsonio.encode_spectrum_report(report)))
    assert np.array_equal(out.poles, report.poles)
    assert np.array_equal(out.zeros, report.zeros)
    assert out.mirror_symmetric == report.mirror_symmetric
    assert out.spectrally_generic == report.spectrally_generic


def test_synthesis_result_roundtrip():
    result = synthesize(example_state_space())
    out = jsonio.decode_synthesis_result(
        reload(jsonio.encode_synthesis_result(result))
    )
    assert np.array_equal(out.F, result.F)
    assert np.array_equal(out.Sigma, result.Sigma)
    assert np.array_equal(out.params.M, result.params.M)
    assert out.equation_residuals == result.equation_residuals
    assert out.reduced_from is None


def test_dumps_is_deterministic():
    payload_a = {"b": 2.0, "a": [1.0, {"y": 0.5, "x": 0.25}]}
    payload_b = {"a": [1.0, {"x": 0.25, "y": 0.5}], "b": 2.0}
    assert jsonio.dumps(payload_a) == jsonio.dumps(payload_b)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_load_path_refuses_non_finite_numbers(tmp_path, literal):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 2, "data": [[1.0, %s]]}' % literal)
    with pytest.raises(SchemaError, match=f"non-finite number {literal}"):
        jsonio.load_path(str(path))


def test_load_path_keeps_finite_extremes(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 3, "data": [[1.7976931348623157e308, 5e-324, -0.0]]}')
    mat = jsonio.decode_real_matrix(jsonio.load_path(str(path)))
    assert mat.tolist() == [[1.7976931348623157e308, 5e-324, -0.0]]


def test_integer_beyond_double_range_is_a_schema_error():
    payload = {"rows": 1, "cols": 1, "data": [[10**400]]}
    with pytest.raises(SchemaError, match="non-numeric entry"):
        jsonio.decode_real_matrix(payload)


@pytest.mark.parametrize("entry", [None, "NaN", "Infinity", "1e999", "4", True, False,
                                   [1.0], {"re": 1.0}, float("nan"), float("inf")])
def test_matrix_entries_must_be_finite_json_numbers(entry):
    payload = jsonio.encode_real_matrix(np.eye(2))
    payload["data"][0][0] = entry
    with pytest.raises(SchemaError, match="'matrix.data' contains a non-numeric entry"):
        jsonio.decode_real_matrix(payload)
    payload = jsonio.encode_complex_matrix(np.eye(2))
    payload["im"][1][0] = entry
    with pytest.raises(SchemaError, match="'matrix.im' contains a non-numeric entry"):
        jsonio.decode_complex_matrix(payload)


def test_matrix_entries_may_be_ints():
    mat = jsonio.decode_real_matrix({"rows": 1, "cols": 2, "data": [[3, -1]]})
    assert mat.dtype == float and mat.tolist() == [[3.0, -1.0]]


@pytest.mark.parametrize("entry", [None, "NaN", "1.5", True, [0.0], float("-inf")])
def test_complex_scalar_parts_must_be_finite_json_numbers(entry):
    with pytest.raises(SchemaError, match="'value.im' contains a non-numeric entry"):
        jsonio.decode_complex_scalar({"re": 1.0, "im": entry})


@pytest.mark.parametrize("coefficients", ["12", [1.0, None], [1.0, "2"], [True, 1.0], 1.0])
def test_rational_coefficients_must_be_lists_of_finite_numbers(coefficients):
    payload = {"entries": [{"num": coefficients, "den": [1.0, 1.0]}]}
    with pytest.raises(SchemaError, match=r"'entries\[0\]\.num'"):
        jsonio.decode_rational_entries(payload)


def test_skew_deltas_must_be_a_list_of_finite_numbers():
    payload = reload(jsonio.encode_skew_factorization(cholesky_like(j_matrix(4))))
    for deltas in ([1.0, None], [1.0, "NaN"], "1.0", {"0": 1.0}):
        payload["deltas"] = deltas
        with pytest.raises(SchemaError, match="'deltas'"):
            jsonio.decode_skew_factorization(payload)


def _report_payloads():
    return {
        "pr_report": reload(jsonio.encode_pr_report(check_pr_frequency(example_state_space()))),
        "spectrum_report": reload(
            jsonio.encode_spectrum_report(spectrum_report(example_state_space()))),
        "synthesis_result": reload(
            jsonio.encode_synthesis_result(synthesize(example_state_space()))),
    }


@pytest.mark.parametrize("kind, field, value, match", [
    ("pr_report", "d_orthogonality_residual", None, "non-numeric"),
    ("pr_report", "d_symplectic_residual", "NaN", "non-numeric"),
    ("pr_report", "jj_unitarity_max_residual", "Infinity", "non-numeric"),
    ("pr_report", "jj_unitarity_max_residual", True, "non-numeric"),
    ("pr_report", "sample_points", [{"re": None, "im": 0.0}], r"sample_points\[0\]\.re"),
    ("pr_report", "sample_points", {"re": 1.0, "im": 0.0}, "'sample_points' must be a list"),
    ("pr_report", "condition_residuals", {"x": "0.5"}, "condition_residuals.x"),
    ("pr_report", "condition_residuals", [0.5], "must be an object"),
    ("pr_report", "failure_reason", 3, "must be text"),
    ("pr_report", "verdict", "maybe", "'verdict' must be"),
    ("spectrum_report", "mirror_symmetric", 1, "true or false"),
    ("spectrum_report", "spectrally_generic", "false", "true or false"),
    ("spectrum_report", "max_pairing_distance", None, "non-numeric"),
    ("spectrum_report", "poles", [{"re": "1e999", "im": 0.0}], r"poles\[0\]\.re"),
    ("synthesis_result", "reduced_from", "4", "'reduced_from' must be an integer"),
    ("synthesis_result", "reduced_from", 4.0, "'reduced_from' must be an integer"),
    ("synthesis_result", "equation_residuals", {"x": None}, "equation_residuals.x"),
])
def test_report_fields_follow_the_number_rule(kind, field, value, match):
    payload = _report_payloads()[kind]
    payload[field] = value
    with pytest.raises(SchemaError, match=match):
        getattr(jsonio, f"decode_{kind}")(payload)


def test_report_nulls_where_allowed():
    payload = _report_payloads()["pr_report"]
    payload.update(jj_unitarity_max_residual=None, failure_reason=None)
    report = jsonio.decode_pr_report(payload)
    assert report.jj_unitarity_max_residual is None and report.failure_reason is None
    payload = _report_payloads()["synthesis_result"]
    payload["reduced_from"] = 6
    assert jsonio.decode_synthesis_result(payload).reduced_from == 6


@pytest.mark.parametrize("literal", ["null", '"NaN"', '"Infinity"', '"1e999"', "true"])
def test_loaded_file_with_a_non_number_entry_is_refused(tmp_path, literal):
    path = tmp_path / "sys.json"
    payload = jsonio.encode_state_space(example_state_space())
    payload["A"]["data"][0][0] = "ENTRY"
    path.write_text(jsonio.dumps(payload).replace('"ENTRY"', literal))
    with pytest.raises(SchemaError, match="'A.data' contains a non-numeric entry"):
        jsonio.system_from_payload(jsonio.load_path(str(path)))


def test_load_path_requires_one_of_the_named_kinds(tmp_path):
    path = tmp_path / "pm.json"
    path.write_text(jsonio.dumps(jsonio.encode_pm_params(example_pm_params())))
    assert set(jsonio.load_path(str(path), ("ac_params", "pm_params"))) == {
        "D", "M", "R", "Theta"}
    with pytest.raises(SchemaError) as info:
        jsonio.load_path(str(path), ("real_matrix",))
    assert str(info.value) == f"{path} holds pm_params, expected real_matrix"
    with pytest.raises(SchemaError) as info:
        jsonio.system_from_payload(jsonio.load_path(str(path)), str(path))
    assert str(info.value) == (
        f"{path} holds pm_params, expected state_space or rational_entries")


def test_record_formats_cover_their_classes_and_fingerprints():
    for kind, (cls, fields) in jsonio._FORMATS.items():
        assert set(fields) == {f.name for f in dataclasses.fields(cls)}, kind
        assert jsonio._FINGERPRINTS.get(kind, set(fields)) == set(fields), kind
