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
