"""JSON encoding, decoding and schema auto-detection for all file formats.

Fixed field names, shared by the library and the CLI:

* real matrix        {"rows", "cols", "data"}
* complex matrix     {"rows", "cols", "re", "im"}
* state space        {"n", "m", "A", "B", "C", "D"}
* rational diagonal  {"entries": [{"num", "den"}, ...]}  (descending powers)
* record formats     one row of ``_FORMATS`` each: parameter sets in both
                     forms, skew factorizations, and the check, spectrum and
                     synthesis reports

Complex scalars are encoded as {"re", "im"}.  ``dumps`` sorts keys so equal
values serialize to identical bytes.  ``load_path`` refuses non-finite
numbers: NaN, Infinity, -Infinity and literals that overflow a double.  Every
number a decoder reads must be a JSON number (an int or a float, not a bool)
that converts to a finite double; anything else is a SchemaError.
"""

import json
import math

import numpy as np

from .errors import SchemaError
from .forms import AcParams, PmParams
from .realizability import PrReport, SynthesisResult
from .skewfactor import SkewFactorization
from .statespace import (
    RationalEntry,
    SpectrumReport,
    StateSpace,
    block_diag,
    siso_realization,
)

__all__ = [
    "dumps",
    "load_path",
    "detect_payload",
    "encode_real_matrix",
    "decode_real_matrix",
    "encode_complex_matrix",
    "decode_complex_matrix",
    "encode_complex_scalar",
    "decode_complex_scalar",
    "encode_state_space",
    "decode_state_space",
    "encode_rational_entries",
    "decode_rational_entries",
    "rational_entries_to_state_space",
    "system_from_payload",
    "encode_pm_params",
    "decode_pm_params",
    "encode_ac_params",
    "decode_ac_params",
    "encode_skew_factorization",
    "decode_skew_factorization",
    "encode_pr_report",
    "decode_pr_report",
    "encode_spectrum_report",
    "decode_spectrum_report",
    "encode_synthesis_result",
    "decode_synthesis_result",
]


def _finite(literal: str) -> float:
    """JSON float and constant hook: refuse a value that is not a finite double."""
    value = float(literal)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number {literal}")
    return value


_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_path(path, kinds=()):
    """The JSON value in the file at ``path``; when ``kinds`` names payload
    kinds, the file must hold one of them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _DECODER.decode(fh.read())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, SchemaError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if kinds:
        _require_kind(payload, kinds, path)
    return payload


def detect_payload(payload) -> str:
    """Name the schema whose required fields the payload carries.

    Raises SchemaError when no fingerprint matches or several do.
    """
    if not isinstance(payload, dict):
        raise SchemaError("top-level JSON value must be an object")
    keys = set(payload)
    matches = [kind for kind, req in _FINGERPRINTS.items() if req <= keys]
    if not matches:
        raise SchemaError(f"unrecognized payload: keys {sorted(keys)!r} match no "
                          f"known schema {sorted(_FINGERPRINTS)!r}")
    if len(matches) > 1:
        raise SchemaError(f"ambiguous payload: keys match {sorted(matches)}")
    return matches[0]


def _require_kind(payload, kinds, source) -> str:
    """The kind of ``payload``, which must be one of ``kinds``; ``source``
    names the payload in every error."""
    try:
        kind = detect_payload(payload)
    except SchemaError as exc:
        raise SchemaError(f"{source}: {exc}") from exc
    if kind not in kinds:
        raise SchemaError(f"{source} holds {kind}, expected {' or '.join(kinds)}")
    return kind


def _require(payload, key, kind):
    if not isinstance(payload, dict) or key not in payload:
        raise SchemaError(f"{kind} payload is missing required field '{key}'")
    return payload[key]


def _checked(accept, what):
    """Reader of the values ``accept`` takes, described as ``what`` in errors."""
    def read(value, field):
        if not accept(value):
            raise SchemaError(f"field '{field}' must be {what}")
        return value
    return read


def _as_int(value, field):
    if type(value) is not int:
        raise SchemaError(f"field '{field}' must be an integer")
    return value


def _floats(value, types, field) -> np.ndarray:
    """``value`` as a float array, where ``types`` are the types of its
    scalars.  The number rule: each scalar must be a JSON number (an int or a
    float, not a bool) that converts to a finite double."""
    if types <= {int, float}:
        try:
            arr = np.array(value, dtype=float)
        except OverflowError:  # an int beyond the double range
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    raise SchemaError(f"field '{field}' contains a non-numeric entry: numbers must "
                      "be finite JSON numbers")


def _number(value, field) -> float:
    return float(_floats(value, {type(value)}, field))


def _reals(value, field) -> np.ndarray:
    if not isinstance(value, list):
        raise SchemaError(f"field '{field}' must be a list of numbers")
    return _floats(value, set(map(type, value)), field)


def _num(value) -> float:
    # +0.0 folds negative zero so equal matrices serialize to equal bytes
    return float(value) + 0.0


def encode_real_matrix(mat) -> dict:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("real matrix encoding needs a 2-d array")
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "data": [[_num(v) for v in row] for row in mat],
    }


def _grids(payload, field, keys) -> list:
    """The row lists under ``keys`` of a matrix payload, as float arrays of
    its declared shape."""
    rows = _as_int(_require(payload, "rows", field), f"{field}.rows")
    cols = _as_int(_require(payload, "cols", field), f"{field}.cols")
    out = []
    for key in keys:
        value, where = _require(payload, key, field), f"{field}.{key}"
        if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
            raise SchemaError(f"field '{where}' must be a list of rows")
        if len({len(r) for r in value}) > 1:
            raise SchemaError(f"field '{where}' has ragged rows")
        arr = _floats(value, {type(v) for r in value for v in r}, where)
        if not value:  # no rows, so no column count either
            arr = arr.reshape(0, max(cols, 0))
        if arr.shape != (rows, cols):
            raise SchemaError(f"field '{where}' has shape {arr.shape}, declared {rows}x{cols}")
        out.append(arr)
    return out


def decode_real_matrix(payload, field="matrix") -> np.ndarray:
    return _grids(payload, field, ("data",))[0]


def encode_complex_matrix(mat) -> dict:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise ValueError("complex matrix encoding needs a 2-d array")
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": [[_num(v) for v in row] for row in mat.real],
        "im": [[_num(v) for v in row] for row in mat.imag],
    }


def decode_complex_matrix(payload, field="matrix") -> np.ndarray:
    re, im = _grids(payload, field, ("re", "im"))
    return re + 1j * im


def encode_complex_scalar(z) -> dict:
    z = complex(z)
    return {"re": _num(z.real), "im": _num(z.imag)}


def decode_complex_scalar(payload, field="value") -> complex:
    return complex(_number(_require(payload, "re", field), f"{field}.re"),
                   _number(_require(payload, "im", field), f"{field}.im"))


def encode_state_space(ss: StateSpace) -> dict:
    """State-space payload; "n" is the state dimension, "m" the channel count."""
    return {
        "n": ss.state_dim,
        "m": ss.num_inputs,
        "A": encode_real_matrix(ss.A),
        "B": encode_real_matrix(ss.B),
        "C": encode_real_matrix(ss.C),
        "D": encode_real_matrix(ss.D),
    }


def decode_state_space(payload) -> StateSpace:
    n = _as_int(_require(payload, "n", "state_space"), "n")
    m = _as_int(_require(payload, "m", "state_space"), "m")
    mats = {
        key: decode_real_matrix(_require(payload, key, "state_space"), key)
        for key in ("A", "B", "C", "D")
    }
    if mats["A"].shape != (n, n):
        raise SchemaError(f"field 'A' has shape {mats['A'].shape}, expected {n}x{n}")
    if mats["B"].shape != (n, m):
        raise SchemaError(f"field 'B' has shape {mats['B'].shape}, expected {n}x{m}")
    if mats["C"].shape[1] != n or mats["D"].shape[1] != m:
        raise SchemaError("fields 'C'/'D' do not match the declared dimensions")
    return StateSpace(mats["A"], mats["B"], mats["C"], mats["D"])


def encode_rational_entries(entries) -> dict:
    return {
        "entries": [
            {"num": [float(c) for c in e.num], "den": [float(c) for c in e.den]}
            for e in entries
        ]
    }


def decode_rational_entries(payload) -> list:
    raw = _require(payload, "entries", "rational_entries")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("field 'entries' must be a non-empty list")
    out = []
    for i, item in enumerate(raw):
        where = f"entries[{i}]"
        num = _reals(_require(item, "num", where), f"{where}.num")
        den = _reals(_require(item, "den", where), f"{where}.den")
        try:
            out.append(RationalEntry(tuple(num), tuple(den)))
        except ValueError as exc:
            raise SchemaError(f"{where} is not a valid rational entry: {exc}") from exc
    return out


def rational_entries_to_state_space(entries) -> StateSpace:
    """Diagonal transfer matrix realized as the direct sum of companion forms."""
    return block_diag([siso_realization(e) for e in entries])


def system_from_payload(payload, source="system payload") -> StateSpace:
    """Decode either a state-space or a rational-diagonal payload to a
    StateSpace; ``source`` names the payload when it is neither."""
    if _require_kind(payload, ("state_space", "rational_entries"), source) == "state_space":
        return decode_state_space(payload)
    return rational_entries_to_state_space(decode_rational_entries(payload))


# Field codecs of the record formats: (writer, reader) pairs, where the reader
# takes the field's JSON value and its name, to be named in errors.

def _complex_list(value, field) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"field '{field}' must be a list of complex scalars")
    return [decode_complex_scalar(z, f"{field}[{i}]") for i, z in enumerate(value)]


def _residuals(value, field) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"field '{field}' must be an object of numbers")
    return {str(k): _number(v, f"{field}.{k}") for k, v in value.items()}


def _optional(codec):
    """``codec`` extended to null."""
    write, read = codec
    return (lambda x: None if x is None else write(x),
            lambda value, field: None if value is None else read(value, field))


_REAL = (encode_real_matrix, decode_real_matrix)
_COMPLEX = (encode_complex_matrix, decode_complex_matrix)
_NUMBER = (float, _number)
_FLAG = (bool, _checked(lambda v: isinstance(v, bool), "true or false"))
_RESIDUALS = (lambda d: {k: float(v) for k, v in sorted(d.items())}, _residuals)
_COMPLEXES = (lambda zs: [encode_complex_scalar(z) for z in zs], _complex_list)
_COMPLEX_ARRAY = (_COMPLEXES[0],
                  lambda v, field: np.array(_complex_list(v, field), dtype=complex))

# kind -> (class, {field: codec}): each record format's fields, in decoding
# order; a field is read from and written to the attribute of the same name
_FORMATS = {
    "pm_params": (PmParams, dict.fromkeys(("D", "M", "R", "Theta"), _REAL)),
    "ac_params": (AcParams, dict.fromkeys(("S", "N1", "N2", "H1", "H2", "E1", "E2"),
                                          _COMPLEX)),
    "skew_factorization": (SkewFactorization, {
        "Sigma": _REAL, "O": _REAL, "deltas": (lambda xs: [float(x) for x in xs], _reals),
    }),
    "pr_report": (PrReport, {
        "verdict": (str, _checked(("PR", "not-PR", "inconclusive").__contains__,
                                  "PR, not-PR or inconclusive")),
        "d_orthogonality_residual": _NUMBER,
        "d_symplectic_residual": _NUMBER,
        "jj_unitarity_max_residual": _optional(_NUMBER),
        "sample_points": _COMPLEXES,
        "failure_reason": _optional((str, _checked(lambda v: isinstance(v, str), "text"))),
        "condition_residuals": _RESIDUALS,
    }),
    "spectrum_report": (SpectrumReport, {
        "poles": _COMPLEX_ARRAY,
        "zeros": _COMPLEX_ARRAY,
        "mirror_symmetric": _FLAG,
        "spectrally_generic": _FLAG,
        "max_pairing_distance": _NUMBER,
    }),
    "synthesis_result": (SynthesisResult, {
        "F": _REAL,
        "Rhat": _REAL,
        "Sigma": _REAL,
        "params": (lambda obj: _encode("pm_params", obj),
                   lambda value, field: _decode("pm_params", value)),
        "equation_residuals": _RESIDUALS,
        "reduced_from": _optional((int, _as_int)),
    }),
}

# required-field fingerprints used by detect_payload; the record formats a
# user hands in take theirs from _FORMATS
_FINGERPRINTS = {
    "state_space": {"n", "m", "A", "B", "C", "D"},
    "rational_entries": {"entries"},
    **{kind: set(_FORMATS[kind][1]) for kind in ("pm_params", "ac_params")},
    "real_matrix": {"rows", "cols", "data"},
    "complex_matrix": {"rows", "cols", "re", "im"},
    "skew_factorization": set(_FORMATS["skew_factorization"][1]),
}


def _encode(kind, obj) -> dict:
    return {key: write(getattr(obj, key)) for key, (write, _) in _FORMATS[kind][1].items()}


def _decode(kind, payload):
    cls, fields = _FORMATS[kind]
    values = {key: read(_require(payload, key, kind), key)
              for key, (_, read) in fields.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise SchemaError(f"{kind} payload is inconsistent: {exc}") from exc


def encode_pm_params(params: PmParams) -> dict:
    return _encode("pm_params", params)


def decode_pm_params(payload) -> PmParams:
    return _decode("pm_params", payload)


def encode_ac_params(params: AcParams) -> dict:
    return _encode("ac_params", params)


def decode_ac_params(payload) -> AcParams:
    return _decode("ac_params", payload)


def encode_skew_factorization(fact: SkewFactorization) -> dict:
    return _encode("skew_factorization", fact)


def decode_skew_factorization(payload) -> SkewFactorization:
    return _decode("skew_factorization", payload)


def encode_pr_report(report: PrReport) -> dict:
    return _encode("pr_report", report)


def decode_pr_report(payload) -> PrReport:
    return _decode("pr_report", payload)


def encode_spectrum_report(report: SpectrumReport) -> dict:
    return _encode("spectrum_report", report)


def decode_spectrum_report(payload) -> SpectrumReport:
    return _decode("spectrum_report", payload)


def encode_synthesis_result(result: SynthesisResult) -> dict:
    return _encode("synthesis_result", result)


def decode_synthesis_result(payload) -> SynthesisResult:
    return _decode("synthesis_result", payload)
