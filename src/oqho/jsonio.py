"""JSON encoding, decoding and schema auto-detection for all file formats.

Fixed field names, shared by the library and the CLI:

* real matrix        {"rows", "cols", "data"}
* complex matrix     {"rows", "cols", "re", "im"}
* state space        {"n", "m", "A", "B", "C", "D"}
* rational diagonal  {"entries": [{"num", "den"}, ...]}  (descending powers)
* pm parameters      {"D", "M", "R", "Theta"}
* ac parameters      {"S", "N1", "N2", "H1", "H2", "E1", "E2"}
* skew factorization {"Sigma", "O", "deltas"}

Complex scalars are encoded as {"re", "im"}.  ``dumps`` sorts keys so equal
values serialize to identical bytes.  ``load_path`` refuses non-finite
numbers: NaN, Infinity, -Infinity and literals that overflow a double.
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

# required-field fingerprints used by detect_payload, checked in this order
_FINGERPRINTS = {
    "state_space": {"n", "m", "A", "B", "C", "D"},
    "rational_entries": {"entries"},
    "pm_params": {"D", "M", "R", "Theta"},
    "ac_params": {"S", "N1", "N2", "H1", "H2", "E1", "E2"},
    "real_matrix": {"rows", "cols", "data"},
    "complex_matrix": {"rows", "cols", "re", "im"},
    "skew_factorization": {"Sigma", "O", "deltas"},
}


def _finite(literal: str) -> float:
    """JSON float and constant hook: refuse a value that is not a finite double."""
    value = float(literal)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number {literal}")
    return value


_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _DECODER.decode(fh.read())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, SchemaError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def detect_payload(payload) -> str:
    """Name the schema whose required fields the payload carries.

    Raises SchemaError when no fingerprint matches or several do.
    """
    if not isinstance(payload, dict):
        raise SchemaError("top-level JSON value must be an object")
    keys = set(payload)
    matches = [kind for kind, req in _FINGERPRINTS.items() if req <= keys]
    if not matches:
        raise SchemaError(
            "unrecognized payload: keys "
            + repr(sorted(keys))
            + " match no known schema "
            + repr(sorted(_FINGERPRINTS))
        )
    if len(matches) > 1:
        raise SchemaError(f"ambiguous payload: keys match {sorted(matches)}")
    return matches[0]


def _require(payload, key, kind):
    if not isinstance(payload, dict) or key not in payload:
        raise SchemaError(f"{kind} payload is missing required field '{key}'")
    return payload[key]


def _as_grid(value, field, rows=None, cols=None):
    if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
        raise SchemaError(f"field '{field}' must be a list of rows")
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"field '{field}' contains a non-numeric entry: {exc}") from exc
    if arr.size == 0:
        arr = arr.reshape((len(value), 0) if rows is None else (rows, cols or 0))
    if arr.ndim != 2:
        raise SchemaError(f"field '{field}' has ragged rows")
    if rows is not None and arr.shape != (rows, cols):
        raise SchemaError(
            f"field '{field}' has shape {arr.shape}, declared {rows}x{cols}"
        )
    return arr


def _as_int(value, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field '{field}' must be an integer")
    return value


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


def decode_real_matrix(payload, field="matrix") -> np.ndarray:
    rows = _as_int(_require(payload, "rows", field), f"{field}.rows")
    cols = _as_int(_require(payload, "cols", field), f"{field}.cols")
    return _as_grid(_require(payload, "data", field), f"{field}.data", rows, cols)


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
    rows = _as_int(_require(payload, "rows", field), f"{field}.rows")
    cols = _as_int(_require(payload, "cols", field), f"{field}.cols")
    re = _as_grid(_require(payload, "re", field), f"{field}.re", rows, cols)
    im = _as_grid(_require(payload, "im", field), f"{field}.im", rows, cols)
    return re + 1j * im


def encode_complex_scalar(z) -> dict:
    z = complex(z)
    return {"re": _num(z.real), "im": _num(z.imag)}


def decode_complex_scalar(payload, field="value") -> complex:
    re = _require(payload, "re", field)
    im = _require(payload, "im", field)
    if isinstance(re, list) or isinstance(im, list):
        raise SchemaError(f"field '{field}' must be a complex scalar, not a matrix")
    return complex(float(re), float(im))


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
        num = _require(item, "num", f"entries[{i}]")
        den = _require(item, "den", f"entries[{i}]")
        try:
            out.append(RationalEntry(tuple(num), tuple(den)))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"entries[{i}] is not a valid rational entry: {exc}") from exc
    return out


def rational_entries_to_state_space(entries) -> StateSpace:
    """Diagonal transfer matrix realized as the direct sum of companion forms."""
    return block_diag([siso_realization(e) for e in entries])


def system_from_payload(payload) -> StateSpace:
    """Decode either a state-space or a rational-diagonal payload to a StateSpace."""
    kind = detect_payload(payload)
    if kind == "state_space":
        return decode_state_space(payload)
    if kind == "rational_entries":
        return rational_entries_to_state_space(decode_rational_entries(payload))
    raise SchemaError(f"expected a system payload, found '{kind}'")


def encode_pm_params(params: PmParams) -> dict:
    return {
        "D": encode_real_matrix(params.D),
        "M": encode_real_matrix(params.M),
        "R": encode_real_matrix(params.R),
        "Theta": encode_real_matrix(params.Theta),
    }


def decode_pm_params(payload) -> PmParams:
    mats = {
        key: decode_real_matrix(_require(payload, key, "pm_params"), key)
        for key in ("D", "M", "R", "Theta")
    }
    try:
        return PmParams(mats["D"], mats["M"], mats["R"], mats["Theta"])
    except ValueError as exc:
        raise SchemaError(f"pm_params payload is inconsistent: {exc}") from exc


def encode_ac_params(params: AcParams) -> dict:
    return {
        key: encode_complex_matrix(getattr(params, key))
        for key in ("S", "N1", "N2", "H1", "H2", "E1", "E2")
    }


def decode_ac_params(payload) -> AcParams:
    mats = {
        key: decode_complex_matrix(_require(payload, key, "ac_params"), key)
        for key in ("S", "N1", "N2", "H1", "H2", "E1", "E2")
    }
    try:
        return AcParams(**mats)
    except ValueError as exc:
        raise SchemaError(f"ac_params payload is inconsistent: {exc}") from exc


def encode_skew_factorization(fact: SkewFactorization) -> dict:
    return {
        "Sigma": encode_real_matrix(fact.Sigma),
        "O": encode_real_matrix(fact.O),
        "deltas": [float(d) for d in fact.deltas],
    }


def decode_skew_factorization(payload) -> SkewFactorization:
    sigma = decode_real_matrix(_require(payload, "Sigma", "skew_factorization"), "Sigma")
    o = decode_real_matrix(_require(payload, "O", "skew_factorization"), "O")
    deltas = _require(payload, "deltas", "skew_factorization")
    if not isinstance(deltas, list):
        raise SchemaError("field 'deltas' must be a list of positive reals")
    return SkewFactorization(sigma, o, np.array([float(d) for d in deltas]))


def encode_pr_report(report: PrReport) -> dict:
    return {
        "verdict": report.verdict,
        "d_orthogonality_residual": float(report.d_orthogonality_residual),
        "d_symplectic_residual": float(report.d_symplectic_residual),
        "jj_unitarity_max_residual": (
            None
            if report.jj_unitarity_max_residual is None
            else float(report.jj_unitarity_max_residual)
        ),
        "sample_points": [encode_complex_scalar(s) for s in report.sample_points],
        "failure_reason": report.failure_reason,
        "condition_residuals": {
            k: float(v) for k, v in sorted(report.condition_residuals.items())
        },
    }


def decode_pr_report(payload) -> PrReport:
    verdict = _require(payload, "verdict", "pr_report")
    if verdict not in ("PR", "not-PR", "inconclusive"):
        raise SchemaError(f"field 'verdict' has unknown value {verdict!r}")
    jj = _require(payload, "jj_unitarity_max_residual", "pr_report")
    return PrReport(
        verdict=verdict,
        d_orthogonality_residual=float(
            _require(payload, "d_orthogonality_residual", "pr_report")
        ),
        d_symplectic_residual=float(
            _require(payload, "d_symplectic_residual", "pr_report")
        ),
        jj_unitarity_max_residual=None if jj is None else float(jj),
        sample_points=[
            decode_complex_scalar(s, f"sample_points[{i}]")
            for i, s in enumerate(_require(payload, "sample_points", "pr_report"))
        ],
        failure_reason=_require(payload, "failure_reason", "pr_report"),
        condition_residuals={
            str(k): float(v)
            for k, v in _require(payload, "condition_residuals", "pr_report").items()
        },
    )


def encode_spectrum_report(report: SpectrumReport) -> dict:
    return {
        "poles": [encode_complex_scalar(z) for z in report.poles],
        "zeros": [encode_complex_scalar(z) for z in report.zeros],
        "mirror_symmetric": bool(report.mirror_symmetric),
        "spectrally_generic": bool(report.spectrally_generic),
        "max_pairing_distance": float(report.max_pairing_distance),
    }


def decode_spectrum_report(payload) -> SpectrumReport:
    return SpectrumReport(
        poles=np.array(
            [
                decode_complex_scalar(z, f"poles[{i}]")
                for i, z in enumerate(_require(payload, "poles", "spectrum_report"))
            ],
            dtype=complex,
        ),
        zeros=np.array(
            [
                decode_complex_scalar(z, f"zeros[{i}]")
                for i, z in enumerate(_require(payload, "zeros", "spectrum_report"))
            ],
            dtype=complex,
        ),
        mirror_symmetric=bool(_require(payload, "mirror_symmetric", "spectrum_report")),
        spectrally_generic=bool(
            _require(payload, "spectrally_generic", "spectrum_report")
        ),
        max_pairing_distance=float(
            _require(payload, "max_pairing_distance", "spectrum_report")
        ),
    )


def encode_synthesis_result(result: SynthesisResult) -> dict:
    return {
        "F": encode_real_matrix(result.F),
        "Rhat": encode_real_matrix(result.Rhat),
        "Sigma": encode_real_matrix(result.Sigma),
        "params": encode_pm_params(result.params),
        "equation_residuals": {
            k: float(v) for k, v in sorted(result.equation_residuals.items())
        },
        "reduced_from": result.reduced_from,
    }


def decode_synthesis_result(payload) -> SynthesisResult:
    reduced = _require(payload, "reduced_from", "synthesis_result")
    return SynthesisResult(
        F=decode_real_matrix(_require(payload, "F", "synthesis_result"), "F"),
        Rhat=decode_real_matrix(_require(payload, "Rhat", "synthesis_result"), "Rhat"),
        Sigma=decode_real_matrix(_require(payload, "Sigma", "synthesis_result"), "Sigma"),
        params=decode_pm_params(_require(payload, "params", "synthesis_result")),
        equation_residuals={
            str(k): float(v)
            for k, v in _require(payload, "equation_residuals", "synthesis_result").items()
        },
        reduced_from=None if reduced is None else int(reduced),
    )
