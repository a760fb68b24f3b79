"""Embedded four-channel reference model with known parameters and spectrum.

The transfer matrix is diag((s+1)/s, (s-1)/(s+1), s/(s-1), (s-1)/(s+1)): an
all-pass-like diagonal with a pole at the origin, a repeated pole at -1 and an
unstable pole at +1.  Its oscillator parameters are known in closed form, so
the module doubles as a golden fixture and as the payload of the ``example``
CLI command.
"""

import numpy as np

from .forms import AcParams, PmParams, build_pm_realization, pm_to_ac
from .realizability import check_pr_frequency, synthesize
from .statespace import (
    RationalEntry,
    StateSpace,
    block_diag,
    evaluate,
    siso_realization,
    spectrum_report,
)
from .structured import j_matrix

__all__ = [
    "EXAMPLE_POLES",
    "EXAMPLE_ZEROS",
    "example_rational_entries",
    "example_state_space",
    "example_pm_params",
    "example_ac_params",
    "run_worked_example",
]

EXAMPLE_POLES = np.array([0.0, -1.0, 1.0, -1.0], dtype=complex)
EXAMPLE_ZEROS = np.array([0.0, 1.0, -1.0, 1.0], dtype=complex)


def example_rational_entries() -> list:
    return [
        RationalEntry((1.0, 1.0), (1.0, 0.0)),
        RationalEntry((1.0, -1.0), (1.0, 1.0)),
        RationalEntry((1.0, 0.0), (1.0, -1.0)),
        RationalEntry((1.0, -1.0), (1.0, 1.0)),
    ]


def example_state_space() -> StateSpace:
    """Minimal diagonal realization: A = diag(0,-1,1,-1), B = I, C = diag(1,-2,1,-2)."""
    return block_diag([siso_realization(e) for e in example_rational_entries()])


def example_pm_params() -> PmParams:
    """Known position-momentum parameters reproducing the diagonal transfer matrix."""
    d = np.eye(4)
    m = np.array(
        [
            [-0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.5, 0.0],
            [0.0, -0.5, 0.0, 0.0],
        ]
    )
    r = np.array(
        [
            [0.0, 0.0, 0.25, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.25, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    return PmParams(d, m, r, j_matrix(4))


def example_ac_params() -> AcParams:
    """The annihilation-creation form of :func:`example_pm_params`."""
    return AcParams(
        S=np.eye(2, dtype=complex),
        N1=np.array([[0.0, 0.0], [0.0, -1.5]], dtype=complex),
        N2=np.array([[1.0j, 0.0], [0.0, 0.5]], dtype=complex),
        H1=np.zeros((2, 2), dtype=complex),
        H2=np.array([[0.5j, 0.0], [0.0, 0.0]], dtype=complex),
        E1=np.eye(2, dtype=complex),
        E2=np.zeros((2, 2), dtype=complex),
    )


def _fmt_spectrum(values) -> str:
    parts = []
    for z in sorted(np.asarray(values, dtype=complex), key=lambda w: (w.real, w.imag)):
        re, im = z.real + 0.0, z.imag + 0.0
        if abs(im) < 1e-12:
            parts.append(f"{re:g}")
        else:
            parts.append(f"{re:g}{im:+g}i")
    return ", ".join(parts)


def run_worked_example(tol: float = 1e-8, num_samples: int = 20, seed: int = 42):
    """Full pipeline on the reference model.

    Returns (lines, payload): human-readable summary lines and a JSON-ready
    payload holding the check report, spectrum, synthesis output and the
    deviations of every derived quantity from its known value.
    """
    from . import jsonio

    entries = example_rational_entries()
    ss = example_state_space()
    pm = example_pm_params()
    ac = example_ac_params()

    report = check_pr_frequency(ss, tol=tol, num_samples=num_samples, seed=seed)
    spectrum = spectrum_report(ss)
    syn = synthesize(ss, theta_target=j_matrix(4), tol=tol,
                     num_samples=num_samples, seed=seed)

    # known parameters rebuild the transfer matrix
    built = build_pm_realization(pm)
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < 10:
        s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if np.min(np.abs(EXAMPLE_POLES - s)) >= 1e-3:
            pts.append(s)
    direct_dev = 0.0
    for s, got in zip(pts, evaluate(built, pts)):
        ref = np.diag([e(s) for e in entries])
        direct_dev = max(
            direct_dev,
            float(np.abs(got - ref).max() / max(1.0, np.abs(ref).max())),
        )

    converted = pm_to_ac(pm)
    deviations = {
        "built_vs_rational_max_relative": direct_dev,
        "converted_S_vs_known": float(np.abs(converted.S - ac.S).max()),
        "converted_N1_vs_known": float(np.abs(converted.N1 - ac.N1).max()),
        "converted_N2_vs_known": float(np.abs(converted.N2 - ac.N2).max()),
        "converted_H1_vs_known": float(np.abs(converted.H1 - ac.H1).max()),
        "converted_H2_vs_known": float(np.abs(converted.H2 - ac.H2).max()),
        "synthesized_D_vs_known": float(np.abs(syn.params.D - pm.D).max()),
        "synthesis_rebuild_max_relative": float(
            syn.equation_residuals["rebuild_max_relative_deviation"]
        ),
        "pole_pairing_distance": float(
            spectrum.max_pairing_distance if spectrum.mirror_symmetric else np.inf
        ),
    }

    lines = [
        f"verdict: {report.verdict} "
        f"(max (J,J)-unitarity residual {report.jj_unitarity_max_residual:.3e} "
        f"at {num_samples} samples)",
        f"feedthrough orthogonality residual: {report.d_orthogonality_residual:.3e}",
        f"poles: {_fmt_spectrum(spectrum.poles)}",
        f"zeros: {_fmt_spectrum(spectrum.zeros)}",
        f"mirror-symmetric: {'yes' if spectrum.mirror_symmetric else 'no'}; "
        f"spectrally generic: {'yes' if spectrum.spectrally_generic else 'no'}",
        f"known parameters rebuild the transfer matrix: "
        f"max relative deviation {direct_dev:.3e} at 10 points",
        f"converted scattering/coupling/energy deviations from known values: "
        f"S {deviations['converted_S_vs_known']:.3e}, "
        f"N ({deviations['converted_N1_vs_known']:.3e}, "
        f"{deviations['converted_N2_vs_known']:.3e}), "
        f"H ({deviations['converted_H1_vs_known']:.3e}, "
        f"{deviations['converted_H2_vs_known']:.3e})",
        f"synthesized feedthrough deviation from known D: "
        f"{deviations['synthesized_D_vs_known']:.3e}",
        f"synthesis rebuild max relative deviation: "
        f"{deviations['synthesis_rebuild_max_relative']:.3e}",
    ]

    payload = {
        "check": jsonio.encode_pr_report(report),
        "spectrum": jsonio.encode_spectrum_report(spectrum),
        "synthesis": jsonio.encode_synthesis_result(syn),
        "pm_params": jsonio.encode_pm_params(pm),
        "ac_params": jsonio.encode_ac_params(ac),
        "deviations": deviations,
    }
    return lines, payload
