"""Physical realizability: frequency/time-domain checks and parameter synthesis.

A square real transfer matrix G(s) with feedthrough D = G(inf) is physically
realizable as an oscillator network exactly when

* G~(s) J G(s) = J for all s, where G~(s) is the adjoint of G at -conj(s), and
* D is orthogonal (which together with the first condition makes it
  orthosymplectic).

The frequency check samples the (J, J)-unitarity defect at pseudo-random
points away from the poles.  The time-domain check verifies the equivalent
parameter-level identities against a given commutation matrix Theta:

    (i)   D orthosymplectic,
    (ii)  A Theta + Theta A^T + B J B^T = 0,
    (iii) C = -D J B^T Theta^{-1},
    (iv)  A is reproduced by the energy matrix recovered from its
          Theta-symmetrized part (redundant given (ii), kept as a diagnostic).

Synthesis recovers oscillator parameters from a minimal realizable system: a
unique skew similarity F links the inverse realization to the adjoint of the
inverse realization; its inverse is a commutation matrix in disguise, and a
square-root change of coordinates moves it onto any requested Theta.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    NotRealizableError,
    SamplePlacementError,
    SingularMatrixError,
    StructureError,
)
from .forms import PmParams, build_pm_realization
from .skewfactor import relate_ccr
from .statespace import (
    StateSpace,
    controllability_matrix,
    evaluate,
    inverse_realization,
    is_minimal,
    minimal_realization,
    poles,
    spectrum_report,
)
from .structured import (
    StructureTolerance,
    j_matrix,
    orthogonality_residual,
    skew_symmetry_residual,
    symplectic_residual,
)

__all__ = [
    "PrReport",
    "JjUnitarityResult",
    "SynthesisResult",
    "draw_sample_points",
    "check_jj_unitary",
    "check_pr_frequency",
    "check_pr_time_domain",
    "compute_f",
    "compute_f_via_controllability",
    "synthesize",
    "pr_zero_pole_mirror",
]

# sampling magnitudes are log-uniform over this range of |s|
SAMPLE_MAGNITUDE_RANGE = (1e-2, 1e2)
# candidate points closer than this to a pole of G or G~ are redrawn
SAMPLE_EXCLUSION = 1e-6
# end-to-end tolerance for the synthesize rebuild verification
REBUILD_TOLERANCE = 1e-7


@dataclass
class JjUnitarityResult:
    passed: bool
    max_residual: float
    sample_points: list


@dataclass
class PrReport:
    """Verdict plus the residual evidence behind it.

    ``verdict`` is one of "PR", "not-PR", "inconclusive".  Frequency-domain
    reports fill ``jj_unitarity_max_residual`` and ``sample_points``;
    time-domain reports leave them empty and store their per-condition
    residuals in ``condition_residuals``.  The symplectic defect of D is
    reported alongside the orthogonality defect but the frequency verdict
    only requires orthogonality, the rest being implied.
    """

    verdict: str
    d_orthogonality_residual: float
    d_symplectic_residual: float
    jj_unitarity_max_residual: float | None
    sample_points: list
    failure_reason: str | None
    condition_residuals: dict = field(default_factory=dict)

    @property
    def is_pr(self) -> bool:
        return self.verdict == "PR"


@dataclass
class SynthesisResult:
    """Synthesized parameters plus the certificates produced along the way."""

    F: np.ndarray
    Rhat: np.ndarray
    Sigma: np.ndarray
    params: PmParams
    equation_residuals: dict
    reduced_from: int | None = None


def draw_sample_points(avoid, num_points: int, seed: int = 42,
                       exclusion: float = SAMPLE_EXCLUSION) -> list:
    """Pseudo-random complex evaluation points avoiding the given spectrum.

    Magnitudes are log-uniform over SAMPLE_MAGNITUDE_RANGE, phases uniform,
    and consecutive points are forced into alternating half-planes so both
    sides of the imaginary axis are always exercised.  Candidates within
    ``exclusion`` of any value in ``avoid`` are redrawn.
    """
    avoid = np.asarray(avoid, dtype=complex).ravel()
    rng = np.random.default_rng(seed)
    lo, hi = np.log10(SAMPLE_MAGNITUDE_RANGE[0]), np.log10(SAMPLE_MAGNITUDE_RANGE[1])
    points = []
    attempts = 0
    max_attempts = 200 * max(num_points, 1)
    while len(points) < num_points and attempts < max_attempts:
        attempts += 1
        radius = 10.0 ** rng.uniform(lo, hi)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        s = radius * np.exp(1j * angle)
        if len(points) % 2 == 0:
            s = complex(abs(s.real), s.imag)
        else:
            s = complex(-abs(s.real), s.imag)
        if avoid.size and np.min(np.abs(avoid - s)) < exclusion:
            continue
        points.append(s)
    if len(points) < num_points:
        raise SamplePlacementError(
            f"placed only {len(points)} of {num_points} sample points away from "
            "the spectrum"
        )
    return points


def check_jj_unitary(ss: StateSpace, num_samples: int = 20, tol: float = 1e-8,
                     seed: int = 42) -> JjUnitarityResult:
    """Sample the defect of G~(s) J G(s) = J (and its flip) at random points."""
    channels = ss.require_square_channels()
    j = j_matrix(channels)
    lam = poles(ss)
    avoid = np.concatenate([lam, -lam.conj()]) if lam.size else lam
    pts = draw_sample_points(avoid, num_samples, seed)
    g_stack = evaluate(ss, pts)
    g_conj_stack = evaluate(ss, -np.conj(pts)).conj().transpose(0, 2, 1)
    max_resid = 0.0
    for g, g_conj in zip(g_stack, g_conj_stack):
        r1 = np.linalg.norm(g_conj @ j @ g - j)
        r2 = np.linalg.norm(g @ j @ g_conj - j)
        max_resid = max(max_resid, float(r1), float(r2))
    return JjUnitarityResult(max_resid <= tol, max_resid, pts)


def check_pr_frequency(ss: StateSpace, tol: float = 1e-8, num_samples: int = 20,
                       seed: int = 42) -> PrReport:
    """Frequency-domain realizability verdict for a square even-channel system."""
    ss.require_square_channels()
    d_orth = orthogonality_residual(ss.D)
    d_symp = symplectic_residual(ss.D)
    conditions = {"d_orthogonality": d_orth, "d_symplectic": d_symp}
    try:
        jj = check_jj_unitary(ss, num_samples, tol, seed)
    except SamplePlacementError as exc:
        return PrReport(
            verdict="inconclusive",
            d_orthogonality_residual=d_orth,
            d_symplectic_residual=d_symp,
            jj_unitarity_max_residual=None,
            sample_points=[],
            failure_reason=str(exc),
            condition_residuals=conditions,
        )
    conditions["jj_unitarity"] = jj.max_residual
    failures = []
    if d_orth > tol:
        failures.append(f"feedthrough is not orthogonal (residual {d_orth:.3e})")
    if not jj.passed:
        failures.append(
            f"(J,J)-unitarity violated (max sampled residual {jj.max_residual:.3e})"
        )
    return PrReport(
        verdict="PR" if not failures else "not-PR",
        d_orthogonality_residual=d_orth,
        d_symplectic_residual=d_symp,
        jj_unitarity_max_residual=jj.max_residual,
        sample_points=jj.sample_points,
        failure_reason="; ".join(failures) if failures else None,
        condition_residuals=conditions,
    )


def check_pr_time_domain(ss: StateSpace, theta, tol: float = 1e-8) -> PrReport:
    """Parameter-level realizability verdict against a fixed commutation matrix."""
    channels = ss.require_square_channels()
    theta = np.asarray(theta, dtype=float)
    n2 = ss.state_dim
    if theta.shape != (n2, n2):
        raise DimensionError(
            f"Theta must be {n2}x{n2} to match the state, got {theta.shape}"
        )
    skew_resid = skew_symmetry_residual(theta) if n2 else 0.0
    if n2 and skew_resid > StructureTolerance.coerce(None).bound(np.linalg.norm(theta)):
        raise StructureError(
            f"Theta is not skew-symmetric (residual {skew_resid:.3e})",
            {"theta_skew_symmetry": skew_resid},
        )
    j = j_matrix(channels)
    d_orth = orthogonality_residual(ss.D)
    d_symp = symplectic_residual(ss.D)
    conditions = {"d_orthogonality": d_orth, "d_symplectic": d_symp}
    if n2:
        sv = np.linalg.svd(theta, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise SingularMatrixError("commutation matrix Theta is singular")
        theta_inv = np.linalg.inv(theta)
        bjbt = ss.B @ j @ ss.B.T
        ccr = float(np.linalg.norm(ss.A @ theta + theta @ ss.A.T + bjbt))
        coupling = float(np.linalg.norm(ss.C + ss.D @ j @ ss.B.T @ theta_inv))
        ta = theta_inv @ ss.A
        r_rec = 0.25 * (ta + ta.T)
        rebuilt_a = 2.0 * theta @ r_rec - 0.5 * bjbt @ theta_inv
        hamiltonian = float(np.linalg.norm(ss.A - rebuilt_a))
        conditions.update(
            {
                "ccr_preservation": ccr,
                "output_coupling": coupling,
                "hamiltonian_reconstruction": hamiltonian,
            }
        )
    failures = {
        k: v
        for k, v in conditions.items()
        if v > tol
    }
    reason = None
    if failures:
        worst = max(failures, key=failures.get)
        reason = (
            "time-domain conditions violated: "
            + ", ".join(f"{k} residual {v:.3e}" for k, v in sorted(failures.items()))
            + f"; dominant: {worst}"
        )
    return PrReport(
        verdict="PR" if not failures else "not-PR",
        d_orthogonality_residual=d_orth,
        d_symplectic_residual=d_symp,
        jj_unitarity_max_residual=None,
        sample_points=[],
        failure_reason=reason,
        condition_residuals=conditions,
    )


def _vec(mat: np.ndarray) -> np.ndarray:
    return mat.reshape(-1, order="F")


def _f_equation_residuals(ss: StateSpace, f: np.ndarray) -> dict:
    """Relative residuals of the three similarity equations plus diagnostics."""
    d_inv = np.linalg.inv(ss.D)
    b_dinv = ss.B @ d_inv
    dinv_c = d_inv @ ss.C
    a_inv = ss.A - b_dinv @ ss.C
    j = j_matrix(ss.num_outputs)

    def rel(x, scale):
        return float(np.linalg.norm(x) / max(1.0, scale))

    res = {
        "f_eq_output_coupling": rel(j @ ss.B.T @ f + dinv_c, np.linalg.norm(dinv_c)),
        "f_eq_input_coupling": rel(f @ b_dinv - ss.C.T @ j, np.linalg.norm(b_dinv)),
        "f_eq_state_similarity": rel(
            ss.A.T @ f + f @ a_inv, np.linalg.norm(ss.A) * max(1.0, np.linalg.norm(f))
        ),
        "f_eq_redundant_gram": rel(
            ss.A.T @ f.T + f.T @ ss.A + ss.C.T @ j @ ss.C,
            np.linalg.norm(ss.C) ** 2 + np.linalg.norm(ss.A) * max(1.0, np.linalg.norm(f)),
        ),
        "state_ccr_identity": rel(
            ss.A @ np.linalg.inv(f) + np.linalg.inv(f) @ ss.A.T + ss.B @ j @ ss.B.T,
            np.linalg.norm(ss.B) ** 2 + 1.0,
        ),
    }
    return res


def _solve_f(ss: StateSpace, tol: float = 1e-8):
    """Least-squares solve of the stacked similarity equations for F.

    Returns (raw solution, antisymmetrized F, diagnostics).  The three
    equations are linear in F:

        J B^T F = -D^{-1} C,   F B D^{-1} = C^T J,   A^T F + F (A - B D^{-1} C) = 0.

    For a minimal realizable system the joint solution is unique and skew;
    the raw asymmetry is recorded before it is removed.
    """
    n2 = ss.state_dim
    if n2 == 0:
        raise ValueError("no dynamics: a static system does not define F")
    channels = ss.require_square_channels()
    d_inv = np.linalg.inv(ss.D)
    b_dinv = ss.B @ d_inv
    dinv_c = d_inv @ ss.C
    a_inv = ss.A - b_dinv @ ss.C
    j = j_matrix(channels)
    eye = np.eye(n2)
    rows = [
        np.kron(eye, j @ ss.B.T),
        np.kron(b_dinv.T, eye),
        np.kron(eye, ss.A.T) + np.kron(a_inv.T, eye),
    ]
    rhs = [
        _vec(-dinv_c),
        _vec(ss.C.T @ j),
        np.zeros(n2 * n2),
    ]
    system = np.vstack(rows)
    target = np.concatenate(rhs)
    solution, *_ = np.linalg.lstsq(system, target, rcond=None)
    f_raw = solution.reshape((n2, n2), order="F")
    asym = float(np.linalg.norm(f_raw + f_raw.T) / max(1.0, np.linalg.norm(f_raw)))
    f = 0.5 * (f_raw - f_raw.T)
    sv = np.linalg.svd(f, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise SingularMatrixError(
            "similarity matrix F is singular; system is not a realizable "
            "minimal candidate"
        )
    diagnostics = _f_equation_residuals(ss, f)
    diagnostics["f_raw_asymmetry"] = asym
    worst = max(
        diagnostics[k]
        for k in ("f_eq_output_coupling", "f_eq_input_coupling", "f_eq_state_similarity")
    )
    if worst > tol:
        raise NotRealizableError(
            f"no skew similarity solves the realizability equations "
            f"(worst residual {worst:.3e}); the system is not realizable or "
            "not minimal"
        )
    return f_raw, f, diagnostics


def compute_f(ss: StateSpace, tol: float = 1e-8) -> np.ndarray:
    """Unique skew similarity certificate of a minimal realizable system.

    Raises ValueError for static systems, NotRealizableError when the stacked
    equations admit no solution within ``tol``, SingularMatrixError when the
    solution is numerically singular.
    """
    _, f, _ = _solve_f(ss, tol)
    return f


def compute_f_via_controllability(ss: StateSpace) -> np.ndarray:
    """Cross-check route for F: match the controllability matrices directly.

    The similarity aligning the inverse realization with the adjoint of the
    inverse realization is C2 pinv(C1), with C1, C2 the controllability
    matrices of the two sides.  Exists (uniquely) when the input is minimal.
    """
    n2 = ss.state_dim
    if n2 == 0:
        raise ValueError("no dynamics: a static system does not define F")
    channels = ss.require_square_channels()
    d_inv = np.linalg.inv(ss.D)
    b_dinv = ss.B @ d_inv
    a_inv = ss.A - b_dinv @ ss.C
    j = j_matrix(channels)
    c1 = controllability_matrix(a_inv, b_dinv)
    c2 = controllability_matrix(-ss.A.T, ss.C.T @ j)
    return c2 @ np.linalg.pinv(c1)


def synthesize(ss: StateSpace, theta_target=None, tol: float = 1e-8,
               num_samples: int = 20, seed: int = 42) -> SynthesisResult:
    """Recover oscillator parameters realizing the given transfer function.

    The input is reduced to a minimal realization first when needed (the
    original state dimension is recorded in ``reduced_from``).  The system
    must pass the frequency-domain check; otherwise NotRealizableError carries
    the failing report.  ``theta_target`` selects the commutation matrix of
    the synthesized parameters (default: the canonical J of matching size).

    The rebuilt realization is verified internally: its transfer function must
    match the input within REBUILD_TOLERANCE at fresh sample points and the
    time-domain check must pass on it.
    """
    original_dim = ss.state_dim
    work = ss
    if not is_minimal(work):
        work = minimal_realization(work)
    reduced_from = original_dim if work.state_dim != original_dim else None
    freq = check_pr_frequency(work, tol, num_samples, seed)
    if freq.verdict != "PR":
        raise NotRealizableError(
            f"system is not physically realizable: {freq.failure_reason}",
            report=freq,
        )
    n2 = work.state_dim
    channels = work.num_outputs
    if theta_target is None:
        theta_target = j_matrix(n2) if n2 else np.zeros((0, 0))
    theta_target = np.asarray(theta_target, dtype=float)
    if theta_target.shape != (n2, n2):
        raise DimensionError(
            f"theta_target must be {n2}x{n2} to match the minimal state, "
            f"got {theta_target.shape}"
        )

    if n2 == 0:
        params = PmParams(
            work.D.copy(),
            np.zeros((channels, 0)),
            np.zeros((0, 0)),
            np.zeros((0, 0)),
        )
        residuals = {
            "f_raw_asymmetry": 0.0,
            "rhat_symmetry": 0.0,
            "ccr_factorization": 0.0,
            "rebuild_max_relative_deviation": 0.0,
        }
        return SynthesisResult(
            F=np.zeros((0, 0)),
            Rhat=np.zeros((0, 0)),
            Sigma=np.zeros((0, 0)),
            params=params,
            equation_residuals=residuals,
            reduced_from=reduced_from,
        )

    _, f, diagnostics = _solve_f(work, tol)
    f_inv = np.linalg.inv(f)
    j = j_matrix(channels)
    rhat_raw = 0.5 * f @ (work.A @ f_inv + 0.5 * work.B @ j @ work.B.T) @ f
    rhat_sym = float(
        np.linalg.norm(rhat_raw - rhat_raw.T) / max(1.0, np.linalg.norm(rhat_raw))
    )
    rhat = 0.5 * (rhat_raw + rhat_raw.T)
    sigma = relate_ccr(f_inv, theta_target)
    fact_resid = float(
        np.linalg.norm(sigma @ theta_target @ sigma.T - f_inv)
        / max(np.linalg.norm(f_inv), np.finfo(float).tiny)
    )
    sigma_inv_t = np.linalg.inv(sigma).T
    theta_inv = np.linalg.inv(theta_target)
    m_mat = -0.5 * work.B.T @ sigma_inv_t @ theta_inv
    r_mat = sigma.T @ rhat @ sigma
    params = PmParams(work.D.copy(), m_mat, r_mat, theta_target)

    rebuilt = build_pm_realization(params)
    avoid = np.concatenate([poles(work), poles(rebuilt)])
    avoid = np.concatenate([avoid, -avoid.conj()])
    pts = draw_sample_points(avoid, num_samples, seed)
    max_dev = 0.0
    for ref, got in zip(evaluate(work, pts), evaluate(rebuilt, pts)):
        max_dev = max(
            max_dev, float(np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref)))
        )
    residuals = dict(diagnostics)
    residuals["rhat_symmetry"] = rhat_sym
    residuals["ccr_factorization"] = fact_resid
    residuals["rebuild_max_relative_deviation"] = max_dev
    if max_dev > REBUILD_TOLERANCE:
        raise NotRealizableError(
            f"internal verification failed: rebuilt transfer function deviates "
            f"by {max_dev:.3e}"
        )
    td = check_pr_time_domain(rebuilt, theta_target, tol=REBUILD_TOLERANCE)
    if td.verdict != "PR":
        raise NotRealizableError(
            f"internal verification failed: rebuilt system fails the "
            f"time-domain check ({td.failure_reason})",
            report=td,
        )
    return SynthesisResult(
        F=f,
        Rhat=rhat,
        Sigma=sigma,
        params=params,
        equation_residuals=residuals,
        reduced_from=reduced_from,
    )


def pr_zero_pole_mirror(ss: StateSpace, pairing_tol: float = 1e-6) -> bool:
    """Mirror test: transmission zeros match poles reflected through iR."""
    return spectrum_report(ss, pairing_tol).mirror_symmetric
