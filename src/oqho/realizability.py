"""Physical realizability: frequency/time-domain checks and parameter synthesis.

A square real transfer matrix G(s) with feedthrough D = G(inf) is physically
realizable as an oscillator network exactly when

* G~(s) J G(s) = J for all s, where G~(s) is the adjoint of G at -conj(s), and
* D is orthogonal (which together with the first condition makes it
  orthosymplectic).

The frequency check samples the (J, J)-unitarity defect at pseudo-random
points away from the poles.  One eigendecomposition A = V L V^{-1} places the
points, guards them, and gives G and G~ at every one of them in modal form
(see ``statespace.evaluate``); synthesis hands the same eigensystem to the
first pass of its F solve.  The time-domain check verifies the equivalent
parameter-level identities against a given commutation matrix Theta:

    (i)   D orthosymplectic,
    (ii)  A Theta + Theta A^T + B J B^T = 0,
    (iii) C = -D J B^T Theta^{-1},
    (iv)  A is reproduced by the energy matrix recovered from its
          Theta-symmetrized part (redundant given (ii), kept as a diagnostic).

Synthesis recovers oscillator parameters from a minimal realizable system: a
unique skew similarity F links the inverse realization to the adjoint of the
inverse realization; its inverse is a commutation matrix in disguise, and a
square-root change of coordinates moves it onto any requested Theta.  F
solves A^T F + F A = C^T J C, computed in the eigen-coordinates of A, O(n^3)
(the idea of Bartels and Stewart, CACM 15(9), 1972).  Pole pairs with
l_i + l_j = 0, such as the reference model's, are pinned by the coupling
equation F B D^{-1} = C^T J; a defective eigenbasis is solved once more on
the same equation under state feedback.  Every candidate must pass the
residual gate of the three similarity equations.  The synthesized realization
is verified by mapping it back through its change of coordinates Sigma onto
the input realization: a state-space similarity has the same transfer
function at every s (Zhou, Doyle and Glover, Robust and Optimal Control,
1996, ch. 3), so no second set of sample points is drawn.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionError,
    NotRealizableError,
    SamplePlacementError,
    SingularMatrixError,
)
from .forms import PmParams, build_pm_realization
from .skewfactor import relate_ccr
from .statespace import (
    StateSpace,
    _eigensystem,
    _evaluate_quadruple,
    inverse_realization,
    minimal_realization,
)
from .structured import (
    _min_singular_ratio,
    _require_nonsingular,
    _require_structure,
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
    "synthesize",
]

# sampling magnitudes are log-uniform over this range of |s|
SAMPLE_MAGNITUDE_RANGE = (1e-2, 1e2)
# candidate points closer than this to a pole of G or G~ are redrawn
SAMPLE_EXCLUSION = 1e-6
# default residual tolerance of every verdict: the checks, the F gate, the CLI
VERDICT_TOLERANCE = 1e-8
# end-to-end tolerance for the synthesize rebuild verification
REBUILD_TOLERANCE = 1e-7
# |l_i + l_j| <= DEGENERATE_PAIR_CUTOFF * max|l| marks a degenerate pole pair of
# the F solve: dividing by l_i + l_j amplifies rounding by 1/|l_i + l_j|, and
# above the cutoff that error stays far below VERDICT_TOLERANCE
DEGENERATE_PAIR_CUTOFF = 1e-6


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


def _violations(residuals: dict, tol: float) -> str | None:
    """The verdict rule: the residuals above ``tol``, worded, or None when
    every one is within it; a NaN residual is never within it, and it is the
    dominant failure."""
    failures = {k: v for k, v in residuals.items() if not v <= tol}
    if not failures:
        return None
    # a NaN failure dominates: max would compare only the finite values
    worst = max(failures, key=lambda k: (np.isnan(failures[k]), failures[k]))
    return (", ".join(f"{k} residual {v:.3e}" for k, v in sorted(failures.items()))
            + f"; dominant: {worst}")


def _report(domain: str, conditions: dict, gated, tol: float,
            jj: JjUnitarityResult | None = None) -> PrReport:
    """Report of a check whose ``gated`` conditions decide its verdict;
    ``conditions`` holds the D residuals, ``jj`` the sampled (J,J) defect."""
    reason = _violations({k: conditions[k] for k in gated}, tol)
    if reason is not None:
        reason = f"{domain}-domain conditions violated: {reason}"
    return PrReport(
        verdict="PR" if reason is None else "not-PR",
        d_orthogonality_residual=conditions["d_orthogonality"],
        d_symplectic_residual=conditions["d_symplectic"],
        jj_unitarity_max_residual=None if jj is None else jj.max_residual,
        sample_points=[] if jj is None else jj.sample_points,
        failure_reason=reason,
        condition_residuals=conditions,
    )


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a C-contiguous complex stack, bit for bit.

    np.linalg.norm adds two strided dot products, of the real parts and of the
    imaginary parts; a (1, m) @ (m, 1) matmul per matrix makes the same calls.
    """
    k, size = stack.shape[0], stack.shape[1] * stack.shape[2]
    re = stack.real.reshape(k, 1, size)
    im = stack.imag.reshape(k, 1, size)
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq.reshape(k))


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
        # Candidates come in batches, at least as large as the attempts made
        # so far; each takes the two doubles that uniform(lo, hi) and
        # uniform(0, 2 pi) would, in the same order.
        batch = min(max(num_points - len(points), attempts), max_attempts - attempts)
        attempts += batch
        u = rng.random((batch, 2))
        # scalar pow: np.power differs from it in the last bit on some draws
        radius = np.array([10.0 ** x for x in (lo + (hi - lo) * u[:, 0]).tolist()])
        s = radius * np.exp(1j * (2.0 * np.pi * u[:, 1]))
        # both half-plane variants of each candidate: right in column 0, left in 1
        cand = np.empty((batch, 2), dtype=complex)
        cand.real = np.abs(s.real)[:, None] * [1.0, -1.0]
        cand.imag = s.imag[:, None]
        clear = ~(np.abs(cand[:, :, None] - avoid) < exclusion).any(axis=2)
        side, rows, sides = len(points) % 2, [], []
        for i, ok in enumerate(clear.tolist()):
            if ok[side]:
                rows.append(i)
                sides.append(side)
                side = 1 - side
                if len(points) + len(rows) == num_points:
                    break
        points += cand[rows, sides].tolist()
    if len(points) < num_points:
        raise SamplePlacementError(
            f"placed only {len(points)} of {num_points} sample points away from "
            "the spectrum"
        )
    return points


def check_jj_unitary(ss: StateSpace, num_samples: int = 20,
                     seed: int = 42) -> JjUnitarityResult:
    """Sample the defect of G~(s) J G(s) = J (and its flip) at random points;
    it passes within VERDICT_TOLERANCE."""
    ss.require_square_channels()
    return _sample_jj_defect(ss, _eigensystem(ss.A), num_samples, seed)


def _sample_jj_defect(ss: StateSpace, spectrum: tuple, num_samples: int,
                      seed: int) -> JjUnitarityResult:
    """check_jj_unitary of a square-channel system whose ``_eigensystem`` is known."""
    j = j_matrix(ss.num_outputs)
    lam = spectrum[0]
    avoid = np.concatenate([lam, -lam.conj()])
    pts = draw_sample_points(avoid, num_samples, seed)
    # SAMPLE_EXCLUSION > RESOLVENT_GUARD * (1 + |s|): no point trips the G or G~ guard
    g = _evaluate_quadruple(ss.A, ss.B, ss.C, ss.D, pts, spectrum)
    g_conj = _evaluate_quadruple(ss.A, ss.B, ss.C, ss.D, -np.conj(pts), spectrum)
    g_conj = g_conj.conj().transpose(0, 2, 1)
    defects = np.concatenate(
        [_frobenius_norms(g_conj @ j @ g - j), _frobenius_norms(g @ j @ g_conj - j)]
    )
    max_resid = float(np.max(defects, initial=0.0))
    passed = _violations({"jj_unitarity": max_resid}, VERDICT_TOLERANCE) is None
    return JjUnitarityResult(passed, max_resid, pts)


def check_pr_frequency(ss: StateSpace, tol: float = VERDICT_TOLERANCE,
                       num_samples: int = 20, seed: int = 42) -> PrReport:
    """Frequency-domain realizability verdict for a square even-channel system."""
    return _check_pr_frequency(ss, tol, num_samples, seed)[0]


def _check_pr_frequency(ss: StateSpace, tol: float, num_samples: int,
                        seed: int) -> tuple:
    """(check_pr_frequency report, ``_eigensystem`` of ``ss.A``): synthesize
    reuses the eigensystem for the first pass of its F solve."""
    ss.require_square_channels()
    spectrum = _eigensystem(ss.A)
    conditions = {"d_orthogonality": orthogonality_residual(ss.D),
                  "d_symplectic": symplectic_residual(ss.D)}
    try:
        jj = _sample_jj_defect(ss, spectrum, num_samples, seed)
    except SamplePlacementError as exc:  # the D residuals, and no verdict
        report = replace(_report("frequency", conditions, (), tol),
                         verdict="inconclusive", failure_reason=str(exc))
        return report, spectrum
    conditions["jj_unitarity"] = jj.max_residual
    # D symplectic is reported, not gated: (J,J)-unitarity implies it
    report = _report("frequency", conditions, ("d_orthogonality", "jj_unitarity"), tol, jj)
    return report, spectrum


def check_pr_time_domain(ss: StateSpace, theta,
                         tol: float = VERDICT_TOLERANCE) -> PrReport:
    """Parameter-level realizability verdict against a fixed commutation matrix."""
    channels = ss.require_square_channels()
    theta = np.asarray(theta, dtype=float)
    n2 = ss.state_dim
    if theta.shape != (n2, n2):
        raise DimensionError(
            f"Theta must be {n2}x{n2} to match the state, got {theta.shape}"
        )
    _require_structure("commutation matrix Theta",
                       {"theta_skew_symmetry": skew_symmetry_residual(theta)},
                       {"theta_skew_symmetry": theta})
    j = j_matrix(channels)
    conditions = {"d_orthogonality": orthogonality_residual(ss.D),
                  "d_symplectic": symplectic_residual(ss.D)}
    if n2:  # a static report carries the D conditions only
        _require_nonsingular(_min_singular_ratio(theta), "commutation matrix Theta")
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
    return _report("time", conditions, conditions, tol)


def _lyapunov_f(spectrum: tuple, q: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Solve A^T F + F A = Q with F G = H in the eigen-coordinates of A.

    ``spectrum`` is the ``_eigensystem`` (L, V, V^{-1}) of A.  With
    A = V L V^{-1} and Y = V^T F V, (l_i + l_j) Y_ij = (V^T Q V)_ij.  The
    entries of degenerate pairs are pinned by Y V^{-1} G = V^T H, one least-
    squares solve for all the rows that pin the same columns.  Raises
    LinAlgError when the eigenvector basis is singular.
    """
    lam, v, w = spectrum
    if w is None:
        raise np.linalg.LinAlgError("Singular matrix")
    gap = lam[:, None] + lam[None, :]
    pinned = np.abs(gap) <= DEGENERATE_PAIR_CUTOFF * np.abs(lam).max()
    y = (v.T @ q @ v) / np.where(pinned, 1.0, gap)
    if pinned.any():
        wg, vh = w @ g, v.T @ h
        rows = np.flatnonzero(pinned.any(axis=1))
        patterns, group = np.unique(pinned[rows], axis=0, return_inverse=True)
        for p, k in enumerate(patterns):
            r = rows[group == p]
            rhs = vh[r] - y[np.ix_(r, ~k)] @ wg[~k]
            y[np.ix_(r, k)] = np.linalg.lstsq(wg[k].T, rhs.T, rcond=None)[0].T
    return (w.T @ y @ w).real


def _f_equation_residuals(ss: StateSpace, j, b_dinv, dinv_c, a_inv,
                          f: np.ndarray, f_inv: np.ndarray) -> dict:
    """Relative residuals of the three similarity equations plus diagnostics."""

    def rel(x, scale):
        return float(np.linalg.norm(x) / max(1.0, scale))

    return {
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
            ss.A @ f_inv + f_inv @ ss.A.T + ss.B @ j @ ss.B.T,
            np.linalg.norm(ss.B) ** 2 + 1.0,
        ),
    }


def _solve_f(ss: StateSpace, tol: float, spectrum: tuple | None = None):
    """Solve the similarity equations for the skew certificate F.

    Returns (F, F^{-1}, diagnostics); ``spectrum``, when given, is the
    ``_eigensystem`` of ``ss.A``, and the first pass does not decompose A
    again.  The three equations are linear in F:

        J B^T F = -D^{-1} C,   F B D^{-1} = C^T J,   A^T F + F (A - B D^{-1} C) = 0.

    Substituting the second into the third gives the Lyapunov equation
    A^T F + F A = C^T J C, which _lyapunov_f solves in the eigen-coordinates
    of A, O(n^3), pinning the entries of degenerate pole pairs by the second
    equation.  A candidate is accepted only through the gate below: a
    numerically nonsingular skew part and all three residuals within ``tol``.
    When the eigenvector basis is singular or the candidate fails the gate (a
    defective basis, or an unrealizable system), the same solve runs once more
    on the equivalent equation under state feedback, and that candidate must
    pass the gate; with B = 0 there is no feedback, and the first pass's error
    stands.  The raw asymmetry of the solution is recorded before it
    is removed.
    """
    if ss.state_dim == 0:
        raise ValueError("no dynamics: a static system does not define F")
    channels = ss.require_square_channels()
    inv = inverse_realization(ss)  # refuses a singular D
    b_dinv, dinv_c, a_inv = inv.B, -inv.C, inv.A
    j = j_matrix(channels)

    def gate(f_raw):
        """(F, F^{-1}, diagnostics) of an accepted solution; raises otherwise."""
        asym = float(np.linalg.norm(f_raw + f_raw.T) / max(1.0, np.linalg.norm(f_raw)))
        f = 0.5 * (f_raw - f_raw.T)
        _require_nonsingular(_min_singular_ratio(f), "similarity matrix F")
        f_inv = np.linalg.inv(f)
        diagnostics = _f_equation_residuals(ss, j, b_dinv, dinv_c, a_inv, f, f_inv)
        diagnostics["f_raw_asymmetry"] = asym
        reason = _violations({k: diagnostics[k] for k in ("f_eq_output_coupling",
                              "f_eq_input_coupling", "f_eq_state_similarity")}, tol)
        if reason:
            raise NotRealizableError(
                f"no skew similarity solves the realizability equations "
                f"({reason}); the system is not realizable or not minimal"
            )
        return f, f_inv, diagnostics

    ctj = ss.C.T @ j
    q = ctj @ ss.C
    try:
        if spectrum is None:
            spectrum = _eigensystem(ss.A)
        return gate(_lyapunov_f(spectrum, q, b_dinv, ctj))
    except (np.linalg.LinAlgError, SingularMatrixError, NotRealizableError):
        if not ss.B.any():  # the feedback shift below divides by |B|^2
            raise
    # Feedback K moves the poles of a controllable pair and so splits a
    # defective eigenbasis (Wonham, IEEE TAC 12(6), 1967).  As B^T F = J D^{-1} C
    # and F B = C^T J D, F solves (A + BK)^T F + F (A + BK) = C^T J C
    # + K^T J D^{-1} C + C^T J D K.  K = -t (I + J) B^T, t = |A| / |B|^2: under
    # K = -t B^T alone an isotropically coupled mode keeps its Jordan block.
    k = -np.linalg.norm(ss.A) / np.linalg.norm(ss.B) ** 2 * (np.eye(len(j)) + j) @ ss.B.T
    q_shift = q + k.T @ j @ dinv_c + ctj @ ss.D @ k
    return gate(_lyapunov_f(_eigensystem(ss.A + ss.B @ k), q_shift, b_dinv, ctj))


def compute_f(ss: StateSpace) -> np.ndarray:
    """Unique skew similarity certificate of a minimal realizable system.

    Raises ValueError for static systems, NotRealizableError when no solution
    of the similarity equations holds within VERDICT_TOLERANCE,
    SingularMatrixError when D or the solution is singular to working
    precision, and LinAlgError when an eigendecomposition fails or both
    eigenvector bases are singular.
    """
    f, _, _ = _solve_f(ss, VERDICT_TOLERANCE)
    return f


def synthesize(ss: StateSpace, theta_target=None, tol: float = VERDICT_TOLERANCE,
               num_samples: int = 20, seed: int = 42) -> SynthesisResult:
    """Recover oscillator parameters realizing the given transfer function.

    The input is reduced to a minimal realization first when needed (the
    original state dimension is recorded in ``reduced_from``).  The system
    must pass the frequency-domain check; otherwise NotRealizableError carries
    the failing report.  ``theta_target`` selects the commutation matrix of
    the synthesized parameters (default: the canonical J of matching size).

    The rebuilt realization is verified internally.  It is a similarity of
    the (minimal) input under ``Sigma``, so mapped back through ``Sigma`` its
    A, B and C must each match the input's within REBUILD_TOLERANCE, relative
    to the input's Frobenius norm; that bounds the transfer deviation at
    every s, to first order.  The time-domain conditions against
    ``theta_target`` hold identically for every realization the builder
    makes from valid parameters, so they are not checked again.
    """
    work = minimal_realization(ss)
    reduced_from = None if work is ss else ss.state_dim
    freq, spectrum_work = _check_pr_frequency(work, tol, num_samples, seed)
    if freq.verdict != "PR":
        raise NotRealizableError(
            f"system is not physically realizable: {freq.failure_reason}",
            report=freq,
        )
    n2 = work.state_dim
    channels = work.num_outputs
    if theta_target is None:
        theta_target = j_matrix(n2)
    theta_target = np.asarray(theta_target, dtype=float)
    if theta_target.shape != (n2, n2):
        raise DimensionError(
            f"theta_target must be {n2}x{n2} to match the minimal state, "
            f"got {theta_target.shape}"
        )

    if n2 == 0:  # G = D: the parameters are D alone, and they rebuild G exactly
        empty = np.zeros((0, 0))
        params = PmParams(work.D.copy(), np.zeros((channels, 0)), empty, empty)
        residuals = dict.fromkeys(("f_raw_asymmetry", "rhat_symmetry", "ccr_factorization",
                                   "rebuild_max_relative_deviation"), 0.0)
        return SynthesisResult(F=empty, Rhat=empty, Sigma=empty, params=params,
                               equation_residuals=residuals, reduced_from=reduced_from)

    f, f_inv, diagnostics = _solve_f(work, tol, spectrum_work)
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
    sigma_inv = np.linalg.inv(sigma)
    # Theta^{-1} = Sigma^T F Sigma, as Sigma Theta Sigma^T = F^{-1}
    m_mat = -0.5 * work.B.T @ f @ sigma
    r_mat = sigma.T @ rhat @ sigma
    params = PmParams(work.D.copy(), m_mat, r_mat, theta_target)

    # the rebuilt system is (sigma^-1 A sigma, sigma^-1 B, C sigma, D) of ``work``
    rebuilt = build_pm_realization(params)

    def rel(x, ref):
        return float(np.linalg.norm(x - ref) / max(1.0, np.linalg.norm(ref)))

    # np.max, unlike max, keeps a NaN residual
    max_dev = float(np.max([rel(sigma @ rebuilt.A @ sigma_inv, work.A),
                            rel(sigma @ rebuilt.B, work.B),
                            rel(rebuilt.C @ sigma_inv, work.C)]))
    residuals = dict(diagnostics)
    residuals["rhat_symmetry"] = rhat_sym
    residuals["ccr_factorization"] = fact_resid
    residuals["rebuild_max_relative_deviation"] = max_dev
    deviation = _violations({"rebuild_max_relative_deviation": max_dev},
                            REBUILD_TOLERANCE)
    if deviation:
        raise NotRealizableError(
            f"internal verification failed: rebuilt transfer function deviates "
            f"({deviation})"
        )
    return SynthesisResult(
        F=f,
        Rhat=rhat,
        Sigma=sigma,
        params=params,
        equation_residuals=residuals,
        reduced_from=reduced_from,
    )
