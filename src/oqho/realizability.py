"""Physical realizability: frequency/time-domain checks and parameter synthesis.

A square real transfer matrix G(s) with feedthrough D = G(inf) is physically
realizable as an oscillator network exactly when

* G~(s) J G(s) = J for all s, where G~(s) is the adjoint of G at -conj(s), and
* D is orthogonal (which together with the first condition makes it
  orthosymplectic).

The frequency check samples the (J, J)-unitarity defect at pseudo-random
points away from the poles.  One eigendecomposition A = V L V^{-1} places the
points, guards them, and gives G and G~ at every one of them in modal form
(see ``statespace.evaluate``); the F solve in synthesis, which picks its pass
from it, and a spectrum report of the same A, take it from the memo of
``statespace._eigensystem`` rather than decompose A again.  With no defect to
decide on (no sample point, or a defect that is not finite in double
precision) D decides alone: not-PR when it is not orthogonal, otherwise
inconclusive.  The time-domain check verifies the equivalent
parameter-level identities against a given commutation matrix Theta (James,
Nurdin and Petersen, IEEE TAC 53(8), 2008), each residual relative:

    (i)   D orthosymplectic,
    (ii)  A Theta + Theta A^T + B J B^T = 0,
    (iii) C = -D J B^T Theta^{-1},
    (iv)  A is reproduced by the energy matrix recovered from its
          Theta-symmetrized part: (ii) in units of A, whatever the scale of Theta.

Synthesis recovers oscillator parameters from a minimal realizable system: a
unique skew similarity F links the inverse realization to the adjoint of the
inverse realization; its inverse is a commutation matrix in disguise, and a
square-root change of coordinates moves it onto any requested Theta.  By the
state-space isomorphism theorem such an F exists exactly when G~ J G = J, so
F is a certificate of realizability: synthesis decides by it, with no sample
point, and runs the frequency check only to explain a refusal.  F needs no
minimal input to accept: a spectrally generic input is certified as given
and reduced only on a refusal, since in a physical realization controllable
and observable coincide (Gough and Zhang, Automatica 59, 2015), so its
hidden poles come in mirrored pairs; an input with a mirrored pair is
reduced first, as the raw solve may accept a hidden closed pair.  F
solves A^T F + F A = C^T J C, computed in the eigen-coordinates of A, O(n^3)
(the idea of Bartels and Stewart, CACM 15(9), 1972).  Pole pairs with
l_i + l_j = 0, such as the reference model's, are pinned by the coupling
equation F B D^{-1} = C^T J; a defective eigenbasis, told apart before the
solve by its condition number, is solved on the same equation under state
feedback instead.  The one candidate must be finite and pass the
time-domain conditions at Theta = F^{-1}, each residual finite.  A static
system (G = D) takes the same formulas with a 0x0 F: both the frequency
condition and (i)-(iv) reduce to D orthosymplectic.  The synthesized
realization is verified by mapping it back through its change of coordinates
Sigma onto the input realization: a state-space similarity has the same
transfer function at every s (Zhou, Doyle and Glover, Robust and Optimal Control,
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
    _basis_condition,
    _eigensystem,
    _evaluate_quadruple,
    _mirror_pairs,
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
# the F solve runs under state feedback when |V|_1 |V^{-1}|_1 of the eigenbasis of
# A exceeds this: every diagonalizable test system reads at most 5.4e4, every
# defective one 1.7e8 or more (scripts/modal_sweep.py counts each family above it)
DEFECTIVE_BASIS_LIMIT = 1e6


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
    it passes within VERDICT_TOLERANCE.  Transfer values too large for double
    precision give a non-finite defect, without a warning."""
    ss.require_square_channels()
    j = j_matrix(ss.num_outputs)
    spectrum = _eigensystem(ss.A)
    lam = spectrum[0]
    avoid = np.concatenate([lam, -lam.conj()])
    pts = draw_sample_points(avoid, num_samples, seed)
    # SAMPLE_EXCLUSION > RESOLVENT_GUARD * (1 + |s|): no point trips the G or G~ guard;
    # G at the points, then G at -conj(points), conjugate-transposed into G~
    with np.errstate(over="ignore", invalid="ignore"):
        both = _evaluate_quadruple(ss.A, ss.B, ss.C, ss.D,
                                   np.concatenate([pts, -np.conj(pts)]), spectrum)
        g, g_conj = both[:len(pts)], both[len(pts):].conj().transpose(0, 2, 1)
        defects = np.concatenate(
            [_frobenius_norms(g_conj @ j @ g - j), _frobenius_norms(g @ j @ g_conj - j)]
        )
    max_resid = float(np.max(defects, initial=0.0))
    passed = _violations({"jj_unitarity": max_resid}, VERDICT_TOLERANCE) is None
    return JjUnitarityResult(passed, max_resid, pts)


def check_pr_frequency(ss: StateSpace, tol: float = VERDICT_TOLERANCE,
                       num_samples: int = 20, seed: int = 42) -> PrReport:
    """Frequency-domain realizability verdict for a square even-channel system.

    With no defect to decide on, because the sample points cannot be placed
    or the sampled defect is not finite, D decides alone: "not-PR" when it is
    not orthogonal, otherwise "inconclusive", with the D residuals reported.
    """
    ss.require_square_channels()
    conditions = {"d_orthogonality": orthogonality_residual(ss.D),
                  "d_symplectic": symplectic_residual(ss.D)}
    try:
        if num_samples < 1:  # with no point, every system would pass
            raise SamplePlacementError(
                f"no sample points to decide on: {num_samples} requested")
        jj = check_jj_unitary(ss, num_samples, seed)
    except SamplePlacementError as exc:
        reason = str(exc)
    else:
        if np.isfinite(jj.max_residual):
            conditions["jj_unitarity"] = jj.max_residual
            # D symplectic is reported, not gated: (J,J)-unitarity implies it
            return _report("frequency", conditions, ("d_orthogonality", "jj_unitarity"),
                           tol, jj)
        reason = ("frequency-domain check inconclusive: the sampled (J,J) defect "
                  f"is {jj.max_residual} in double precision")
    report = _report("frequency", conditions, ("d_orthogonality",), tol)
    if not report.is_pr:  # a D that is not orthogonal decides without the defect
        return report
    return replace(report, verdict="inconclusive", failure_reason=reason)


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
    _require_nonsingular(_min_singular_ratio(theta), "commutation matrix Theta")
    conditions = _time_domain_conditions(ss, j_matrix(channels), theta,
                                         np.linalg.inv(theta))
    return _report("time", conditions, conditions, tol)


def _relative(x: np.ndarray, scale: float) -> float:
    """|x|_F / max(1, scale): the one rule of every relative residual."""
    return float(np.linalg.norm(x) / max(1.0, scale))


def _time_domain_conditions(ss: StateSpace, j: np.ndarray, theta: np.ndarray,
                            theta_inv: np.ndarray) -> dict:
    """The relative residuals of conditions (i)-(iv) against ``theta``, whose
    inverse is ``theta_inv``; with no state, (ii)-(iv) are exactly 0.  A
    minus the A rebuilt from the R read off it is 1/2 (ii) Theta^{-1}, which
    does not scale with Theta: it catches the drift a small Theta hides."""
    conditions = {"d_orthogonality": orthogonality_residual(ss.D),
                  "d_symplectic": symplectic_residual(ss.D)}
    norm_a = np.linalg.norm(ss.A)
    bjbt = ss.B @ j @ ss.B.T
    ccr = ss.A @ theta + theta @ ss.A.T + bjbt
    conditions["ccr_preservation"] = _relative(
        ccr, 2.0 * norm_a * np.linalg.norm(theta) + np.linalg.norm(bjbt))
    conditions["output_coupling"] = _relative(
        ss.C + ss.D @ j @ ss.B.T @ theta_inv, np.linalg.norm(ss.C))
    conditions["hamiltonian_reconstruction"] = _relative(0.5 * ccr @ theta_inv, norm_a)
    return conditions


def _lyapunov_f(spectrum: tuple, q: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Solve A^T F + F A = Q with F G = H in the eigen-coordinates of A.

    ``spectrum`` is the ``_eigensystem`` (L, V, V^{-1}) of A.  With
    A = V L V^{-1} and Y = V^T F V, (l_i + l_j) Y_ij = (V^T Q V)_ij.  The
    entries of _mirror_pairs are pinned by Y V^{-1} G = V^T H, one least-
    squares solve for all the rows that pin the same columns.  Raises
    LinAlgError when the eigenvector basis is singular.
    """
    lam, v, w = spectrum
    if w is None:
        raise np.linalg.LinAlgError("Singular matrix")
    gap, pinned = _mirror_pairs(lam)
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


# values too large for double precision end in LinAlgError, without a warning
@np.errstate(over="ignore", invalid="ignore")
def _solve_f(ss: StateSpace, tol: float):
    """Solve the similarity equations for the skew certificate F.

    Returns (F, F^{-1}, residuals).  The three equations are linear in F:

        J B^T F = -D^{-1} C,   F B D^{-1} = C^T J,   A^T F + F (A - B D^{-1} C) = 0.

    Substituting the second into the third gives the Lyapunov equation
    A^T F + F A = C^T J C, which _lyapunov_f solves in the eigen-coordinates
    of A, O(n^3), pinning the entries of mirrored pole pairs by the second
    equation.  At Theta = F^{-1} they are the time-domain conditions: output
    coupling times D^{-1}, its transpose for an orthosymplectic D, and F (CCR
    preservation) F.  One pass runs, chosen before it solves: in the
    eigenbasis V of A while V^{-1} exists and |V|_1 |V^{-1}|_1 is at most
    DEFECTIVE_BASIS_LIMIT, or when B = 0, which leaves no feedback; otherwise
    (a defective basis) on the equivalent equation under state feedback.  Its
    candidate is accepted only with a numerically nonsingular skew part and
    every ``_time_domain_conditions`` residual at (F^{-1}, F) within ``tol``.
    A candidate that is not finite raises LinAlgError before any SVD: the SVD
    of a matrix with an inf may never return.  A gate residual that is not
    finite raises it too: it is no evidence either way.  A static system
    gets a 0x0 F, and D's residuals decide its gate.  The raw asymmetry of
    the solution is recorded before it is removed.
    """
    channels = ss.require_square_channels()
    inv = inverse_realization(ss)  # refuses a singular D
    j = j_matrix(channels)
    ctj = ss.C.T @ j
    q = ctj @ ss.C
    spectrum = _eigensystem(ss.A)
    if _basis_condition(spectrum) > DEFECTIVE_BASIS_LIMIT and ss.B.any():
        # Feedback K moves the poles of a controllable pair and so splits a
        # defective eigenbasis (Wonham, IEEE TAC 12(6), 1967).  As B^T F = J D^{-1} C
        # and F B = C^T J D, F solves (A + BK)^T F + F (A + BK) = C^T J C
        # + K^T J D^{-1} C + C^T J D K.  K = -t (I + J) B^T, t = |A| / |B|^2: under
        # K = -t B^T alone an isotropically coupled mode keeps its Jordan block.
        k = -np.linalg.norm(ss.A) / np.linalg.norm(ss.B) ** 2 * (np.eye(len(j)) + j) @ ss.B.T
        q = q - k.T @ j @ inv.C + ctj @ ss.D @ k
        spectrum = _eigensystem(ss.A + ss.B @ k)
    f_raw = _lyapunov_f(spectrum, q, inv.B, ctj)
    if not np.isfinite(f_raw).all():
        raise np.linalg.LinAlgError(
            "the similarity matrix F is not finite in double precision")
    asym = _relative(f_raw + f_raw.T, np.linalg.norm(f_raw))
    f = 0.5 * (f_raw - f_raw.T)
    _require_nonsingular(_min_singular_ratio(f), "similarity matrix F")
    f_inv = np.linalg.inv(f)
    residuals = _time_domain_conditions(ss, j, f_inv, f)
    if not np.isfinite(list(residuals.values())).all():
        raise np.linalg.LinAlgError(
            "the similarity residuals are not finite in double precision")
    reason = _violations(residuals, tol)
    if reason:
        raise NotRealizableError(
            f"no skew similarity solves the realizability equations "
            f"({reason}); the system is not realizable or not minimal"
        )
    residuals["f_raw_asymmetry"] = asym
    return f, f_inv, residuals


def _require_pr(ss: StateSpace, tol: float, num_samples: int, seed: int) -> PrReport:
    """The frequency check's report when it reads PR; otherwise
    NotRealizableError carries it."""
    freq = check_pr_frequency(ss, tol, num_samples, seed)
    if not freq.is_pr:
        raise NotRealizableError(
            f"system is not physically realizable: {freq.failure_reason}",
            report=freq,
        )
    return freq


def synthesize(ss: StateSpace, theta_target=None, tol: float = VERDICT_TOLERANCE,
               num_samples: int = 20, seed: int = 42) -> SynthesisResult:
    """Recover oscillator parameters realizing the given transfer function.

    A spectrally generic input (no mirrored pole pair) is certified as
    given; it is reduced to a minimal realization only when it has a
    mirrored pair or F refuses it (the original state dimension is then
    recorded in ``reduced_from``).  An accepted F makes the input a physical
    realization, whose hidden part is closed, as controllable and observable
    coincide there (Gough and Zhang, Automatica 59, 2015): its hidden poles
    come in mirrored pairs, so a generic input that F accepts is minimal.  A
    refused input that the reduction leaves as it is is not solved again.
    The similarity certificate F decides: it must pass the time-domain
    conditions at Theta = F^{-1} within ``tol``, and no sample point is
    drawn for it.  When the F solve refuses, the frequency-domain check at
    ``tol``, ``num_samples`` and ``seed`` explains why: unless it reads PR,
    NotRealizableError carries its report; if it does, the solve's error
    stands.  A static system is certified the same way, by a 0x0 F.
    ``theta_target`` selects the commutation matrix of the synthesized
    parameters (default: the canonical J of matching size).

    The rebuilt realization is verified internally.  It is a similarity of
    the (minimal) input under ``Sigma``, so mapped back through ``Sigma`` its
    A, B and C must each match the input's within REBUILD_TOLERANCE, relative
    to the input's Frobenius norm; that bounds the transfer deviation at
    every s, to first order.  The time-domain conditions against
    ``theta_target`` hold identically for every realization the builder
    makes from valid parameters, so they are not checked again.
    """
    refusals = (np.linalg.LinAlgError, SingularMatrixError, NotRealizableError,
                DimensionError)
    work, certificate = ss, None
    if not _mirror_pairs(_eigensystem(ss.A)[0])[1].any():
        try:  # an accepted F certifies the input as given
            certificate = _solve_f(ss, tol)
        except refusals:
            work = minimal_realization(ss)
            if work is ss:  # a second solve of the same matrices refuses again
                _require_pr(ss, tol, num_samples, seed)  # the check explains why
                raise
    else:
        work = minimal_realization(ss)
    reduced_from = None if work is ss else ss.state_dim
    n2 = work.state_dim
    if certificate is None:
        try:
            certificate = _solve_f(work, tol)
        except refusals:
            _require_pr(work, tol, num_samples, seed)  # the check explains why
            raise
    if theta_target is None:
        theta_target = j_matrix(n2)
    # a copy, so that the parameters do not share the caller's array
    theta_target = np.array(theta_target, dtype=float)
    if theta_target.shape != (n2, n2):
        raise DimensionError(
            f"theta_target must be {n2}x{n2} to match the minimal state, "
            f"got {theta_target.shape}"
        )

    f, f_inv, residuals = certificate
    j = j_matrix(work.num_outputs)
    rhat_raw = 0.5 * f @ (work.A @ f_inv + 0.5 * work.B @ j @ work.B.T) @ f
    rhat_sym = _relative(rhat_raw - rhat_raw.T, np.linalg.norm(rhat_raw))
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
        return _relative(x - ref, np.linalg.norm(ref))

    # np.max, unlike max, keeps a NaN residual
    max_dev = float(np.max([rel(sigma @ rebuilt.A @ sigma_inv, work.A),
                            rel(sigma @ rebuilt.B, work.B),
                            rel(rebuilt.C @ sigma_inv, work.C)]))
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
