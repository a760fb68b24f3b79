import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqho import cli, jsonio, realizability, statespace, structured
from oqho.errors import (
    DimensionError,
    NotRealizableError,
    SamplePlacementError,
    SingularMatrixError,
    StructureError,
)
from oqho.forms import PmParams, build_pm_realization, pm_to_ac
from oqho.realizability import (
    REBUILD_TOLERANCE,
    VERDICT_TOLERANCE,
    check_jj_unitary,
    check_pr_frequency,
    check_pr_time_domain,
    draw_sample_points,
    synthesize,
)
from oqho.sampling import (
    random_orthogonal,
    random_orthosymplectic,
    random_pm_params,
    random_skew_nonsingular,
    random_symplectic,
)
from oqho.statespace import (
    RESOLVENT_GUARD,
    RationalEntry,
    StateSpace,
    block_diag,
    eval_conjugate_tf,
    eval_tf,
    is_minimal,
    poles,
    similarity_transform,
    siso_realization,
    spectrum_report,
)
from oqho.structured import j_matrix, skew_symmetry_residual
from oqho.worked_example import (
    example_pm_params,
    example_state_space,
    run_worked_example,
)

seeds = st.integers(0, 10**6)


def built_system(seed, n=2, m=2):
    params = random_pm_params(n, m, np.random.default_rng(seed))
    return params, build_pm_realization(params)


def compute_f(ss):
    """The skew certificate F that the F solve accepts at VERDICT_TOLERANCE."""
    return realizability._solve_f(ss, VERDICT_TOLERANCE)[0]


def direct_sum(blocks):
    """Direct sum of realizable systems, realizable for the J of the sum: the
    channels are reordered to [q1 q2 .. p1 p2 ..]."""
    ss = block_diag(blocks)
    q, p, offset = [], [], 0
    for block in blocks:
        half = block.num_inputs // 2
        q += range(offset, offset + half)
        p += range(offset + half, offset + 2 * half)
        offset += 2 * half
    order = q + p
    return StateSpace(ss.A, ss.B[:, order], ss.C[order], ss.D[np.ix_(order, order)])


def defective_system(rates, rng, mix=random_symplectic):
    """One single-channel mode per rate c, each with A a 2x2 Jordan block at
    -2 c^2 (isotropic coupling M = c I, energy diag(k, 0)), mixed by the
    similarity ``mix(n, rng)``."""
    modes = [
        build_pm_realization(PmParams(np.eye(2), c * np.eye(2), np.diag([k, 0.0]), j_matrix(2)))
        for k, c in enumerate(rates, start=1)
    ]
    ss = direct_sum(modes)
    return similarity_transform(ss, mix(ss.state_dim, rng))


def non_generic_system(modes, channels, rng):
    """The reference model, whose poles {0, -1, 1, -1} give l_i + l_j = 0,
    plus a random realizable block."""
    block = build_pm_realization(random_pm_params(modes, channels, rng))
    return direct_sum([example_state_space(), block])


def undamped_pair_system(modes, rng):
    """A mode coupled to one quadrature only (M = [[0.8, 0], [0, 0]]), so it
    keeps poles +-i w, plus a random realizable block, mixed by a random
    symplectic similarity.  Unlike the reference model's, the F entries of
    its degenerate pair are not zero in eigen-coordinates."""
    mode = build_pm_realization(
        PmParams(np.eye(2), np.diag([0.8, 0.0]), np.diag([0.7, 1.3]), j_matrix(2)))
    ss = direct_sum([mode, build_pm_realization(random_pm_params(modes, 1, rng))])
    return similarity_transform(ss, random_symplectic(ss.state_dim, rng))


def near_degenerate_model(gap):
    """Diagonal model with poles {-gap, 1, -1 - gap, -2}: its pairs sum to
    -2 gap and -gap.  The entries pair up as g3(s) = 1 / g1(-s) and
    g4(s) = 1 / g2(-s), so G~ J G = J."""
    entries = [
        RationalEntry((1.0, 1.0), (1.0, gap)),
        RationalEntry((1.0, -2.0), (1.0, 1.0 + gap)),
        RationalEntry((1.0, -gap), (1.0, -1.0)),
        RationalEntry((1.0, -1.0 - gap), (1.0, 2.0)),
    ]
    return block_diag([siso_realization(e) for e in entries])


class TestSamplePoints:
    def test_count_and_half_plane_alternation(self):
        pts = draw_sample_points([], 15, seed=42)
        assert len(pts) == 15
        for i, s in enumerate(pts):
            assert (s.real >= 0.0) == (i % 2 == 0)
            assert 1e-2 <= abs(s) <= 1e2

    def test_determinism(self):
        assert draw_sample_points([1.0], 10, seed=7) == draw_sample_points(
            [1.0], 10, seed=7
        )
        assert draw_sample_points([], 10, seed=7) != draw_sample_points([], 10, seed=8)

    def test_avoids_spectrum(self):
        avoid = [0.5 + 0.5j, -1.0]
        for s in draw_sample_points(avoid, 50, seed=1):
            assert min(abs(s - a) for a in avoid) >= 1e-6

    def test_placement_failure(self):
        with pytest.raises(SamplePlacementError):
            draw_sample_points([0.0], 5, seed=3, exclusion=1e6)


def loop_draw_sample_points(avoid, num_points, seed=42,
                            exclusion=realizability.SAMPLE_EXCLUSION):
    """draw_sample_points one candidate per loop pass: the reference for its batches."""
    avoid = np.asarray(avoid, dtype=complex).ravel()
    rng = np.random.default_rng(seed)
    lo, hi = np.log10(realizability.SAMPLE_MAGNITUDE_RANGE[0]), np.log10(
        realizability.SAMPLE_MAGNITUDE_RANGE[1])
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


def random_placement_case(rng):
    """(kind, avoid, num_points, seed, exclusion) for the loop-reference comparison.

    Kinds: an empty spectrum; a spectrum at the default exclusion; exclusions
    of 0.1-30 that reject many candidates; an exclusion of 1e3, which rejects
    every candidate, so placement stops at the attempt cap; and a disc about 0
    that leaves about 1 candidate in 200, so the cap falls between placements.
    """
    kind = ("empty", "default", "heavy", "cap", "rare")[rng.integers(5)]
    num_points = int(rng.integers(0, 5 if kind in ("cap", "rare") else 26))
    seed = int(rng.integers(2**31))
    size = int(rng.integers(1, 40))
    avoid = 10.0 ** rng.uniform(-2.5, 2.5, size) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, size))
    exclusion = {
        "empty": realizability.SAMPLE_EXCLUSION,
        "default": realizability.SAMPLE_EXCLUSION,
        "heavy": 10.0 ** rng.uniform(-1.0, 1.5),
        "cap": 1e3,
        # candidates with |s| >= exclusion pass: 0.25-0.75% of the log-uniform radii
        "rare": 10.0 ** rng.uniform(1.97, 1.99),
    }[kind]
    if kind == "empty":
        avoid = avoid[:0]
    elif kind == "rare":
        avoid = np.zeros(1, dtype=complex)
    return kind, avoid, num_points, seed, exclusion


def placement_outcome(draw, *args):
    """Bit patterns of the placed points, or the placement error message."""
    try:
        pts = draw(*args)
    except SamplePlacementError as exc:
        return "error", str(exc)
    assert all(type(s) is complex for s in pts)
    return "points", np.array(pts, dtype=complex).tobytes()


def test_sample_points_match_loop_reference_bit_for_bit():
    rng = np.random.default_rng(20261018)
    seen = {"errors": 0, "partial": 0, "no_points": 0, "empty": 0, "heavy_placed": 0}
    for _ in range(1200):
        kind, *args = random_placement_case(rng)
        got = placement_outcome(draw_sample_points, *args)
        assert got == placement_outcome(loop_draw_sample_points, *args), (kind, args)
        seen["errors"] += got[0] == "error"
        seen["partial"] += got[0] == "error" and not got[1].startswith("placed only 0 ")
        seen["no_points"] += args[1] == 0
        seen["empty"] += kind == "empty"
        seen["heavy_placed"] += kind == "heavy" and got[0] == "points" and args[1] > 0
    assert min(seen.values()) >= 30, seen


def test_sample_exclusion_clears_the_resolvent_guard():
    # A point of magnitude at most SAMPLE_MAGNITUDE_RANGE[1] that keeps
    # SAMPLE_EXCLUSION away from l and -conj(l) is outside the guard of G and G~.
    assert realizability.SAMPLE_EXCLUSION > RESOLVENT_GUARD * (
        1.0 + realizability.SAMPLE_MAGNITUDE_RANGE[1])


def drifted_system(ss, rng):
    bump = rng.standard_normal(ss.A.shape)
    return StateSpace(ss.A + 0.3 * (bump + bump.T), ss.B, ss.C, ss.D)


def loop_jj_residual(ss, num_samples=20, seed=42):
    """check_jj_unitary's sample points and defect, one point at a time."""
    j = j_matrix(ss.num_outputs)
    lam = poles(ss)
    avoid = np.concatenate([lam, -lam.conj()]) if lam.size else lam
    pts = loop_draw_sample_points(avoid, num_samples, seed)
    max_resid = 0.0
    for s in pts:
        g, g_conj = eval_tf(ss, s), eval_conjugate_tf(ss, s)
        r1 = np.linalg.norm(g_conj @ j @ g - j)
        r2 = np.linalg.norm(g @ j @ g_conj - j)
        max_resid = max(max_resid, float(r1), float(r2))
    return max_resid, pts


@pytest.mark.parametrize("modes", [1, 2, 3, 5, 8, 13, 21, 32])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_jj_residual_matches_loop_reference_exactly(modes, channels):
    rng = np.random.default_rng(500 + 10 * modes + channels)
    ss = build_pm_realization(random_pm_params(modes, channels, rng))
    for system in (ss, drifted_system(ss, rng)):
        seed = int(rng.integers(2**31))
        result = check_jj_unitary(system, seed=seed)
        want, pts = loop_jj_residual(system, seed=seed)
        assert result.max_residual == want
        assert result.sample_points == pts


@pytest.mark.parametrize("modes", [1, 3, 8, 16])
def test_rebuild_deviation_matches_loop_reference_exactly(modes):
    """The rebuild deviation is the largest relative residual of the rebuilt
    A, B and C mapped back through Sigma onto the input's, one at a time."""
    rng = np.random.default_rng(700 + modes)
    ss = build_pm_realization(random_pm_params(modes, 1 + modes % 3, rng))
    seed = int(rng.integers(2**31))
    result = synthesize(ss, seed=seed)
    assert result.reduced_from is None
    rebuilt = build_pm_realization(result.params)
    sigma, sigma_inv = result.Sigma, np.linalg.inv(result.Sigma)
    want = 0.0
    for got, ref in ((sigma @ rebuilt.A @ sigma_inv, ss.A), (sigma @ rebuilt.B, ss.B),
                     (rebuilt.C @ sigma_inv, ss.C)):
        want = max(want, float(np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))))
    assert result.equation_residuals["rebuild_max_relative_deviation"] == want


@pytest.fixture
def count_eigendecompositions(monkeypatch):
    """count(call): how many np.linalg.eigvals and np.linalg.eig calls ``call()`` makes."""
    calls = []
    for name in ("eigvals", "eig"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    return count


def test_eigendecompositions_per_call(count_eigendecompositions):
    rng = np.random.default_rng(64)
    big = build_pm_realization(random_pm_params(32, 1, rng))
    small = build_pm_realization(random_pm_params(3, 2, rng))
    # one spectrum of A serves sample placement and the guards of G and G~
    assert count_eigendecompositions(lambda: check_pr_frequency(big)) == 1
    # the poles of the same A come from the memo; the zeros cost one eigvals
    assert count_eigendecompositions(lambda: spectrum_report(big)) == 1
    # cold: the poles and the poles of the inverse realization (the zeros)
    statespace._decompose.cache_clear()
    assert count_eigendecompositions(lambda: spectrum_report(big)) == 2
    # the F solve decides, with no sampled check; the rebuild is verified
    # through Sigma, without an eigensystem of its own
    assert count_eigendecompositions(lambda: synthesize(small)) == 1
    # degenerate pole pairs are pinned inside the one F solve
    assert count_eigendecompositions(lambda: synthesize(example_state_space())) == 1
    # a defective eigenbasis costs the one feedback-shifted F solve more
    defective = defective_system([0.5] * 3, np.random.default_rng(1))
    assert count_eigendecompositions(lambda: synthesize(defective)) == 2
    # a plainly drifted generic input is refused by one plain F pass, and the
    # check that explains the refusal reads the same eigensystem
    drifted = drifted_system(build_pm_realization(random_pm_params(5, 2, rng)), rng)

    def refused():
        with pytest.raises(NotRealizableError):
            synthesize(drifted)

    assert count_eigendecompositions(refused) == 1
    assert spectrum_report(drifted).spectrally_generic
    static = StateSpace.static(j_matrix(2))
    for call in (check_pr_frequency, spectrum_report, synthesize):
        assert count_eigendecompositions(lambda: call(static)) == 0


def test_factorizations_per_synthesis(monkeypatch):
    """The n x n factorizations of one 5-mode synthesis.  inv: V, F, Sigma and
    the builder's Theta; svd: the singular rule on F and on Theta (validate);
    eig: A; eigh: F^{-1} and Theta in relate_ccr.  Theta is decomposed only by
    the steps that use it, and the rebuilt system is not re-checked.  A
    pm_to_ac of the result adds none of them."""
    ss = build_pm_realization(random_pm_params(5, 1, np.random.default_rng(3)))
    calls = dict.fromkeys(("inv", "svd", "eig", "eigh"), 0)
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(x, *args, _original=original, _name=name, **kwargs):
            calls[_name] += np.shape(x) == (10, 10)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    synthesize(ss)
    assert calls == {"inv": 4, "svd": 2, "eig": 1, "eigh": 2}
    # converting the synthesized parameters reuses the synthesis's validation
    # of them and its eigh of the target Theta
    structured._clear_memos()
    calls.update(dict.fromkeys(calls, 0))
    theta = random_skew_nonsingular(10, np.random.default_rng(4))
    pm_to_ac(synthesize(ss, theta).params)
    assert calls == {"inv": 4, "svd": 2, "eig": 1, "eigh": 2}


def test_synthesize_checks_no_time_domain_conditions(monkeypatch):
    called = []
    monkeypatch.setattr(realizability, "check_pr_time_domain",
                        lambda *args, **kwargs: called.append(None))
    synthesize(example_state_space(), theta_target=2.0 * j_matrix(4))
    assert called == []


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_time_domain_conditions_are_identities_of_the_builder(scale):
    """CCR preservation, output coupling and the Hamiltonian reconstruction
    hold identically for every realization built from valid parameters, so
    their residuals are rounding alone, at every size and Theta scale."""
    for modes in range(1, 33):
        for channels in (1, 2, 3):
            rng = np.random.default_rng(100 * modes + channels)
            base = random_pm_params(modes, channels, rng)
            params = PmParams(base.D, base.M, base.R, scale * base.Theta)
            ss = build_pm_realization(params)
            res = check_pr_time_domain(ss, params.Theta, tol=np.inf).condition_residuals
            norm_a, norm_b = np.linalg.norm(ss.A), np.linalg.norm(ss.B)
            norm_theta = np.linalg.norm(params.Theta)
            assert res["ccr_preservation"] <= 1e-13 * (norm_a * norm_theta + norm_b ** 2)
            assert res["output_coupling"] <= 1e-13 * np.linalg.norm(ss.C)
            assert res["hamiltonian_reconstruction"] <= 1e-13 * norm_a


@pytest.mark.parametrize("modes, scale", [(2, 1e10), (8, 1e8), (32, 1e8)])
def test_synthesize_onto_a_scaled_theta(modes, scale):
    """A large target Theta scales the time-domain residuals of the rebuilt
    system by its norm; the synthesis itself stays exact."""
    ss = build_pm_realization(random_pm_params(modes, 1, np.random.default_rng(1)))
    theta = scale * j_matrix(2 * modes)
    result = synthesize(ss, theta_target=theta)
    assert np.array_equal(result.params.Theta, theta)
    assert result.equation_residuals["rebuild_max_relative_deviation"] <= 1e-12


def synthesis_onto(modes, scale):
    """The realization built from a synthesis of a random PR system onto
    scale * J, and that J."""
    ss = build_pm_realization(random_pm_params(modes, 1, np.random.default_rng(1)))
    theta = scale * j_matrix(2 * modes)
    return build_pm_realization(synthesize(ss, theta_target=theta).params), theta


@pytest.mark.parametrize("modes, scale", [(2, 1e10), (8, 1e8), (32, 1e8)])
def test_time_domain_check_accepts_a_synthesis_onto_a_scaled_theta(modes, scale):
    """Each time-domain residual is relative, so an exact build at a large
    Theta reads PR: absolute residuals grow with the norm of Theta."""
    built, theta = synthesis_onto(modes, scale)
    report = check_pr_time_domain(built, theta)
    assert report.verdict == "PR", report.failure_reason


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_time_domain_check_refuses_a_drift_at_every_theta_scale(scale):
    """A symmetric drift of A by 1e-6 relative is not-PR at every scale of
    Theta.  The Hamiltonian reconstruction does not scale with Theta, and at
    a small Theta it alone refuses the drift."""
    for modes in (1, 8):
        built, theta = synthesis_onto(modes, scale)
        bump = np.random.default_rng(2).standard_normal(built.A.shape)
        bump += bump.T
        drift = 1e-6 * np.linalg.norm(built.A) / np.linalg.norm(bump) * bump
        drifted = StateSpace(built.A + drift, built.B, built.C, built.D)
        assert check_pr_time_domain(built, theta).verdict == "PR"
        report = check_pr_time_domain(drifted, theta)
        assert report.verdict == "not-PR"
        assert report.condition_residuals["hamiltonian_reconstruction"] > 1e-7


def counted_calls(monkeypatch, module, name):
    """The list that gets one entry per call of ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def staircase_calls(monkeypatch):
    """One entry per orthogonal staircase (two per minimal_realization)."""
    return counted_calls(monkeypatch, statespace, "_reachable_basis")


def test_padded_input_is_reduced_by_one_staircase_pair(staircase_calls):
    """synthesize reduces through minimal_realization alone: the two staircases
    of the reduction, with no separate minimality test before them."""
    core = example_state_space()
    padded = StateSpace(
        np.block([[core.A, np.zeros((4, 2))], [np.zeros((2, 4)), -np.eye(2)]]),
        np.vstack([core.B, np.zeros((2, 4))]),
        np.hstack([core.C, np.zeros((4, 2))]),
        core.D,
    )
    assert synthesize(padded).reduced_from == 6
    assert len(staircase_calls) == 2


@pytest.mark.parametrize("modes", [5, 32])
def test_accepted_input_is_certified_without_a_staircase(modes, staircase_calls):
    """A spectrally generic input that the certificate accepts is minimal, so
    it is synthesized as given."""
    _, ss = built_system(4100 + modes, modes, 1 + modes % 2)
    result = synthesize(ss)
    assert result.reduced_from is None
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7
    assert staircase_calls == []


def hidden_pair_system(core, block, rng):
    """``core`` plus two states that neither B nor C reaches, with the 2x2
    state matrix ``block``, mixed by a random orthogonal similarity."""
    n, p, q = core.state_dim, core.num_inputs, core.num_outputs
    ss = StateSpace(np.block([[core.A, np.zeros((n, 2))], [np.zeros((2, n)), block]]),
                    np.vstack([core.B, np.zeros((2, p))]),
                    np.hstack([core.C, np.zeros((q, 2))]), core.D)
    return similarity_transform(ss, random_orthogonal(n + 2, rng))


@pytest.mark.parametrize("pair", ["undamped", "real"])
@pytest.mark.parametrize("modes", [1, 3, 8, 32])
def test_hidden_mirrored_pair_is_reduced(modes, pair):
    """A hidden closed part, poles +-i w or +-s, is a mirrored pair: the
    raw F solve may accept such an input, so synthesis reduces it first."""
    rng = np.random.default_rng(4200 + 10 * modes + (pair == "real"))
    core = build_pm_realization(random_pm_params(modes, 1 + modes % 2, rng))
    if pair == "undamped":
        w = rng.uniform(0.5, 3.0)
        block = np.array([[0.0, w], [-w, 0.0]])
    else:
        block = np.diag([1.0, -1.0]) * rng.uniform(0.5, 2.0)
    ss = hidden_pair_system(core, block, rng)
    result = synthesize(ss)
    assert result.reduced_from == core.state_dim + 2
    assert result.params.Theta.shape == core.A.shape
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7


def test_refused_minimal_input_is_solved_and_reduced_once(monkeypatch, staircase_calls):
    """A refused generic input that the staircases leave as it is goes to the
    sampled check at once: one F solve, one staircase pair."""
    rng = np.random.default_rng(4300)
    drifted = drifted_system(build_pm_realization(random_pm_params(4, 1, rng)), rng)
    assert spectrum_report(drifted).spectrally_generic
    solves = counted_calls(monkeypatch, realizability, "_solve_f")
    with pytest.raises(NotRealizableError) as exc:
        synthesize(drifted)
    assert exc.value.report.verdict == "not-PR"
    assert len(solves) == 1
    assert len(staircase_calls) == 2


def test_non_square_input_is_refused_before_any_work(monkeypatch, count_eigendecompositions):
    """synthesize holds its input to the contract of every check first: a 2x4
    system is refused with no eigendecomposition and no reduction."""
    rng = np.random.default_rng(4400)
    wide = StateSpace(rng.standard_normal((2, 2)) - 3.0 * np.eye(2), rng.standard_normal((2, 4)),
                      rng.standard_normal((2, 2)), rng.standard_normal((2, 4)))
    reductions = counted_calls(monkeypatch, realizability, "minimal_realization")

    def refused():
        with pytest.raises(DimensionError, match="square system required, got 2x4"):
            synthesize(wide)

    assert count_eigendecompositions(refused) == 0
    assert reductions == []


def test_odd_state_input_is_refused_as_the_check_refuses_it():
    """A realizable 2-state core plus one hidden stable state is no quadrature
    model: synthesize refuses it with the check's DimensionError, rather than
    reduce it to the core."""
    core = build_pm_realization(random_pm_params(1, 1, np.random.default_rng(4500)))
    odd = StateSpace(np.block([[core.A, np.zeros((2, 1))], [np.zeros((1, 2)), -np.eye(1)]]),
                     np.vstack([core.B, np.zeros((1, 2))]),
                     np.hstack([core.C, np.zeros((2, 1))]), core.D)
    with pytest.raises(DimensionError) as checked:
        check_pr_frequency(odd)
    with pytest.raises(DimensionError) as synthesized:
        synthesize(odd)
    assert str(synthesized.value) == str(checked.value)
    assert "got state 3, channels 2" in str(checked.value)
    assert synthesize(core).reduced_from is None


def test_check_jj_unitary_on_reference_model():
    result = check_jj_unitary(example_state_space())
    assert result.passed
    assert result.max_residual < 1e-12
    assert len(result.sample_points) == 20


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 3), st.integers(1, 3))
def test_frequency_check_accepts_built_systems(seed, n, m):
    _, ss = built_system(seed, n, m)
    report = check_pr_frequency(ss)
    assert report.verdict == "PR"
    assert report.jj_unitarity_max_residual < 1e-9
    assert report.failure_reason is None


def test_frequency_check_static_systems():
    good = check_pr_frequency(StateSpace.static(j_matrix(2)))
    assert good.verdict == "PR"
    bad = check_pr_frequency(StateSpace.static(np.diag([2.0, 0.5, 1.0, 1.0])))
    assert bad.verdict == "not-PR"
    assert "d_orthogonality residual 3.092e+00" in bad.failure_reason


def test_frequency_check_rejects_generic_system():
    rng = np.random.default_rng(4)
    ss = StateSpace(
        rng.standard_normal((4, 4)),
        rng.standard_normal((4, 4)),
        rng.standard_normal((4, 4)),
        np.eye(4),
    )
    report = check_pr_frequency(ss)
    assert report.verdict == "not-PR"
    assert "jj_unitarity residual" in report.failure_reason


@pytest.mark.parametrize("samples", [0, -1])
def test_frequency_check_without_sample_points_is_inconclusive(samples):
    """No sample point is no evidence: the verdict is inconclusive whatever
    the system, as check_jj_unitary refuses to decide with no point."""
    for ss in (StateSpace.static(np.array([[0.0, 1.0], [1.0, 0.0]])), example_state_space()):
        report = check_pr_frequency(ss, num_samples=samples)
        assert report.verdict == "inconclusive"
        assert report.failure_reason == f"no sample points to decide on: {samples} requested"
        assert report.jj_unitarity_max_residual is None
        with pytest.raises(SamplePlacementError) as exc:
            check_jj_unitary(ss, num_samples=samples)
        assert str(exc.value) == report.failure_reason


def test_compute_f_refuses_a_feedthrough_that_is_not_symplectic():
    """The F gate holds every time-domain condition, D's structure among them."""
    ss = build_pm_realization(random_pm_params(2, 1, np.random.default_rng(1)))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # orthogonal, not symplectic
    with pytest.raises(NotRealizableError, match="d_symplectic residual"):
        compute_f(StateSpace(ss.A, ss.B, swap @ ss.C, swap @ ss.D))


def test_frequency_check_inconclusive_on_placement_failure(monkeypatch):
    def refuse(*args, **kwargs):
        raise SamplePlacementError("forced for the test")

    monkeypatch.setattr(realizability, "draw_sample_points", refuse)
    report = check_pr_frequency(example_state_space())
    assert report.verdict == "inconclusive"
    assert report.jj_unitarity_max_residual is None
    assert "forced" in report.failure_reason


@pytest.mark.parametrize("placement", ["no points", "failed"])
def test_frequency_check_without_evidence_is_decided_by_a_bad_feedthrough(
        placement, monkeypatch):
    """With no defect to decide on, a D that is not orthogonal decides, as it
    does when the sampled defect is not finite."""
    def refuse(*args, **kwargs):
        raise SamplePlacementError("forced for the test")

    monkeypatch.setattr(realizability, "draw_sample_points", refuse)
    ss = example_state_space()
    report = check_pr_frequency(StateSpace(ss.A, ss.B, ss.C, 2.0 * ss.D),
                                num_samples=0 if placement == "no points" else 20)
    assert report.verdict == "not-PR"
    assert report.failure_reason == ("frequency-domain conditions violated: "
                                     "d_orthogonality residual 6.000e+00; "
                                     "dominant: d_orthogonality")
    assert report.jj_unitarity_max_residual is None


class TestTimeDomainCheck:
    def test_built_system_passes_exactly(self):
        params = example_pm_params()
        ss = build_pm_realization(params)
        report = check_pr_time_domain(ss, params.Theta)
        assert report.verdict == "PR"
        assert max(report.condition_residuals.values()) < 1e-12

    def test_wrong_theta_shape(self):
        with pytest.raises(DimensionError):
            check_pr_time_domain(example_state_space(), j_matrix(6))

    def test_non_skew_theta(self):
        with pytest.raises(StructureError):
            check_pr_time_domain(example_state_space(), np.eye(4))

    def test_singular_theta(self):
        theta = np.zeros((4, 4))
        theta[0, 1], theta[1, 0] = 1.0, -1.0
        with pytest.raises(SingularMatrixError):
            check_pr_time_domain(example_state_space(), theta)

    def test_output_coupling_violation_attributed(self):
        params = example_pm_params()
        ss = build_pm_realization(params)
        flipped = StateSpace(ss.A, ss.B, -ss.C, ss.D)
        report = check_pr_time_domain(flipped, params.Theta)
        assert report.verdict == "not-PR"
        assert report.condition_residuals["output_coupling"] > 1e-8
        assert report.condition_residuals["ccr_preservation"] < 1e-10
        assert "dominant: output_coupling" in report.failure_reason

    def test_ccr_violation_attributed(self):
        params = example_pm_params()
        ss = build_pm_realization(params)
        bumped = StateSpace(ss.A + 0.3 * np.eye(4), ss.B, ss.C, ss.D)
        report = check_pr_time_domain(bumped, params.Theta)
        assert report.verdict == "not-PR"
        assert report.condition_residuals["ccr_preservation"] > 1e-8
        assert report.condition_residuals["output_coupling"] < 1e-10
        assert report.condition_residuals["d_orthogonality"] < 1e-10

    def test_static_system_reports_every_condition(self):
        """With no state, (ii)-(iv) are residuals of empty arrays, exactly 0,
        and D's residuals decide."""
        params = example_pm_params()
        dynamic = check_pr_time_domain(build_pm_realization(params), params.Theta)
        empty = np.zeros((0, 0))
        good = check_pr_time_domain(StateSpace.static(j_matrix(4)), empty)
        bad = check_pr_time_domain(StateSpace.static(np.diag([2.0, 0.5, 1.0, 1.0])), empty)
        for report in (good, bad):
            assert list(report.condition_residuals) == list(dynamic.condition_residuals)
            for key in ("ccr_preservation", "output_coupling", "hamiltonian_reconstruction"):
                assert report.condition_residuals[key] == 0.0
        assert good.verdict == "PR"
        assert bad.verdict == "not-PR"
        assert "dominant: d_orthogonality" in bad.failure_reason


def test_compute_f_on_reference_model():
    """Frozen certificate: for the diagonal realization F equals J C."""
    ss = example_state_space()
    f = compute_f(ss)
    expected = j_matrix(4) @ ss.C
    assert np.linalg.norm(f - expected) < 1e-10
    assert skew_symmetry_residual(f) < 1e-12


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 3), st.integers(1, 3))
def test_compute_f_inverts_commutation_matrix_on_built_systems(seed, n, m):
    """For a realization built from parameters, F is exactly Theta^{-1}."""
    params, ss = built_system(seed, n, m)
    if not is_minimal(ss):
        return
    f = compute_f(ss)
    assert np.linalg.norm(f - np.linalg.inv(params.Theta)) < 1e-7 * max(
        1.0, np.linalg.norm(np.linalg.inv(params.Theta))
    )


def kronecker_f(ss):
    """Test reference for F: least squares on the stacked Kronecker form of
    the three similarity equations.  It needs n^4 doubles and O(n^6) time;
    the package solves for F in eigen-coordinates instead."""
    n2 = ss.state_dim
    d_inv = np.linalg.inv(ss.D)
    b_dinv = ss.B @ d_inv
    a_inv = ss.A - b_dinv @ ss.C
    j = j_matrix(ss.num_outputs)
    eye = np.eye(n2)
    system = np.vstack([
        np.kron(eye, j @ ss.B.T),
        np.kron(b_dinv.T, eye),
        np.kron(eye, ss.A.T) + np.kron(a_inv.T, eye),
    ])
    target = np.concatenate([
        (-d_inv @ ss.C).reshape(-1, order="F"),
        (ss.C.T @ j).reshape(-1, order="F"),
        np.zeros(n2 * n2),
    ])
    solution, *_ = np.linalg.lstsq(system, target, rcond=None)
    f_raw = solution.reshape((n2, n2), order="F")
    return 0.5 * (f_raw - f_raw.T)


def refuse_fallback(*args, **kwargs):
    raise AssertionError("a least-squares or Kronecker solve ran")


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("modes", range(1, 9))
def test_compute_f_matches_kronecker_reference(modes, channels, monkeypatch):
    """The eigen-coordinate solve is taken on random systems and agrees with
    the Kronecker least squares."""
    for seed in range(3):
        _, ss = built_system(1000 * modes + 10 * channels + seed, modes, channels)
        ref = kronecker_f(ss)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "lstsq", refuse_fallback)
            f = compute_f(ss)
        assert np.linalg.norm(f - ref) <= 1e-10 * np.linalg.norm(ref)


def kronecker_outcome(ss, monkeypatch):
    """compute_f with the Kronecker reference in place of every eigen-coordinate
    solve: the reference F, or the class of the error the same gate raises."""
    with monkeypatch.context() as patch:
        patch.setattr(realizability, "_lyapunov_f", lambda *args: kronecker_f(ss))
        return f_outcome(ss)


def f_outcome(ss):
    try:
        return compute_f(ss)
    except (NotRealizableError, SingularMatrixError) as exc:
        return type(exc)


def differential_corpus(family):
    rng = np.random.default_rng(606)
    if family == "drifted":
        return [drifted_system(built_system(50 * modes + channels, modes, channels)[1], rng)
                for modes in range(1, 9) for channels in (1, 2, 3)]
    if family == "junk":
        return [StateSpace(rng.standard_normal((n, n)), rng.standard_normal((n, 2)),
                           rng.standard_normal((2, n)), np.eye(2)) for n in (2, 4, 6)]
    if family == "non-generic":
        return [non_generic_system(modes, 1 + modes % 3, rng) for modes in (1, 2, 4, 8, 16)] + [
            undamped_pair_system(modes, rng) for modes in (1, 4, 12)]
    if family == "defective, equal poles":
        return [defective_system([0.5] * k, rng) for k in (1, 2, 3, 5, 8, 17)]
    if family == "defective, distinct poles":
        return [defective_system(list(0.4 + 0.1 * np.arange(k)), rng) for k in (1, 2, 3, 5, 8, 12)]
    # B B^T is a multiple of I under an orthogonal mix of equal rates
    return [defective_system([0.5] * k, rng, random_orthogonal) for k in (1, 3, 8, 12)]


DIFFERENTIAL_FAMILIES = [
    "drifted", "junk", "non-generic", "defective, equal poles", "defective, distinct poles",
    "defective, orthogonal mix",
]


@pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES)
def test_compute_f_agrees_with_kronecker_reference_on_every_spectrum(family, monkeypatch):
    """Up to 36 states: compute_f raises the error class the gate raises on
    the Kronecker reference F, or gives that F within 1e-9 relative, a
    defective eigenbasis included."""
    for ss in differential_corpus(family):
        assert ss.state_dim <= 36
        ref, got = kronecker_outcome(ss, monkeypatch), f_outcome(ss)
        if isinstance(ref, type):
            assert got is ref
        else:
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_compute_f_pins_degenerate_pairs_on_reference_model(monkeypatch):
    """Poles {0, -1, 1, -1} give l_i + l_j = 0: the coupling equation pins
    those entries in the first eigen-coordinate pass, F = J C, and no warning
    escapes."""
    ss = example_state_space()
    passes = []
    solve = realizability._lyapunov_f
    monkeypatch.setattr(realizability, "_lyapunov_f",
                        lambda *args: passes.append(None) or solve(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = compute_f(ss)
    expected = j_matrix(4) @ ss.C
    assert len(passes) == 1
    assert np.linalg.norm(f - expected) <= 1e-15 * np.linalg.norm(expected)


@pytest.mark.parametrize("modes", [1, 3, 8, 64])
def test_compute_f_pins_nonzero_entries_of_an_undamped_pair(modes, monkeypatch, refuse_large_kron):
    """Poles +-i w: the pinned entries of Y = V^T F V are not zero, and the
    first eigen-coordinate pass finds them."""
    ss = undamped_pair_system(modes, np.random.default_rng(modes))
    passes = []
    solve = realizability._lyapunov_f
    monkeypatch.setattr(realizability, "_lyapunov_f",
                        lambda *args: passes.append(None) or solve(*args))
    f = compute_f(ss)
    lam, v = np.linalg.eig(ss.A)
    gap = np.abs(lam[:, None] + lam[None, :])
    pinned = gap <= statespace.PAIRING_TOLERANCE * np.abs(lam).max()
    assert len(passes) == 1
    assert np.count_nonzero(pinned) == 2
    y = np.abs(v.T @ f @ v)
    assert y[pinned].min() > 1e-6 * y.max()
    if ss.state_dim <= 36:
        ref = kronecker_f(ss)
        assert np.linalg.norm(f - ref) <= 1e-12 * np.linalg.norm(ref)


def per_row_lyapunov_f(spectrum, q, g, h):
    """Reference eigen-coordinate solve that pins degenerate pairs with one
    least-squares solve per affected row."""
    lam, v, w = spectrum
    gap = lam[:, None] + lam[None, :]
    pinned = np.abs(gap) <= statespace.PAIRING_TOLERANCE * np.abs(lam).max()
    y = (v.T @ q @ v) / np.where(pinned, 1.0, gap)
    wg, vh = w @ g, v.T @ h
    for i in np.flatnonzero(pinned.any(axis=1)):
        k = pinned[i]
        y[i, k] = np.linalg.lstsq(wg[k].T, vh[i] - y[i, ~k] @ wg[~k], rcond=None)[0]
    return (w.T @ y @ w).real


def pinned_systems():
    rng = np.random.default_rng(77)
    for copies in (1, 2, 16, 64):
        yield f"{copies} reference models", direct_sum([example_state_space()] * copies)
    yield "reference model + block", non_generic_system(3, 2, rng)
    for modes in (1, 3, 8, 64):
        yield f"undamped pair + {modes}", undamped_pair_system(modes, np.random.default_rng(modes))


@pytest.mark.parametrize("ss", [pytest.param(ss, id=name) for name, ss in pinned_systems()])
def test_pinned_rows_share_one_solve_per_pattern(ss, monkeypatch):
    """Rows that pin the same columns share one least-squares solve, and F
    matches the per-row reference."""
    with monkeypatch.context() as patch:
        patch.setattr(realizability, "_lyapunov_f", per_row_lyapunov_f)
        ref = compute_f(ss)
    lam = np.linalg.eig(ss.A)[0]
    pinned = np.abs(lam[:, None] + lam[None, :]) <= (
        statespace.PAIRING_TOLERANCE * np.abs(lam).max())
    patterns = np.unique(pinned[pinned.any(axis=1)], axis=0).shape[0]
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kwargs: calls.append(None) or lstsq(*args, **kwargs))
    f = compute_f(ss)
    assert 1 <= len(calls) == patterns
    assert np.linalg.norm(f - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("family", DIFFERENTIAL_FAMILIES + ["pinned"])
def test_f_solve_makes_one_pass_per_input(family, monkeypatch):
    """The pass is chosen from the eigenbasis before the solve: one
    eigen-coordinate solve and at most one gate per input, whatever the
    verdict, with no retry."""
    corpus = ([ss for _, ss in pinned_systems()] if family == "pinned"
              else differential_corpus(family))
    passes = counted_calls(monkeypatch, realizability, "_lyapunov_f")
    gates = counted_calls(monkeypatch, realizability, "_time_domain_conditions")
    for ss in corpus:
        passes.clear()
        gates.clear()
        try:
            realizability._solve_f(ss, VERDICT_TOLERANCE)
        except (np.linalg.LinAlgError, SingularMatrixError, NotRealizableError):
            pass
        assert len(passes) == 1
        assert len(gates) <= 1


def time_scaled(ss, k):
    """G(s) -> G(s / 4^k): A -> 4^k A, B -> 2^k B and C -> 2^k C, exactly in
    floating point; a realizable system stays realizable, with the same F."""
    return StateSpace(4.0 ** k * ss.A, 2.0 ** k * ss.B, 2.0 ** k * ss.C, ss.D)


def genericity_cases():
    """pinned_systems() up to 128 states, random realizable systems of 2-64
    states, each at 4^k for k in {0, -14, -10, 10, 14}."""
    systems = [(name, ss) for name, ss in pinned_systems() if ss.state_dim <= 128]
    systems += [(f"random {2 * modes}", build_pm_realization(
        random_pm_params(modes, 1, np.random.default_rng(modes)))) for modes in (1, 2, 4, 8, 32)]
    for name, ss in systems:
        for k in (0, -14, -10, 10, 14):
            yield pytest.param(time_scaled(ss, k), id=f"{name}, k={k}")


@pytest.mark.parametrize("ss", genericity_cases())
def test_spectrally_generic_exactly_when_the_f_solve_pins_nothing(ss, monkeypatch):
    """One mirror-pair rule: spectrum_report reads a spectrum generic exactly
    when the first F pass pins no entry (makes no least-squares solve), at
    every time scale."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kwargs: calls.append(None) or lstsq(*args, **kwargs))
    passes = []
    solve = realizability._lyapunov_f
    monkeypatch.setattr(realizability, "_lyapunov_f",
                        lambda *args: passes.append(None) or solve(*args))
    compute_f(ss)
    assert len(passes) == 1
    assert spectrum_report(ss).spectrally_generic == (not calls)


def test_compute_f_refuses_a_singular_feedthrough():
    """D is checked by the singular-matrix rule before it is inverted."""
    ss = example_state_space()
    d = ss.D.copy()
    d[-1] = 0.0
    with pytest.raises(SingularMatrixError, match="^feedthrough D is singular to working"):
        compute_f(StateSpace(ss.A, ss.B, ss.C, d))


def test_compute_f_raises_when_eigendecomposition_fails(monkeypatch, tmp_path, capsys):
    _, ss = built_system(5, 3, 2)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced for the test")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(np.linalg.LinAlgError):
        compute_f(ss)
    path = tmp_path / "sys.json"
    path.write_text(jsonio.dumps(jsonio.encode_state_space(ss)))
    assert cli.main(["synthesize", "--input", str(path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.parametrize("a", [-np.eye(2), np.array([[-1.0, 1.0], [0.0, -1.0]])],
                         ids=["diagonal", "Jordan block"])
def test_zero_input_matrix_keeps_the_plain_pass(a, monkeypatch):
    """B = 0 leaves no feedback shift, even for a defective A: the plain
    pass's error stands (here the gate's, as the output coupling fails), with
    no warning."""
    ss = StateSpace(a, np.zeros((2, 2)), np.eye(2), np.eye(2))
    eigensystems = counted_calls(monkeypatch, statespace, "_decompose")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotRealizableError, match="not realizable or not minimal"):
            compute_f(ss)
    assert len(eigensystems) == 1


def test_f_gate_refuses_a_non_finite_candidate_before_any_svd(monkeypatch):
    svd = np.linalg.svd

    def finite_svd(x, *args, **kwargs):
        assert np.isfinite(x).all(), "an SVD of a non-finite matrix may never return"
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(realizability, "_lyapunov_f", lambda *args: np.full((4, 4), np.inf))
    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    with pytest.raises(np.linalg.LinAlgError, match="F is not finite in double precision"):
        compute_f(example_state_space())


def test_synthesize_refuses_an_overflowing_state_matrix_without_a_warning():
    """A scaled by 1e150 overflows the F gate's residuals: no evidence either
    way, so a numerical failure (inconclusive), not a verdict or a warning;
    the sampled check reads PR, every pole lying far beyond its band."""
    for seed in range(8):
        _, ss = built_system(seed, 1 + seed % 4, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="not finite in double precision"):
                synthesize(StateSpace(1e150 * ss.A, ss.B, ss.C, ss.D))


def test_compute_f_certifies_static_and_rejects_unrealizable():
    f, f_inv, residuals = realizability._solve_f(StateSpace.static(np.eye(2)),
                                                 VERDICT_TOLERANCE)
    assert f.shape == f_inv.shape == (0, 0)
    assert set(residuals.values()) == {0.0}
    rng = np.random.default_rng(8)
    junk = StateSpace(
        rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)),
        np.eye(2),
    )
    with pytest.raises(NotRealizableError):
        compute_f(junk)


class TestSynthesize:
    def test_reference_model_default_theta(self):
        result = synthesize(example_state_space())
        assert np.array_equal(result.params.D, np.eye(4))
        assert np.array_equal(result.params.Theta, j_matrix(4))
        assert result.reduced_from is None
        res = result.equation_residuals
        assert res["f_raw_asymmetry"] < 1e-8
        assert res["rhat_symmetry"] < 1e-9
        assert res["rebuild_max_relative_deviation"] < 1e-7

    def test_rebuild_matches_input_transfer_function(self):
        ss = example_state_space()
        result = synthesize(ss)
        rebuilt = build_pm_realization(result.params)
        lam = np.concatenate([poles(ss), poles(rebuilt)])
        rng = np.random.default_rng(31)
        count = 0
        while count < 10:
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if np.min(np.abs(lam - s)) < 1e-2:
                continue
            dev = np.linalg.norm(eval_tf(rebuilt, s) - eval_tf(ss, s))
            assert dev < 1e-8 * max(1.0, np.linalg.norm(eval_tf(ss, s)))
            count += 1

    def test_custom_theta_target(self):
        theta = random_skew_nonsingular(4, np.random.default_rng(44))
        result = synthesize(example_state_space(), theta_target=theta)
        assert np.array_equal(result.params.Theta, theta)
        assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7

    def test_params_do_not_share_the_callers_theta(self):
        theta = random_skew_nonsingular(4, np.random.default_rng(44))
        result = synthesize(example_state_space(), theta_target=theta)
        kept = result.params.Theta.copy()
        theta *= 2.0
        assert not np.shares_memory(result.params.Theta, theta)
        assert np.array_equal(result.params.Theta, kept)

    def test_non_minimal_input_is_reduced(self):
        core = example_state_space()
        padded = StateSpace(
            np.block([[core.A, np.zeros((4, 2))],
                      [np.zeros((2, 4)), np.diag([-5.0, -6.0])]]),
            np.vstack([core.B, np.zeros((2, 4))]),
            np.hstack([core.C, np.zeros((4, 2))]),
            core.D,
        )
        result = synthesize(padded)
        assert result.reduced_from == 6
        assert result.params.R.shape == (4, 4)

    def test_static_synthesis(self, monkeypatch):
        """The 0x0 certificate decides a static input, as F decides every
        other size, with no sample point; its residuals carry the same keys,
        each exactly 0."""
        draws = counted_calls(monkeypatch, realizability, "draw_sample_points")
        static = synthesize(StateSpace.static(j_matrix(4)))
        assert static.params.modes == 0
        assert np.array_equal(static.params.D, j_matrix(4))
        assert len(draws) == 0
        assert static.F.shape == static.Sigma.shape == (0, 0)
        dynamic = synthesize(example_state_space())
        assert list(static.equation_residuals) == list(dynamic.equation_residuals)
        assert set(static.equation_residuals.values()) == {0.0}

    @pytest.mark.parametrize("hidden", [-np.eye(2), np.array([[0.0, 2.0], [-2.0, 0.0]])],
                             ids=["stable", "undamped"])
    def test_hidden_states_of_a_static_system_are_reduced(self, hidden):
        """G = J with two states that neither B nor C reaches: the stable pair
        is refused by the raw F, the undamped one is a mirrored pair, and both
        reduce to no mode."""
        ss = StateSpace(hidden, np.zeros((2, 2)), np.zeros((2, 2)), j_matrix(2))
        result = synthesize(ss)
        assert result.reduced_from == 2
        assert result.params.modes == 0
        assert np.array_equal(result.params.D, j_matrix(2))

    def test_rejects_unrealizable_input(self):
        ss = StateSpace(
            np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.diag([2.0, 0.5])
        )
        with pytest.raises(NotRealizableError) as exc:
            synthesize(ss)
        assert exc.value.report is not None
        assert exc.value.report.verdict == "not-PR"

    @pytest.mark.parametrize("drift", [0.3, 1e-6])
    def test_refusal_carries_the_frequency_report(self, drift):
        """The certificate refuses a drifted system; the frequency check at
        the caller's tolerance, sample count and seed explains the refusal."""
        _, ss = built_system(21, 3, 1)
        bump = np.random.default_rng(22).standard_normal(ss.A.shape)
        bump += bump.T
        scale = drift * np.linalg.norm(ss.A) / np.linalg.norm(bump)
        drifted = StateSpace(ss.A + scale * bump, ss.B, ss.C, ss.D)
        with pytest.raises(NotRealizableError) as exc:
            synthesize(drifted, num_samples=7, seed=5)
        report = check_pr_frequency(drifted, VERDICT_TOLERANCE, 7, 5)
        assert report.verdict == "not-PR"
        assert exc.value.report == report
        assert str(exc.value) == f"system is not physically realizable: {report.failure_reason}"

    def test_theta_target_shape_mismatch(self):
        with pytest.raises(DimensionError):
            synthesize(example_state_space(), theta_target=j_matrix(6))


@settings(deadline=None, max_examples=10)
@given(seeds, st.integers(1, 2), st.integers(1, 2))
def test_synthesize_roundtrip_property(seed, n, m):
    params, ss = built_system(seed, n, m)
    if not is_minimal(ss):
        return
    theta = random_skew_nonsingular(2 * n, np.random.default_rng(seed + 1))
    result = synthesize(ss, theta_target=theta)
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7
    assert result.equation_residuals["f_raw_asymmetry"] < 1e-8


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("modes", [8, 10])
def test_synthesize_keeps_minimal_systems_at_scale(modes, channels):
    """No false reduction: minimal 16- and 20-state systems synthesize as is."""
    for seed in range(3):
        _, ss = built_system(100 * modes + 10 * channels + seed, modes, channels)
        result = synthesize(ss)
        assert result.reduced_from is None
        assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7


@pytest.fixture
def refuse_large_kron(monkeypatch):
    """The Kronecker form of the F equations needs n^4 doubles (34 GB at 256
    states): refuse any np.kron product of more than 1e6 elements."""
    kron = np.kron

    def small_kron(a, b):
        if np.size(a) * np.size(b) > 10**6:
            refuse_fallback()
        return kron(a, b)

    monkeypatch.setattr(np, "kron", small_kron)


@pytest.mark.parametrize("modes, channels", [(32, 1), (32, 2), (128, 1)])
def test_synthesize_at_64_and_256_states(modes, channels, refuse_large_kron):
    """The eigen-coordinate F solve carries these sizes."""
    _, ss = built_system(7 * modes + channels, modes, channels)
    result = synthesize(ss)
    assert result.reduced_from is None
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7


@pytest.mark.parametrize("kind, size", [
    ("non-generic", 64), ("non-generic", 128), ("non-generic", 256),
    ("defective", 34), ("defective", 64),
])
def test_synthesize_non_generic_spectra_at_scale(kind, size, refuse_large_kron):
    """Degenerate pole pairs and defective eigenbases at sizes the Kronecker
    form cannot take."""
    rng = np.random.default_rng(size)
    if kind == "non-generic":
        ss = non_generic_system(size // 2 - 2, 2, rng)
    else:
        # an orthogonal mix keeps the realization well scaled; a random
        # symplectic mix is the case of the test below
        modes = size // 2
        mix = random_symplectic if size < 64 else random_orthogonal
        ss = defective_system([0.5] * (modes - modes // 2) + [0.7] * (modes // 2), rng, mix)
    assert ss.state_dim == size
    result = synthesize(ss)
    assert result.reduced_from is None
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7


@pytest.mark.parametrize("seed", range(4))
def test_synthesize_accepts_jordan_systems_the_sampled_check_rejects(seed):
    """32 isotropically coupled Jordan modes under a random symplectic mix:
    near the defective poles the sampled (J,J) defect exceeds the tolerance,
    while the similarity certificate, which decides a synthesis, holds."""
    ss = defective_system(np.linspace(0.5, 0.7, 32), np.random.default_rng(seed))
    assert check_pr_frequency(ss).verdict == "not-PR"
    result = synthesize(ss)
    assert result.reduced_from is None
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7


@pytest.mark.parametrize("exponent", range(-12, -1))
def test_synthesize_near_degenerate_pairs(exponent, refuse_large_kron):
    """Pole pairs summing to -gap and -2 gap, gap = 1e-12 ... 1e-2 on both
    sides of the cutoff, next to a random 64-state block: the time-domain
    conditions at Theta = F^{-1} hold to 1e-10."""
    block = build_pm_realization(random_pm_params(32, 1, np.random.default_rng(68)))
    ss = direct_sum([near_degenerate_model(10.0 ** exponent), block])
    result = synthesize(ss)
    res = result.equation_residuals
    assert res["rebuild_max_relative_deviation"] < 1e-7
    worst = max(res[k] for k in
                ("ccr_preservation", "output_coupling", "hamiltonian_reconstruction"))
    assert worst <= 1e-10


@pytest.mark.parametrize("kind", ["orthosymplectic", "orthogonal, not symplectic",
                                  "not orthogonal", "singular"])
@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_static_synthesis_accepts_exactly_what_the_check_reads_pr(pairs, kind):
    """G = D: the 0x0 certificate and the sampled check both reduce to D
    orthosymplectic.  A refusal carries the check's report and wording."""
    rest = np.ones(2 * pairs - 2)
    d = {
        "orthosymplectic": random_orthosymplectic(2 * pairs, np.random.default_rng(pairs)),
        "orthogonal, not symplectic": np.diag(np.r_[1.0, -1.0, rest]),
        "not orthogonal": np.diag(np.r_[2.0, 0.5, rest]),
        "singular": np.zeros((2 * pairs, 2 * pairs)),
    }[kind]
    ss = StateSpace.static(d)
    report = check_pr_frequency(ss)
    assert report.is_pr == (kind == "orthosymplectic")
    if report.is_pr:
        result = synthesize(ss)
        assert result.params.modes == 0 and result.reduced_from is None
        assert np.array_equal(result.params.D, d)
        return
    with pytest.raises(NotRealizableError) as exc:
        synthesize(ss)
    assert exc.value.report == report
    assert str(exc.value) == f"system is not physically realizable: {report.failure_reason}"


@pytest.mark.parametrize("states", [32, 64, 128])
def test_wide_systems_have_as_many_channels_as_states(states):
    """Channels as a second size axis (p = n): each exactly PR system is
    checked PR and synthesized, and a drifted copy is refused by both."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        ss = build_pm_realization(random_pm_params(states // 2, states // 2, rng))
        assert ss.num_outputs == ss.state_dim == states
        assert check_pr_frequency(ss).verdict == "PR"
        result = synthesize(ss)
        assert result.reduced_from is None
        assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7
        drifted = drifted_system(ss, rng)
        assert check_pr_frequency(drifted).verdict == "not-PR"
        with pytest.raises(NotRealizableError):
            synthesize(drifted)


def test_zero_pole_mirror_on_reference_model():
    assert spectrum_report(example_state_space()).mirror_symmetric
    skewed = StateSpace(
        np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.diag([2.0, 1.0])
    )
    assert not spectrum_report(skewed).mirror_symmetric


def test_overflowing_evaluation_is_inconclusive():
    """G~ J G overflows to NaN for this PR system with B and C scaled by 1e100,
    without a warning.  The NaN fails check_jj_unitary, and leaves the
    frequency verdict inconclusive, with no defect reported."""
    ss = build_pm_realization(random_pm_params(2, 1, np.random.default_rng(1)))
    huge = StateSpace(ss.A, 1e100 * ss.B, 1e100 * ss.C, ss.D)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jj = check_jj_unitary(huge)
        report = check_pr_frequency(huge)
    assert np.isnan(jj.max_residual) and not jj.passed
    assert report.verdict == "inconclusive"
    assert report.failure_reason.startswith("frequency-domain check inconclusive")
    assert report.jj_unitarity_max_residual is None and report.sample_points == []


def test_nan_residuals_fail_every_verdict_gate():
    ss = build_pm_realization(example_pm_params())
    nan_d = StateSpace(ss.A, ss.B, ss.C, np.where(np.eye(4) == 1, np.nan, ss.D))
    nan_b = StateSpace(ss.A, np.where(np.eye(4) == 1, np.nan, ss.B), ss.C, ss.D)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        frequency = check_pr_frequency(nan_d)
        time_domain = check_pr_time_domain(nan_b, j_matrix(4))
    assert frequency.verdict == "not-PR"
    assert "d_orthogonality residual nan" in frequency.failure_reason
    assert time_domain.verdict == "not-PR"
    assert "ccr_preservation residual nan" in time_domain.failure_reason


def test_verdict_rule_words_the_failed_residuals():
    rule = realizability._violations
    assert rule({"a": 1e-9, "b": 0.0}, 1e-8) is None
    assert rule({"b": 3.0, "a": 2.0, "c": 0.0}, 1.0) == (
        "a residual 2.000e+00, b residual 3.000e+00; dominant: b")
    assert rule({"a": np.nan}, 1.0) == "a residual nan; dominant: a"
    # a NaN failure dominates the finite ones, wherever it stands
    assert rule({"a": 1.0, "b": np.nan, "c": 2.0}, 0.5) == (
        "a residual 1.000e+00, b residual nan, c residual 2.000e+00; dominant: b")
    assert rule({"a": 1.0}, 1.0) is None
    assert rule({}, 0.0) is None


@pytest.fixture
def rule_calls(monkeypatch):
    """The residual keys and tolerance of every call of the verdict rule, with
    the text it returned."""
    calls = []
    rule = realizability._violations

    def spy(residuals, tol):
        calls.append((sorted(residuals), tol, rule(residuals, tol)))
        return calls[-1][2]

    monkeypatch.setattr(realizability, "_violations", spy)
    return calls


def test_frequency_refusal_is_worded_by_the_rule(rule_calls):
    report = check_pr_frequency(StateSpace.static(np.diag([2.0, 0.5, 1.0, 1.0])))
    keys, tol, text = rule_calls[-1]
    assert (keys, tol) == (["d_orthogonality", "jj_unitarity"], VERDICT_TOLERANCE)
    assert report.failure_reason == f"frequency-domain conditions violated: {text}"
    assert "d_symplectic" in report.condition_residuals
    assert "d_symplectic" not in report.failure_reason


def test_time_domain_refusal_is_worded_by_the_rule(rule_calls):
    params = example_pm_params()
    ss = build_pm_realization(params)
    report = check_pr_time_domain(StateSpace(ss.A, ss.B, -ss.C, ss.D), params.Theta,
                                  tol=1e-9)
    keys, tol, text = rule_calls[-1]
    assert (keys, tol) == (sorted(report.condition_residuals), 1e-9)
    assert report.failure_reason == f"time-domain conditions violated: {text}"


def test_f_gate_refusal_is_worded_by_the_rule(rule_calls):
    rng = np.random.default_rng(8)
    junk = StateSpace(*(rng.standard_normal((2, 2)) for _ in range(3)), np.eye(2))
    with pytest.raises(NotRealizableError) as info:
        compute_f(junk)
    keys, tol, text = rule_calls[-1]
    assert keys == ["ccr_preservation", "d_orthogonality", "d_symplectic",
                    "hamiltonian_reconstruction", "output_coupling"]
    assert tol == VERDICT_TOLERANCE
    assert str(info.value) == (
        f"no skew similarity solves the realizability equations ({text}); "
        "the system is not realizable or not minimal")


def refused_rebuild_text(monkeypatch, rule_calls, drift):
    """The rebuild gate's wording when synthesizing the reference model from
    a rebuilt realization passed through ``drift``; asserts that the gate,
    and not a later check, refused it."""
    build = realizability.build_pm_realization
    monkeypatch.setattr(realizability, "build_pm_realization",
                        lambda params: drift(build(params)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NotRealizableError) as info:
            synthesize(example_state_space())
    keys, tol, text = rule_calls[-1]
    assert (keys, tol) == (["rebuild_max_relative_deviation"], REBUILD_TOLERANCE)
    assert str(info.value) == (
        f"internal verification failed: rebuilt transfer function deviates ({text})")
    return text


@pytest.mark.parametrize("factor, shown", [(1.01, "1.000e-02"), (np.nan, "nan")])
def test_rebuild_deviation_is_worded_by_the_rule(monkeypatch, rule_calls, factor, shown):
    text = refused_rebuild_text(
        monkeypatch, rule_calls, lambda ss: StateSpace(ss.A, ss.B, factor * ss.C, ss.D))
    assert f"rebuild_max_relative_deviation residual {shown}" in text


def test_rebuild_gate_refuses_a_drifted_state_matrix(monkeypatch, rule_calls):
    """A rebuilt A moved by 1e-6 relative fails the similarity residual."""
    text = refused_rebuild_text(
        monkeypatch, rule_calls, lambda ss: StateSpace((1 + 1e-6) * ss.A, ss.B, ss.C, ss.D))
    assert text == ("rebuild_max_relative_deviation residual 1.000e-06; "
                    "dominant: rebuild_max_relative_deviation")


def test_nan_similarity_residual_fails_the_f_gate(monkeypatch):
    residuals = realizability._time_domain_conditions

    def nan_coupling(*args):
        return dict(residuals(*args), output_coupling=np.nan)

    monkeypatch.setattr(realizability, "_time_domain_conditions", nan_coupling)
    with pytest.raises(np.linalg.LinAlgError, match="not finite in double precision"):
        compute_f(example_state_space())


def test_tolerance_defaults_have_one_home():
    for fn in (check_pr_frequency, check_pr_time_domain, synthesize,
               run_worked_example):
        assert inspect.signature(fn).parameters["tol"].default is VERDICT_TOLERANCE
    assert "tol" not in inspect.signature(check_jj_unitary).parameters
    solve_tol = inspect.signature(realizability._solve_f).parameters["tol"]
    assert solve_tol.default is inspect.Parameter.empty
    for command in ("check", "synthesize"):
        args = cli._build_parser().parse_args([command, "--input", "x.json"])
        assert args.tol is VERDICT_TOLERANCE
    assert cli._build_parser().parse_args(["example"]).tol is VERDICT_TOLERANCE
