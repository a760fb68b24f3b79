import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqho import realizability
from oqho.errors import (
    DimensionError,
    NotRealizableError,
    SamplePlacementError,
    SingularMatrixError,
    StructureError,
)
from oqho.forms import PmParams, build_pm_realization
from oqho.realizability import (
    check_jj_unitary,
    check_pr_frequency,
    check_pr_time_domain,
    compute_f,
    draw_sample_points,
    pr_zero_pole_mirror,
    synthesize,
)
from oqho.sampling import random_pm_params, random_skew_nonsingular
from oqho.statespace import (
    RESOLVENT_GUARD,
    StateSpace,
    eval_conjugate_tf,
    eval_tf,
    is_minimal,
    poles,
    spectrum_report,
)
from oqho.structured import j_matrix, skew_symmetry_residual
from oqho.worked_example import example_pm_params, example_state_space

seeds = st.integers(0, 10**6)


def built_system(seed, n=2, m=2):
    params = random_pm_params(n, m, np.random.default_rng(seed))
    return params, build_pm_realization(params)


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
    rng = np.random.default_rng(700 + modes)
    ss = build_pm_realization(random_pm_params(modes, 1 + modes % 3, rng))
    seed = int(rng.integers(2**31))
    result = synthesize(ss, seed=seed)
    rebuilt = build_pm_realization(result.params)
    lam = np.concatenate([poles(ss), poles(rebuilt)])
    pts = loop_draw_sample_points(np.concatenate([lam, -lam.conj()]), 20, seed)
    want = 0.0
    for s in pts:
        ref, got = eval_tf(ss, s), eval_tf(rebuilt, s)
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
    # poles and the poles of the inverse realization (the zeros)
    assert count_eigendecompositions(lambda: spectrum_report(big)) == 2
    # frequency check 1, F solve 1, rebuild placement and guards 2
    assert count_eigendecompositions(lambda: synthesize(small)) == 4
    static = StateSpace.static(j_matrix(2))
    for call in (check_pr_frequency, spectrum_report, synthesize):
        assert count_eigendecompositions(lambda: call(static)) == 0


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
    assert "not orthogonal" in bad.failure_reason


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
    assert "(J,J)-unitarity" in report.failure_reason


def test_frequency_check_inconclusive_on_placement_failure(monkeypatch):
    def refuse(*args, **kwargs):
        raise SamplePlacementError("forced for the test")

    monkeypatch.setattr(realizability, "draw_sample_points", refuse)
    report = check_pr_frequency(example_state_space())
    assert report.verdict == "inconclusive"
    assert report.jj_unitarity_max_residual is None
    assert "forced" in report.failure_reason


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
    """Reference F: least squares on the stacked Kronecker form of the three
    similarity equations, as in the fallback of ``_solve_f``."""
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
    raise AssertionError("the Kronecker least-squares fallback ran")


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


def test_compute_f_falls_back_on_degenerate_spectrum():
    """Poles {0, -1, 1, -1} give l_i + l_j = 0: the eigen-coordinate solve
    gives no finite candidate, the fallback gives F = J C, and no warning
    escapes."""
    ss = example_state_space()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = realizability._lyapunov_f(ss.A, ss.C.T @ j_matrix(4) @ ss.C)
        f = compute_f(ss)
    assert fast is None
    assert np.linalg.norm(f - j_matrix(4) @ ss.C) < 1e-10
    assert np.linalg.norm(f - kronecker_f(ss)) < 1e-12


def test_compute_f_falls_back_when_eigendecomposition_fails(monkeypatch):
    _, ss = built_system(5, 3, 2)
    ref = kronecker_f(ss)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced for the test")

    monkeypatch.setattr(np.linalg, "eig", fail)
    assert np.linalg.norm(compute_f(ss) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_compute_f_rejects_static_and_unrealizable():
    with pytest.raises(ValueError):
        compute_f(StateSpace.static(np.eye(2)))
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

    def test_static_synthesis(self):
        result = synthesize(StateSpace.static(j_matrix(4)))
        assert result.params.modes == 0
        assert np.array_equal(result.params.D, j_matrix(4))

    def test_rejects_unrealizable_input(self):
        ss = StateSpace(
            np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.diag([2.0, 0.5])
        )
        with pytest.raises(NotRealizableError) as exc:
            synthesize(ss)
        assert exc.value.report is not None
        assert exc.value.report.verdict == "not-PR"

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


@pytest.mark.parametrize("modes, channels", [(32, 1), (32, 2), (128, 1)])
def test_synthesize_at_64_and_256_states(modes, channels, monkeypatch):
    """The eigen-coordinate F solve carries these sizes.  The Kronecker form
    would need n^4 doubles (34 GB at 256 states), so building it is refused."""
    kron = np.kron

    def small_kron(a, b):
        if np.size(a) * np.size(b) > 10**6:
            refuse_fallback()
        return kron(a, b)

    monkeypatch.setattr(np, "kron", small_kron)
    _, ss = built_system(7 * modes + channels, modes, channels)
    result = synthesize(ss)
    assert result.reduced_from is None
    assert result.equation_residuals["rebuild_max_relative_deviation"] < 1e-7


def test_zero_pole_mirror_on_reference_model():
    assert pr_zero_pole_mirror(example_state_space())
    skewed = StateSpace(
        np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.diag([2.0, 1.0])
    )
    assert not pr_zero_pole_mirror(skewed)
