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
from oqho.statespace import StateSpace, eval_tf, is_minimal, poles
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
