import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqho.errors import DimensionError, SingularMatrixError, StructureError
from oqho.forms import (
    AcParams,
    PmParams,
    ac_to_pm,
    build_ac_realization,
    build_pm_realization,
    eval_ac_tf,
    pm_to_ac,
)
from oqho.sampling import random_ac_params, random_pm_params
from oqho.statespace import eval_tf
from oqho.structured import _structure_bound, doubled_up_residual, j_matrix, t_matrix
from oqho.worked_example import (
    example_ac_params,
    example_pm_params,
    example_rational_entries,
)

seeds = st.integers(0, 10**6)
small_dims = st.tuples(st.integers(1, 3), st.integers(1, 3))


class TestPmParamsValidation:
    def test_known_params_validate(self):
        res = example_pm_params().validate()
        assert max(res.values()) < 1e-14

    def test_non_orthogonal_feedthrough(self):
        p = example_pm_params()
        with pytest.raises(StructureError) as exc:
            PmParams(2.0 * p.D, p.M, p.R, p.Theta).validate()
        assert "d_orthogonality" in exc.value.residuals

    def test_asymmetric_energy(self):
        p = example_pm_params()
        r = p.R.copy()
        r[0, 1] += 0.5
        with pytest.raises(StructureError):
            PmParams(p.D, p.M, r, p.Theta).validate()

    def test_singular_theta(self):
        p = example_pm_params()
        with pytest.raises(SingularMatrixError):
            PmParams(p.D, p.M, p.R, np.zeros((4, 4))).validate()

    def test_shape_mismatch(self):
        p = example_pm_params()
        with pytest.raises(DimensionError):
            PmParams(p.D, p.M[:, :2], p.R, p.Theta)

    def test_each_validation_returns_a_fresh_dict(self):
        p = example_pm_params()
        first = p.validate()
        want = dict(first)
        first["d_orthogonality"] = 1.0
        second = p.validate()
        assert second is not first and second == want

    def test_invalid_params_are_refused_on_every_call(self):
        p = example_pm_params()
        bad = PmParams(2.0 * p.D, p.M, p.R, p.Theta)
        refusals = []
        for params in (bad, p, bad, bad):
            try:
                params.validate()
            except StructureError as exc:
                refusals.append((str(exc), exc.residuals))
        assert len(refusals) == 3 and refusals == [refusals[0]] * 3

    def test_params_changed_in_place_are_validated_afresh(self):
        p = example_pm_params()
        p.validate()
        p.Theta[:] = 0.0
        with pytest.raises(SingularMatrixError):
            p.validate()

    def test_symmetrized_cleans_roundoff(self):
        p = example_pm_params()
        dirty = PmParams(p.D, p.M, p.R + 1e-13 * np.triu(np.ones((4, 4))), p.Theta)
        clean = dirty.symmetrized()
        assert np.array_equal(clean.R, clean.R.T)
        assert np.array_equal(clean.Theta, -clean.Theta.T)


class TestAcParamsValidation:
    def test_known_params_validate(self):
        example_ac_params().validate()

    def test_non_unitary_scattering(self):
        a = example_ac_params()
        with pytest.raises(StructureError):
            AcParams(2.0 * a.S, a.N1, a.N2, a.H1, a.H2, a.E1, a.E2).validate()

    def test_non_hermitian_h1(self):
        a = example_ac_params()
        h1 = a.H1.copy()
        h1[0, 1] = 1.0j
        with pytest.raises(StructureError):
            AcParams(a.S, a.N1, a.N2, h1, a.H2, a.E1, a.E2).validate()

    def test_singular_ladder_transformation(self):
        a = example_ac_params()
        with pytest.raises(SingularMatrixError):
            AcParams(a.S, a.N1, a.N2, a.H1, a.H2,
                     np.zeros((2, 2)), np.zeros((2, 2))).validate()


def test_build_pm_realization_on_known_params():
    """Frozen realization of the reference parameters."""
    ss = build_pm_realization(example_pm_params())
    assert np.allclose(ss.A, np.diag([1.0, -1.0, 0.0, -1.0]), atol=1e-14)
    expected_b = np.array(
        [[0, 0, 1, 0], [0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float
    )
    expected_c = np.array(
        [[0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2]], dtype=float
    )
    assert np.allclose(ss.B, expected_b, atol=1e-14)
    assert np.allclose(ss.C, expected_c, atol=1e-14)
    assert np.array_equal(ss.D, np.eye(4))


def test_build_pm_realization_matches_rational_entries():
    ss = build_pm_realization(example_pm_params())
    entries = example_rational_entries()
    rng = np.random.default_rng(17)
    for _ in range(8):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(s), abs(s - 1), abs(s + 1)) < 1e-2:
            continue
        ref = np.diag([e(s) for e in entries])
        assert np.linalg.norm(eval_tf(ss, s) - ref) < 1e-12 * max(
            1.0, np.linalg.norm(ref)
        )


@settings(deadline=None, max_examples=30)
@given(seeds, small_dims)
def test_built_realizations_satisfy_oscillator_identities(seed, dims):
    """A Theta + Theta A^T + B J B^T = 0 and C = -D J B^T Theta^{-1} by construction."""
    n, m = dims
    p = random_pm_params(n, m, np.random.default_rng(seed))
    ss = build_pm_realization(p)
    j = j_matrix(2 * m)
    ccr = ss.A @ p.Theta + p.Theta @ ss.A.T + ss.B @ j @ ss.B.T
    assert np.linalg.norm(ccr) < 1e-10 * max(1.0, np.linalg.norm(ss.A))
    coupling = ss.C + ss.D @ j @ ss.B.T @ np.linalg.inv(p.Theta)
    assert np.linalg.norm(coupling) < 1e-10 * max(1.0, np.linalg.norm(ss.C))


def test_static_pm_realization():
    d = np.eye(2)
    p = PmParams(d, np.zeros((2, 0)), np.zeros((0, 0)), np.zeros((0, 0)))
    ss = build_pm_realization(p)
    assert ss.state_dim == 0
    assert np.array_equal(ss.D, d)


def test_build_ac_realization_blocks_are_doubled_up():
    css = build_ac_realization(example_ac_params())
    for mat in (css.F, css.G, css.L, css.K):
        assert doubled_up_residual(mat) <= _structure_bound(mat)
    assert max(css.structure_residuals().values()) < 1e-12


def t_conjugation_residual(params):
    """Largest block residual between the real realization of ``params`` and
    the complex realization of ``pm_to_ac(params)`` under the T conjugation:
    A = (1/2) T F T*, B = (1/2) T G T*, C = (1/2) T L T*, D = (1/2) T K T*,
    with state- and channel-sized T factors."""
    real = build_pm_realization(params)
    css = build_ac_realization(pm_to_ac(params))
    t_st, t_ch = t_matrix(real.state_dim), t_matrix(real.num_outputs)
    pairs = [
        (real.D, 0.5 * t_ch @ css.K @ t_ch.conj().T),
        (real.A, 0.5 * t_st @ css.F @ t_st.conj().T),
        (real.B, 0.5 * t_st @ css.G @ t_ch.conj().T),
        (real.C, 0.5 * t_ch @ css.L @ t_st.conj().T),
    ]
    return max(float(np.linalg.norm(x - y)) for x, y in pairs)


def test_ac_realization_is_t_conjugate_of_real_one():
    assert t_conjugation_residual(example_pm_params()) < 1e-12


@settings(deadline=None, max_examples=25)
@given(seeds, small_dims)
def test_realization_consistency_property(seed, dims):
    n, m = dims
    p = random_pm_params(n, m, np.random.default_rng(seed))
    scale = max(1.0, np.linalg.norm(p.M) ** 2, np.linalg.norm(p.R))
    assert t_conjugation_residual(p) < 1e-9 * scale


def test_eval_ac_tf_matches_conjugated_transfer_matrix():
    """Independent oracle: the complex transfer matrix is (1/2) T* diag(entries) T."""
    entries = example_rational_entries()
    css = build_ac_realization(example_ac_params())
    t4 = t_matrix(4)
    rng = np.random.default_rng(23)
    for _ in range(6):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(s), abs(s - 1), abs(s + 1)) < 1e-2:
            continue
        ref = 0.5 * t4.conj().T @ np.diag([e(s) for e in entries]) @ t4
        assert np.linalg.norm(eval_ac_tf(css, s) - ref) < 1e-11


def test_pm_to_ac_reproduces_known_complex_parameters():
    got = pm_to_ac(example_pm_params())
    want = example_ac_params()
    assert np.abs(got.S - want.S).max() < 1e-13
    assert np.abs(got.N1 - want.N1).max() < 1e-13
    assert np.abs(got.N2 - want.N2).max() < 1e-13
    assert np.abs(got.H1 - want.H1).max() < 1e-13
    assert np.abs(got.H2 - want.H2).max() < 1e-13


def test_ac_to_pm_reproduces_known_real_parameters():
    got = ac_to_pm(example_ac_params())
    want = example_pm_params()
    for name in ("D", "M", "R", "Theta"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() < 1e-13


def test_identity_parameters_convert_to_identity():
    pm = PmParams(np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)), j_matrix(4))
    ac = pm_to_ac(pm)
    assert np.allclose(ac.S, np.eye(2))
    assert np.abs(ac.N1).max() == 0.0 and np.abs(ac.N2).max() == 0.0
    assert np.abs(ac.H1).max() == 0.0 and np.abs(ac.H2).max() == 0.0


def test_static_conversions():
    pm = PmParams(np.eye(2), np.zeros((2, 0)), np.zeros((0, 0)), np.zeros((0, 0)))
    ac = pm_to_ac(pm)
    assert ac.modes == 0 and ac.channels == 1
    back = ac_to_pm(ac)
    assert np.array_equal(back.D, pm.D)


@settings(deadline=None, max_examples=30)
@given(seeds, small_dims)
def test_pm_roundtrip_is_identity(seed, dims):
    n, m = dims
    p = random_pm_params(n, m, np.random.default_rng(seed))
    back = ac_to_pm(pm_to_ac(p))
    scale = max(
        1.0, np.linalg.norm(p.M), np.linalg.norm(p.R), np.linalg.norm(p.Theta)
    )
    for name in ("D", "M", "R", "Theta"):
        dev = np.abs(getattr(back, name) - getattr(p, name)).max()
        assert dev < 1e-10 * scale, f"{name} deviates by {dev}"


@settings(deadline=None, max_examples=30)
@given(seeds, small_dims)
def test_ac_roundtrip_is_identity_up_to_ladder_gauge(seed, dims):
    """E1/E2 are a gauge choice; S, N, H and the commutation matrix must return."""
    n, m = dims
    a = random_ac_params(n, m, np.random.default_rng(seed))
    back = pm_to_ac(ac_to_pm(a))
    scale = max(1.0, np.linalg.norm(a.N1), np.linalg.norm(a.H1), np.linalg.norm(a.H2))
    for name in ("S", "N1", "N2", "H1", "H2"):
        dev = np.abs(getattr(back, name) - getattr(a, name)).max()
        assert dev < 1e-10 * scale, f"{name} deviates by {dev}"
    theta_dev = np.abs(back.theta() - a.theta()).max()
    assert theta_dev < 1e-9 * max(1.0, np.linalg.norm(a.theta()))


@settings(deadline=None, max_examples=20)
@given(seeds, small_dims)
def test_converted_commutation_matrices_are_t_conjugate(seed, dims):
    """theta of the complex side equals (i/2) T* Theta T of the real side."""
    n, m = dims
    p = random_pm_params(n, m, np.random.default_rng(seed))
    a = pm_to_ac(p)
    t = t_matrix(2 * n)
    expected = 0.5j * t.conj().T @ p.Theta @ t
    assert np.abs(a.theta() - expected).max() < 1e-9 * max(
        1.0, np.linalg.norm(p.Theta)
    )


def static_pm(channels=2):
    d = np.eye(2 * channels)
    return PmParams(d, np.zeros((2 * channels, 0)), np.zeros((0, 0)), np.zeros((0, 0)))


def test_zero_mode_ac_realization_shapes():
    css = build_ac_realization(pm_to_ac(static_pm(channels=2)))
    assert css.F.shape == (0, 0)
    assert css.G.shape == (0, 4)
    assert css.L.shape == (4, 0)
    assert np.array_equal(css.K, np.eye(4))
    assert css.structure_residuals() == {"F": 0.0, "G": 0.0, "L": 0.0, "K": 0.0}


def test_zero_mode_ac_theta_is_empty():
    theta = pm_to_ac(static_pm()).theta()
    assert theta.shape == (0, 0) and theta.dtype == complex


def test_zero_mode_realization_consistency_is_exact():
    assert t_conjugation_residual(static_pm()) == 0.0


def test_parameters_need_a_channel():
    with pytest.raises(DimensionError, match="non-empty"):
        PmParams(np.zeros((0, 0)), np.zeros((0, 2)), np.eye(2), j_matrix(2))
    z = np.zeros((0, 0))
    with pytest.raises(DimensionError, match="non-empty"):
        AcParams(z, np.zeros((0, 1)), np.zeros((0, 1)), np.eye(1), np.zeros((1, 1)),
                 np.eye(1), np.zeros((1, 1)))
