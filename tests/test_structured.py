import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqho.errors import DimensionError, SingularMatrixError, StructureError
from oqho.forms import AcParams, PmParams
from oqho.realizability import check_pr_time_domain
from oqho.skewfactor import cholesky_like
from oqho.statespace import StateSpace, inverse_realization, similarity_transform
from oqho.structured import (
    SINGULARITY_CUTOFF,
    STRUCTURE_ABSOLUTE,
    STRUCTURE_RELATIVE,
    _structure_bound,
    bold_j_matrix,
    doubled_up,
    doubled_up_residual,
    extract_bold_blocks,
    hermitian_residual,
    j_matrix,
    nabla,
    orthogonality_residual,
    skew_symmetry_residual,
    symmetry_residual,
    symplectic_residual,
    t_matrix,
    unitarity_residual,
)
from oqho.worked_example import example_state_space

seeds = st.integers(0, 10**6)


def test_j_matrix_block_form():
    j = j_matrix(4)
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    assert np.array_equal(j, expected)


def test_j_matrix_squares_to_minus_identity():
    for r in (2, 4, 8, 20):
        assert np.linalg.norm(j_matrix(r) @ j_matrix(r) + np.eye(r)) < 1e-14


def test_bold_j_matrix_squares_to_identity():
    for r in (2, 6, 12):
        bj = bold_j_matrix(r)
        assert np.linalg.norm(bj @ bj - np.eye(r)) < 1e-14
        assert np.array_equal(np.diag(bj), np.r_[np.ones(r // 2), -np.ones(r // 2)])


@pytest.mark.parametrize("r", [0, 2, 4, 10, 64])
def test_structured_matrices_match_kronecker_products_byte_for_byte(r):
    """Signed zeros included: kron gives -0.0 wherever a factor of -1 meets a 0."""
    eye = np.eye(r // 2)
    kron = {
        j_matrix: np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), eye),
        bold_j_matrix: np.kron(np.diag([1.0, -1.0]), eye),
        t_matrix: np.kron(np.array([[1.0, 1.0], [-1.0j, 1.0j]]), eye),
    }
    for fn, want in kron.items():
        got = fn(r)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [1, 3, -2])
def test_structured_matrices_reject_bad_dimensions(bad):
    for fn in (j_matrix, bold_j_matrix, t_matrix):
        with pytest.raises(DimensionError):
            fn(bad)


def test_structured_matrices_of_size_zero_are_empty():
    for fn in (j_matrix, bold_j_matrix, t_matrix):
        assert fn(0).shape == (0, 0)


def test_structured_matrices_are_fresh_and_writable():
    for fn in (j_matrix, bold_j_matrix):
        first = fn(4)
        want = first.copy()
        assert first.flags.writeable and fn(4) is not first
        first[...] = 7.0
        assert np.array_equal(fn(4), want)


def test_t_matrix_identities():
    for k in (2, 4, 8, 16, 32):
        t = t_matrix(k)
        assert np.linalg.norm(t @ t.conj().T - 2.0 * np.eye(k)) < 1e-13
        lhs = 0.5 * t @ bold_j_matrix(k) @ t.conj().T
        assert np.linalg.norm(lhs - 1j * j_matrix(k)) < 1e-13


def test_doubled_up_layout():
    x1 = np.array([[1 + 2j]])
    x2 = np.array([[3 - 1j]])
    out = doubled_up(x1, x2)
    assert out.shape == (2, 2)
    assert out[0, 0] == 1 + 2j and out[0, 1] == 3 - 1j
    assert out[1, 0] == 3 + 1j and out[1, 1] == 1 - 2j
    assert doubled_up_residual(out) == 0.0


@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (3, 2), (0, 2), (2, 0)])
def test_block_forms_match_np_block_byte_for_byte(rows, cols):
    """Signed zeros included: the real and imaginary parts hold +-0.0 entries."""
    rng = np.random.default_rng(10 * rows + cols)
    x1 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    x2 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    x1.flat[::2] = complex(0.0, -0.0)
    x2.flat[1::2] = complex(-0.0, 0.0)
    plus, minus = x1 + x2, x1 - x2
    refs = {
        doubled_up: np.block([[x1, x2], [x2.conj(), x1.conj()]]),
        nabla: np.block([[plus.real, -minus.imag], [plus.imag, minus.real]]),
    }
    for fn, want in refs.items():
        got = fn(x1, x2)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_doubled_up_shape_mismatch():
    with pytest.raises(DimensionError):
        doubled_up(np.zeros((2, 2)), np.zeros((2, 3)))


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(1, 4), st.integers(1, 4))
def test_nabla_extract_roundtrip(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    x2 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    real_form = nabla(x1, x2)
    assert real_form.dtype == float
    y1, y2 = extract_bold_blocks(real_form)
    assert np.linalg.norm(y1 - x1) < 1e-12
    assert np.linalg.norm(y2 - x2) < 1e-12


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 3), st.integers(1, 3))
def test_nabla_is_t_conjugated_doubled_up(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    x2 = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    lhs = nabla(x1, x2).astype(complex)
    rhs = 0.5 * t_matrix(2 * rows) @ doubled_up(x1, x2) @ t_matrix(2 * cols).conj().T
    assert np.linalg.norm(lhs - rhs) < 1e-12


def accepted(residual, mat) -> bool:
    """The structure decision of the package: ``residual`` within the bound."""
    return residual(mat) <= _structure_bound(mat)


def test_identity_is_orthogonal_symplectic_and_not_skew():
    eye = np.eye(4)
    assert accepted(orthogonality_residual, eye)
    assert accepted(symplectic_residual, eye)
    assert not accepted(skew_symmetry_residual, eye)
    assert accepted(symmetry_residual, eye)


def test_j_is_orthogonal_and_symplectic_and_skew():
    j = j_matrix(4)
    assert accepted(orthogonality_residual, j)
    assert accepted(symplectic_residual, j)
    assert accepted(skew_symmetry_residual, j)


def test_diagonal_scaling_fails_both_groups():
    mat = np.diag([2.0, 1.0, 1.0, 1.0])
    assert not accepted(orthogonality_residual, mat)
    assert not accepted(symplectic_residual, mat)
    assert orthogonality_residual(mat) > 1.0
    assert symplectic_residual(mat) > 0.5


def test_hermitian_and_unitary_predicates():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    assert accepted(hermitian_residual, h)
    assert not accepted(hermitian_residual, h + 1j * np.eye(2))
    phase = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    assert accepted(unitarity_residual, phase)
    assert not accepted(unitarity_residual, 2.0 * phase)


def test_is_doubled_up_detects_pattern_violation():
    x = doubled_up(np.array([[1 + 1j]]), np.array([[2.0]]))
    assert accepted(doubled_up_residual, x)
    x[1, 1] = 5.0
    assert not accepted(doubled_up_residual, x)


def test_structure_bound_constants():
    assert STRUCTURE_ABSOLUTE == 1e-10 and STRUCTURE_RELATIVE == 1e-8
    assert _structure_bound(np.diag([6.0, 8.0])) == 1e-10 + 1e-8 * 10.0


def unit(i, j):
    e = np.zeros((4, 4))
    e[i, j] = 1.0
    return e


def q_rotation(eps):
    """Rotation of the two positions alone: orthogonal, not symplectic."""
    d = np.eye(4)
    d[:2, :2] = [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]]
    return d


_HERMITIAN = (np.diag([1.0, -3.0, 2.0, 0.5])
              + (2.0 - 1.0j) * unit(0, 1) + (2.0 + 1.0j) * unit(1, 0))
_DOUBLED = doubled_up(np.array([[1 + 1j, 0.5], [0.0, 2.0]]),
                      np.array([[0.3, 1j], [0.2, 0.0]]))

# 4x4 matrix families moved off their structure by eps: (matrix of eps, residual).
STRUCTURE_FAMILIES = {
    "shear": (lambda eps: np.eye(4) + eps * unit(0, 2), orthogonality_residual),
    "q_rotation": (q_rotation, symplectic_residual),
    "symmetric": (lambda eps: 3.0 * np.eye(4) + eps * unit(0, 1), symmetry_residual),
    "skew": (lambda eps: 2.0 * j_matrix(4) + eps * unit(0, 1), skew_symmetry_residual),
    "unitary": (lambda eps: (1.0 + eps) * np.diag(np.exp([0.3j, -1.1j, 0.7j, 2.0j])),
                unitarity_residual),
    "hermitian": (lambda eps: _HERMITIAN + 1j * eps * unit(0, 1), hermitian_residual),
    "doubled_up": (lambda eps: _DOUBLED + eps * unit(3, 3), doubled_up_residual),
}


def at_bound(family, fraction):
    """The member of ``family`` whose residual is ``fraction`` times its
    structure bound, the bound computed here from the two constants."""
    make, residual = STRUCTURE_FAMILIES[family]

    def ratio(eps):
        mat = make(eps)
        bound = STRUCTURE_ABSOLUTE + STRUCTURE_RELATIVE * np.linalg.norm(mat)
        return residual(mat) / bound

    lo, hi = 0.0, 1e-4
    assert ratio(lo) < fraction < ratio(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio(mid) < fraction else (lo, mid)
    assert ratio(hi) == pytest.approx(fraction, rel=1e-6)
    return make(hi)


_PM = {"D": np.eye(4), "M": np.zeros((4, 4)), "R": 3.0 * np.eye(4),
       "Theta": 2.0 * j_matrix(4)}
_AC = {"S": np.eye(4), "N1": np.zeros((4, 4)), "N2": np.zeros((4, 4)), "H1": np.eye(4),
       "H2": np.zeros((4, 4)), "E1": np.eye(4), "E2": np.zeros((4, 4))}

# site: (family, name of the refused object, residual key, call on the matrix)
STRUCTURE_SITES = {
    "PmParams.validate D orthogonal": (
        "shear", "position-momentum parameters", "d_orthogonality",
        lambda x: PmParams(**{**_PM, "D": x}).validate()),
    "PmParams.validate D symplectic": (
        "q_rotation", "position-momentum parameters", "d_symplectic",
        lambda x: PmParams(**{**_PM, "D": x}).validate()),
    "PmParams.validate R symmetric": (
        "symmetric", "position-momentum parameters", "r_symmetry",
        lambda x: PmParams(**{**_PM, "R": x}).validate()),
    "PmParams.validate Theta skew": (
        "skew", "position-momentum parameters", "theta_skew_symmetry",
        lambda x: PmParams(**{**_PM, "Theta": x}).validate()),
    "AcParams.validate S unitary": (
        "unitary", "annihilation-creation parameters", "s_unitarity",
        lambda x: AcParams(**{**_AC, "S": x}).validate()),
    "AcParams.validate H1 Hermitian": (
        "hermitian", "annihilation-creation parameters", "h1_hermitian",
        lambda x: AcParams(**{**_AC, "H1": x}).validate()),
    "AcParams.validate H2 symmetric": (
        "symmetric", "annihilation-creation parameters", "h2_symmetry",
        lambda x: AcParams(**{**_AC, "H2": x}).validate()),
    "cholesky_like": ("skew", "skew matrix", "skew_symmetry", cholesky_like),
    "check_pr_time_domain": (
        "skew", "commutation matrix Theta", "theta_skew_symmetry",
        lambda x: check_pr_time_domain(example_state_space(), x)),
}


@pytest.mark.parametrize("site", list(STRUCTURE_SITES))
def test_one_structure_rule_at_every_site(site):
    """A residual 0.1% below its bound is accepted; 0.1% above it is refused
    in the one message format, naming the residual and its bound."""
    family, name, key, call = STRUCTURE_SITES[site]
    call(at_bound(family, 1.0 - 1e-3))
    mat = at_bound(family, 1.0 + 1e-3)
    with pytest.raises(StructureError) as exc:
        call(mat)
    residual = exc.value.residuals[key]
    bound = STRUCTURE_ABSOLUTE + STRUCTURE_RELATIVE * np.linalg.norm(mat)
    assert residual == pytest.approx((1.0 + 1e-3) * bound, rel=1e-6)
    assert str(exc.value) == (
        f"invalid {name}: {key} residual {residual:.3e} above bound {bound:.3e}"
    )


# each structure decision, by the name of the property it decides
PREDICATES = {
    "is_orthogonal": lambda mat: accepted(orthogonality_residual, mat),
    "is_unitary": lambda mat: accepted(unitarity_residual, mat),
    "is_symplectic": lambda mat: accepted(symplectic_residual, mat),
    "is_orthosymplectic": lambda mat: (accepted(orthogonality_residual, mat)
                                       and accepted(symplectic_residual, mat)),
    "is_skew_symmetric": lambda mat: accepted(skew_symmetry_residual, mat),
    "is_symmetric": lambda mat: accepted(symmetry_residual, mat),
    "is_hermitian": lambda mat: accepted(hermitian_residual, mat),
    "is_doubled_up": lambda mat: accepted(doubled_up_residual, mat),
}


@pytest.mark.parametrize("predicate, family", [
    ("is_orthogonal", "shear"),
    ("is_unitary", "unitary"),
    ("is_symplectic", "q_rotation"),
    ("is_orthosymplectic", "shear"),
    ("is_orthosymplectic", "q_rotation"),
    ("is_skew_symmetric", "skew"),
    ("is_symmetric", "symmetric"),
    ("is_hermitian", "hermitian"),
    ("is_doubled_up", "doubled_up"),
])
def test_predicates_share_the_structure_bound(predicate, family):
    assert PREDICATES[predicate](at_bound(family, 1.0 - 1e-3)) is True
    assert PREDICATES[predicate](at_bound(family, 1.0 + 1e-3)) is False


def test_residuals_require_square_input():
    with pytest.raises(DimensionError):
        orthogonality_residual(np.zeros((2, 3)))


def singular_rule_site(site, ratio):
    """(matrix name, call) of one site of the singular-matrix rule, on a
    matrix whose smallest/largest singular-value ratio is ``ratio``."""
    two = np.diag([1.0, ratio])
    theta = np.zeros((4, 4))
    theta[0, 1], theta[2, 3] = 1.0, ratio
    theta -= theta.T
    eye, zero = np.eye(2), np.zeros((2, 2))
    stable = StateSpace(-eye, eye, eye, eye)
    pm = PmParams(eye, np.zeros((2, 4)), np.eye(4), theta)
    ac = AcParams(np.eye(1), np.zeros((1, 2)), np.zeros((1, 2)), eye, zero, two, zero)
    return {
        "inverse_realization": ("feedthrough D", lambda: inverse_realization(StateSpace.static(two))),
        "similarity_transform": ("similarity transform", lambda: similarity_transform(stable, two)),
        "PmParams.validate": ("commutation matrix Theta", pm.validate),
        "check_pr_time_domain": (
            "commutation matrix Theta", lambda: check_pr_time_domain(example_state_space(), theta)),
        "cholesky_like": ("skew matrix", lambda: cholesky_like(theta)),
        "AcParams.validate": ("ladder transformation E", ac.validate),
    }[site]


@pytest.mark.parametrize("site", [
    "inverse_realization", "similarity_transform", "PmParams.validate",
    "check_pr_time_domain", "cholesky_like", "AcParams.validate",
])
def test_one_singular_matrix_rule_at_every_site(site):
    """A ratio 0.1% below SINGULARITY_CUTOFF is refused in the one message
    format; 0.1% above it is accepted."""
    name, call = singular_rule_site(site, SINGULARITY_CUTOFF * (1.0 - 1e-3))
    with pytest.raises(SingularMatrixError) as exc:
        call()
    message = str(exc.value)
    assert message.startswith(f"{name} is singular to working precision ")
    ratio = float(message.split("(smallest/largest singular value ")[1].rstrip(")"))
    assert ratio == pytest.approx(SINGULARITY_CUTOFF * (1.0 - 1e-3), rel=1e-3)
    _, call = singular_rule_site(site, SINGULARITY_CUTOFF * (1.0 + 1e-3))
    call()


def test_complex_input_counts_its_imaginary_part():
    mat = np.eye(2) + 1j * np.ones((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orthogonality_residual(mat) > 1.0
        assert symplectic_residual(mat) > 1.0
        assert not accepted(orthogonality_residual, mat)
        assert not accepted(symplectic_residual, mat)


def test_real_residuals_are_the_float_formulas():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((4, 4))
    j = j_matrix(4)
    assert orthogonality_residual(mat) == float(np.linalg.norm(mat.T @ mat - np.eye(4)))
    assert symplectic_residual(mat) == float(np.linalg.norm(mat.T @ j @ mat - j))
    assert orthogonality_residual(np.eye(2, dtype=int)) == 0.0
