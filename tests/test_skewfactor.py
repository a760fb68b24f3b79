import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqho.errors import DimensionError, SingularMatrixError, StructureError
from oqho.sampling import random_orthogonal, random_skew_nonsingular, random_symplectic
from oqho.skewfactor import cholesky_like, relate_ccr
from oqho.structured import j_matrix, orthogonality_residual, symplectic_residual

seeds = st.integers(0, 10**6)


def canonical_blocks(deltas):
    out = np.zeros((2 * len(deltas), 2 * len(deltas)))
    for i, d in enumerate(deltas):
        out[2 * i, 2 * i + 1] = d
        out[2 * i + 1, 2 * i] = -d
    return out


def reference_murnaghan(theta):
    """The per-pair construction of the canonical form: one Python pass per
    +delta eigenvector of i*Theta, each phase fixed so that the largest-norm
    row of the pair becomes (positive, 0)."""
    theta = 0.5 * (theta - theta.T)
    n = theta.shape[0] // 2
    evals, evecs = np.linalg.eigh(1j * theta)
    order = np.argsort(evals)[::-1][:n]
    columns = []
    for i in order:
        w = evecs[:, i]
        block = np.column_stack([np.sqrt(2.0) * w.imag, np.sqrt(2.0) * w.real])
        r = int(np.argmax(np.linalg.norm(block, axis=1)))
        a, b = block[r, 0], block[r, 1]
        h = np.hypot(a, b)
        columns.append(block @ np.array([[a / h, -b / h], [b / h, a / h]]))
    return np.hstack(columns), evals[order].astype(float)


def reference_cholesky_like(theta):
    """Sigma = O diag(sqrt d) P with P the interleaving permutation matrix."""
    o, deltas = reference_murnaghan(theta)
    n = deltas.size
    perm = np.zeros((2 * n, 2 * n))
    for i in range(n):
        perm[2 * i, i] = 1.0
        perm[2 * i + 1, n + i] = 1.0
    return o @ np.diag(np.repeat(np.sqrt(deltas), 2)) @ perm, o, deltas


def reference_corpus():
    rng = np.random.default_rng(2024)
    for dim in (2, 4, 6, 10, 16, 32, 64, 128, 256):
        for _ in range(3 if dim > 64 else 8):
            yield random_skew_nonsingular(dim, rng)
        x = rng.standard_normal((dim, dim))
        yield x - x.T
        yield j_matrix(dim)
        yield 3.0 * j_matrix(dim)


def test_factorizations_match_per_pair_reference_bit_for_bit():
    previous = None
    for theta in reference_corpus():
        sigma, o, deltas = reference_cholesky_like(theta)
        fact = cholesky_like(theta)
        assert np.array_equal(fact.O, o) and np.array_equal(fact.deltas, deltas)
        assert np.array_equal(fact.Sigma, sigma)
        if previous is not None and previous[1].shape == theta.shape:
            ref = np.linalg.solve(previous[0].T, sigma.T).T
            assert np.array_equal(relate_ccr(theta, previous[1]), ref)
        previous = sigma, theta


def test_empty_matrix_factors_to_empty_arrays():
    fact = cholesky_like(np.zeros((0, 0)))
    for mat in (fact.O, fact.Sigma):
        assert mat.shape == (0, 0)
    assert fact.deltas.shape == (0,) and fact.deltas.dtype == float


def test_canonical_form_already_canonical():
    theta = np.array([[0.0, 3.0], [-3.0, 0.0]])
    fact = cholesky_like(theta)
    o, deltas = fact.O, fact.deltas
    assert np.allclose(o, np.eye(2), atol=1e-12)
    assert np.allclose(deltas, [3.0])


def test_canonical_form_of_j():
    fact = cholesky_like(j_matrix(4))
    o, deltas = fact.O, fact.deltas
    assert np.allclose(deltas, [1.0, 1.0])
    assert orthogonality_residual(o) < 1e-10
    rebuilt = o @ canonical_blocks(deltas) @ o.T
    assert np.linalg.norm(rebuilt - j_matrix(4)) < 1e-10


def test_canonical_form_recovers_known_deltas():
    rng = np.random.default_rng(9)
    q = random_orthogonal(4, rng)
    theta = q @ canonical_blocks([5.0, 2.0]) @ q.T
    fact = cholesky_like(theta)
    o, deltas = fact.O, fact.deltas
    assert np.allclose(deltas, [5.0, 2.0], atol=1e-10)
    assert np.linalg.norm(o @ canonical_blocks(deltas) @ o.T - theta) < 1e-10


def test_cholesky_like_rejects_non_skew():
    with pytest.raises(StructureError):
        cholesky_like(np.eye(4))


def test_cholesky_like_rejects_odd_dimension():
    with pytest.raises(DimensionError):
        cholesky_like(np.zeros((3, 3)))


def test_cholesky_like_rejects_singular():
    theta = np.zeros((4, 4))
    theta[0, 1], theta[1, 0] = 1.0, -1.0  # rank-2 only
    with pytest.raises(SingularMatrixError):
        cholesky_like(theta)


def test_cholesky_like_on_j_reproduces_j():
    fact = cholesky_like(j_matrix(6))
    assert fact.reconstruction_residual(j_matrix(6)) < 1e-12
    assert np.allclose(fact.deltas, np.ones(3))


def test_cholesky_like_scaled_j():
    theta = 4.0 * j_matrix(4)
    fact = cholesky_like(theta)
    assert np.linalg.norm(fact.Sigma @ fact.Sigma.T - 4.0 * np.eye(4)) < 1e-10
    assert np.linalg.norm(fact.Sigma @ j_matrix(4) @ fact.Sigma.T - theta) < 1e-10


@settings(deadline=None, max_examples=40)
@given(seeds, st.integers(1, 10))
def test_cholesky_like_reconstruction_property(seed, half_dim):
    theta = random_skew_nonsingular(2 * half_dim, np.random.default_rng(seed))
    fact = cholesky_like(theta)
    assert fact.reconstruction_residual(theta) < 1e-10
    assert orthogonality_residual(fact.O) < 1e-10
    assert np.all(fact.deltas > 0)
    assert np.all(np.diff(fact.deltas) <= 1e-12)


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(1, 6))
def test_deltas_match_eigenvalues(seed, half_dim):
    """Cross-check against a plain eigensolve: spectrum of skew Theta is +/- i delta."""
    theta = random_skew_nonsingular(2 * half_dim, np.random.default_rng(seed))
    fact = cholesky_like(theta)
    imag = np.linalg.eigvals(theta).imag
    positive = np.sort(imag[imag > 0])[::-1]
    assert positive.size == half_dim
    assert np.allclose(positive, fact.deltas, atol=1e-9)


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(1, 5))
def test_gauge_freedom_symplectic_right_factor(seed, half_dim):
    rng = np.random.default_rng(seed)
    theta = random_skew_nonsingular(2 * half_dim, rng)
    sigma = cholesky_like(theta).Sigma
    gauge = random_symplectic(2 * half_dim, rng)
    moved = sigma @ gauge
    j = j_matrix(2 * half_dim)
    assert np.linalg.norm(moved @ j @ moved.T - theta) < 1e-8 * max(
        1.0, np.linalg.norm(theta)
    )


def test_cholesky_like_is_deterministic():
    theta = random_skew_nonsingular(8, np.random.default_rng(123))
    a = cholesky_like(theta).Sigma
    b = cholesky_like(theta.copy()).Sigma
    assert np.array_equal(a, b)


def test_relate_ccr_identity_pair_is_symplectic():
    s_hat = relate_ccr(j_matrix(4), j_matrix(4))
    assert symplectic_residual(s_hat) < 1e-10


def test_relate_ccr_scaled_pair():
    s_hat = relate_ccr(2.0 * j_matrix(4), j_matrix(4))
    j = j_matrix(4)
    assert np.linalg.norm(s_hat @ j @ s_hat.T - 2.0 * j) < 1e-10


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(1, 4))
def test_relate_ccr_property(seed, half_dim):
    rng = np.random.default_rng(seed)
    theta_1 = random_skew_nonsingular(2 * half_dim, rng)
    theta_2 = random_skew_nonsingular(2 * half_dim, rng)
    s_hat = relate_ccr(theta_1, theta_2)
    resid = np.linalg.norm(s_hat @ theta_2 @ s_hat.T - theta_1)
    assert resid < 1e-9 * max(1.0, np.linalg.norm(theta_1))


def test_relate_ccr_dimension_mismatch():
    with pytest.raises(DimensionError):
        relate_ccr(j_matrix(4), j_matrix(6))


def test_empty_factorization_reconstructs_exactly():
    assert cholesky_like(np.zeros((0, 0))).reconstruction_residual(np.zeros((0, 0))) == 0.0


@pytest.fixture
def eigh_calls(monkeypatch):
    """The list that gains one entry per np.linalg.eigh call."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(None) or eigh(a))
    return calls


def test_non_skew_input_is_refused_although_its_skew_part_is_memoized(eigh_calls):
    theta = np.array([[0.0, 2.0, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 3.0], [0.0, 0.0, -3.0, 0.0]])
    bad = theta.copy()
    bad[0, 1], bad[1, 0] = 3.0, -1.0
    assert (0.5 * (bad - bad.T)).tobytes() == (0.5 * (theta - theta.T)).tobytes()
    cholesky_like(theta)
    refusals = []
    for _ in range(3):
        with pytest.raises(StructureError) as exc:
            cholesky_like(bad)
        refusals.append((str(exc.value), exc.value.residuals))
    assert refusals == [refusals[0]] * 3
    assert len(eigh_calls) == 1


def test_theta_changed_in_place_is_factored_afresh(eigh_calls):
    theta = random_skew_nonsingular(6, np.random.default_rng(31))
    first = cholesky_like(theta)
    theta *= 2.0
    second = cholesky_like(theta)
    assert len(eigh_calls) == 2
    assert np.allclose(second.deltas, 2.0 * first.deltas, rtol=1e-12)
    assert np.array_equal(second.Sigma, reference_cholesky_like(theta)[0])


def test_exactly_skew_part_shares_the_factor_of_its_source(eigh_calls):
    """The skew part that PmParams.symmetrized stores factors from the memo
    entry of the matrix it came from, bit for bit."""
    theta = random_skew_nonsingular(8, np.random.default_rng(32))
    theta[0, 1] += 1e-12  # within the structure rule, not exactly skew
    first = cholesky_like(theta)
    skew = 0.5 * (theta - theta.T)
    assert not np.array_equal(skew, theta)
    second = cholesky_like(skew)
    assert len(eigh_calls) == 1
    for key in ("Sigma", "O", "deltas"):
        assert np.array_equal(getattr(first, key), getattr(second, key))


def test_changing_a_returned_factor_leaves_the_next_result_unchanged():
    theta = random_skew_nonsingular(6, np.random.default_rng(33))
    fact = cholesky_like(theta)
    want = [x.copy() for x in (fact.Sigma, fact.O, fact.deltas)]
    for x in (fact.Sigma, fact.O, fact.deltas):
        assert x.flags.writeable
        x[...] = 0.0
    again = cholesky_like(theta)
    got = [again.Sigma, again.O, again.deltas]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_skew_form_memo_keeps_the_last_two(eigh_calls):
    thetas = [float(k + 1) * j_matrix(4) for k in range(3)]
    for theta in thetas:
        cholesky_like(theta)
    cholesky_like(thetas[2])
    cholesky_like(thetas[1])
    assert len(eigh_calls) == 3
    cholesky_like(thetas[0])  # evicted by the third
    assert len(eigh_calls) == 4
