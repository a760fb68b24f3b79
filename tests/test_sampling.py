import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqho.sampling import (
    as_rng,
    random_ac_params,
    random_orthogonal,
    random_orthosymplectic,
    random_pm_params,
    random_skew_nonsingular,
    random_symplectic,
    random_unitary,
)
from oqho.structured import (
    _structure_bound,
    is_orthogonal,
    is_symplectic,
    skew_symmetry_residual,
    symplectic_residual,
    unitarity_residual,
)

seeds = st.integers(0, 10**6)


def test_as_rng_passthrough_and_seeding():
    rng = np.random.default_rng(5)
    assert as_rng(rng) is rng
    a = as_rng(7).standard_normal(4)
    b = as_rng(7).standard_normal(4)
    assert np.array_equal(a, b)


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 8))
def test_random_orthogonal(seed, dim):
    q = random_orthogonal(dim, seed)
    assert is_orthogonal(q)


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 8))
def test_random_unitary(seed, dim):
    u = random_unitary(dim, seed)
    assert unitarity_residual(u) <= _structure_bound(u)


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 5))
def test_random_orthosymplectic(seed, half_dim):
    q = random_orthosymplectic(2 * half_dim, seed)
    assert is_orthogonal(q) and is_symplectic(q)


def test_random_orthosymplectic_rejects_odd():
    with pytest.raises(ValueError):
        random_orthosymplectic(3, 0)


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 8))
def test_random_skew_nonsingular(seed, half_dim):
    theta = random_skew_nonsingular(2 * half_dim, seed)
    assert skew_symmetry_residual(theta) <= _structure_bound(theta)
    sv = np.linalg.svd(theta, compute_uv=False)
    assert sv[-1] > 0.4  # pair strengths stay inside the requested range
    assert sv[0] < 2.1


@pytest.mark.parametrize("half_dim", [1, 2, 5, 16])
def test_random_skew_nonsingular_matches_per_pair_reference(half_dim):
    """The canonical block form, built one pair at a time, gives the same draw."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        deltas = rng.uniform(0.5, 2.0, half_dim)
        canon = np.zeros((2 * half_dim, 2 * half_dim))
        for i, d in enumerate(deltas):
            canon[2 * i, 2 * i + 1] = d
            canon[2 * i + 1, 2 * i] = -d
        q = random_orthogonal(2 * half_dim, rng)
        assert np.array_equal(random_skew_nonsingular(2 * half_dim, seed), q @ canon @ q.T)


@settings(deadline=None, max_examples=20)
@given(seeds, st.integers(1, 5))
def test_random_symplectic(seed, half_dim):
    s = random_symplectic(2 * half_dim, seed)
    assert symplectic_residual(s) < 1e-10 * max(1.0, np.linalg.norm(s) ** 2)


@settings(deadline=None, max_examples=15)
@given(seeds, st.integers(1, 3), st.integers(1, 3))
def test_random_pm_params_validate(seed, n, m):
    p = random_pm_params(n, m, seed)
    p.validate()
    assert p.modes == n and p.channels == m


@settings(deadline=None, max_examples=15)
@given(seeds, st.integers(1, 3), st.integers(1, 3))
def test_random_ac_params_validate(seed, n, m):
    a = random_ac_params(n, m, seed)
    a.validate()
    assert a.modes == n and a.channels == m


def test_generators_are_deterministic_per_seed():
    p1 = random_pm_params(2, 2, 99)
    p2 = random_pm_params(2, 2, 99)
    for name in ("D", "M", "R", "Theta"):
        assert np.array_equal(getattr(p1, name), getattr(p2, name))
