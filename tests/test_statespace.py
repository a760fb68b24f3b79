import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqho.errors import DimensionError, NearPoleError, SingularMatrixError
from oqho.forms import build_pm_realization
from oqho.sampling import random_orthogonal, random_pm_params
from oqho.statespace import (
    RationalEntry,
    StateSpace,
    block_diag,
    eval_conjugate_tf,
    eval_tf,
    evaluate,
    inverse_realization,
    is_minimal,
    match_multisets,
    minimal_realization,
    poles,
    similarity_transform,
    siso_realization,
    spectrum_report,
    transmission_zeros,
)
from oqho.worked_example import example_rational_entries, example_state_space

seeds = st.integers(0, 10**6)

SRC = Path(__file__).resolve().parents[1] / "src"


def random_system(seed, n=4, m=2):
    """Generic well-conditioned system with invertible D."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((m, n))
    d = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
    return StateSpace(a, b, c, d)


def sample_away_from(ss, rng, count=8):
    lam = poles(ss)
    pts = []
    while len(pts) < count:
        s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if lam.size == 0 or np.min(np.abs(lam - s)) > 1e-2:
            pts.append(s)
    return pts


class TestRationalEntry:
    def test_strips_leading_zeros(self):
        e = RationalEntry((0.0, 0.0, 2.0, 1.0), (0.0, 1.0, 3.0))
        assert e.num == (2.0, 1.0)
        assert e.den == (1.0, 3.0)
        assert e.degree == 1

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            RationalEntry((1.0,), (0.0, 0.0))

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            RationalEntry((1.0, 0.0, 0.0), (1.0, 1.0))

    def test_evaluation(self):
        e = RationalEntry((1.0, 1.0), (1.0, 0.0))  # (s+1)/s
        assert abs(e(2.0) - 1.5) < 1e-15
        assert abs(e(1j) - (1j + 1) / 1j) < 1e-15

    def test_zero_numerator(self):
        e = RationalEntry((), (1.0, 2.0))
        assert e(5.0) == 0.0


def test_static_constructor():
    ss = StateSpace.static([[2.0, 0.0], [0.0, 3.0]])
    assert ss.state_dim == 0
    assert np.array_equal(eval_tf(ss, 1.7), np.diag([2.0, 3.0]))


def test_dimension_validation():
    with pytest.raises(DimensionError):
        StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(DimensionError):
        StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))


def test_require_square_channels():
    ss = random_system(0, n=4, m=2)
    assert ss.require_square_channels() == 2
    tall = StateSpace(ss.A, ss.B, np.vstack([ss.C, ss.C]), np.vstack([ss.D, ss.D]))
    with pytest.raises(DimensionError):
        tall.require_square_channels()
    odd_state = random_system(1, n=3, m=2)
    with pytest.raises(DimensionError):
        odd_state.require_square_channels()


@settings(deadline=None, max_examples=25)
@given(seeds)
def test_siso_realization_matches_entry(seed):
    rng = np.random.default_rng(seed)
    den = rng.uniform(-2, 2, rng.integers(2, 5))
    den[0] = rng.uniform(0.5, 2.0)
    num = rng.uniform(-2, 2, len(den))
    entry = RationalEntry(tuple(num), tuple(den))
    ss = siso_realization(entry)
    assert ss.state_dim == entry.degree
    for s in sample_away_from(ss, rng, count=6):
        assert abs(eval_tf(ss, s)[0, 0] - entry(s)) < 1e-8 * max(1.0, abs(entry(s)))


def test_siso_realization_static_entry():
    ss = siso_realization(RationalEntry((3.0,), (2.0,)))
    assert ss.state_dim == 0
    assert eval_tf(ss, 0.0)[0, 0] == 1.5


def test_block_diag_matches_entries():
    entries = example_rational_entries()
    ss = block_diag([siso_realization(e) for e in entries])
    rng = np.random.default_rng(3)
    for s in sample_away_from(ss, rng, count=6):
        g = eval_tf(ss, s)
        ref = np.diag([e(s) for e in entries])
        assert np.linalg.norm(g - ref) < 1e-10 * max(1.0, np.linalg.norm(ref))


def test_block_diag_empty_rejected():
    with pytest.raises(DimensionError):
        block_diag([])


def test_eval_tf_near_pole_guard():
    ss = example_state_space()
    with pytest.raises(NearPoleError):
        eval_tf(ss, 1.0 + 1e-12)
    with pytest.raises(NearPoleError):
        eval_tf(ss, 0.0)


def test_example_values_at_two():
    """Frozen values from substituting s = 2 and s = -2 into the entries."""
    ss = example_state_space()
    g = eval_tf(ss, 2.0)
    assert np.linalg.norm(g - np.diag([1.5, 1.0 / 3.0, 2.0, 1.0 / 3.0])) < 1e-12
    gc = eval_conjugate_tf(ss, 2.0)
    assert np.linalg.norm(gc - np.diag([0.5, 3.0, 2.0 / 3.0, 3.0])) < 1e-12


@settings(deadline=None, max_examples=20)
@given(seeds)
def test_conjugate_tf_is_adjoint_at_reflected_point(seed):
    ss = random_system(seed)
    rng = np.random.default_rng(seed + 1)
    for s in sample_away_from(ss, rng, count=4):
        direct = eval_tf(ss, -np.conj(s)).conj().T
        assert np.linalg.norm(eval_conjugate_tf(ss, s) - direct) == 0.0


@settings(deadline=None, max_examples=20)
@given(seeds)
def test_inverse_realization_inverts_pointwise(seed):
    ss = random_system(seed)
    inv = inverse_realization(ss)
    rng = np.random.default_rng(seed + 2)
    lam = np.concatenate([poles(ss), poles(inv)])
    count = 0
    while count < 5:
        s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if np.min(np.abs(lam - s)) < 1e-2:
            continue
        prod = eval_tf(ss, s) @ eval_tf(inv, s)
        assert np.linalg.norm(prod - np.eye(ss.num_outputs)) < 1e-10 * max(
            1.0, np.linalg.norm(prod)
        )
        count += 1


def test_inverse_realization_rejects_singular_feedthrough():
    ss = random_system(5)
    bad = StateSpace(ss.A, ss.B, ss.C, np.zeros_like(ss.D))
    with pytest.raises(SingularMatrixError):
        inverse_realization(bad)


@settings(deadline=None, max_examples=20)
@given(seeds)
def test_similarity_preserves_poles_and_values(seed):
    ss = random_system(seed)
    rng = np.random.default_rng(seed + 3)
    t = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    moved = similarity_transform(ss, t)
    assert match_multisets(poles(ss), poles(moved), tol=1e-7)[0]
    for s in sample_away_from(ss, rng, count=3):
        assert np.linalg.norm(eval_tf(ss, s) - eval_tf(moved, s)) < 1e-8


def test_minimal_realization_strips_hidden_modes():
    core = example_state_space()
    hidden = StateSpace(
        np.diag([-5.0, -6.0]), np.zeros((2, 4)), np.zeros((4, 2)), np.zeros((4, 4))
    )
    padded = StateSpace(
        np.block([[core.A, np.zeros((4, 2))], [np.zeros((2, 4)), hidden.A]]),
        np.vstack([core.B, hidden.B]),
        np.hstack([core.C, hidden.C]),
        core.D,
    )
    assert not is_minimal(padded)
    reduced = minimal_realization(padded)
    assert reduced.state_dim == 4
    assert is_minimal(reduced)
    rng = np.random.default_rng(11)
    for s in sample_away_from(core, rng, count=5):
        assert np.linalg.norm(eval_tf(reduced, s) - eval_tf(core, s)) < 1e-8


def test_example_is_minimal():
    assert is_minimal(example_state_space())


def test_minimal_realization_returns_a_minimal_input_itself():
    ss = example_state_space()
    assert minimal_realization(ss) is ss


def test_staircase_refuses_infinite_entries():
    """An inf in A, B or C is refused before the staircase SVD, which may never
    return on it; the calls run in a child process so that a hang fails."""
    script = """
import numpy as np
from oqho.realizability import synthesize
from oqho.statespace import is_minimal, minimal_realization
from oqho.worked_example import example_state_space
for key in "ABC":
    for value in (np.inf, -np.inf):
        for call in (is_minimal, minimal_realization, synthesize):
            ss = example_state_space()
            getattr(ss, key)[0, 0] = value
            try:
                call(ss)
            except np.linalg.LinAlgError as exc:
                assert str(exc) == "Array must not contain infs or NaNs", exc
            else:
                raise AssertionError(f"{call.__name__} accepted {value} in {key}")
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr


def reference_controllability_matrix(a, b):
    """The Krylov matrix [B, AB, ..., A^{n-1} B] the staircase replaced."""
    blocks = [b]
    for _ in range(a.shape[0] - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def reference_numeric_rank(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(sv > max(mat.shape) * np.finfo(float).eps * sv[0]))


def reference_is_minimal(ss):
    n = ss.state_dim
    return (
        reference_numeric_rank(reference_controllability_matrix(ss.A, ss.B)) == n
        and reference_numeric_rank(reference_controllability_matrix(ss.A.T, ss.C.T)) == n
    )


def test_is_minimal_equals_krylov_reference_on_acceptance_draws():
    """Same verdicts as the Krylov rank test on the acceptance corpus draws.

    The walk mirrors the corpus fixture in test_acceptance.py (seeds from
    1000, (modes, channels) cycling over {1,2,3}^2 as draws are kept), so the
    is_minimal filters there keep exactly the same test data.
    """
    dims = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    kept = 0
    for seed in range(1000, 3000):
        n, m = dims[kept % len(dims)]
        ss = build_pm_realization(random_pm_params(n, m, np.random.default_rng(seed)))
        want = reference_is_minimal(ss)
        assert is_minimal(ss) == want, seed
        kept += want


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("modes", [8, 16, 32, 64])
def test_random_pr_systems_are_minimal_at_scale(modes, channels):
    rng = np.random.default_rng(100 * modes + channels)
    for _ in range(5):
        assert is_minimal(build_pm_realization(random_pm_params(modes, channels, rng)))


def test_is_minimal_at_256_states():
    ss = build_pm_realization(random_pm_params(128, 2, np.random.default_rng(256)))
    assert is_minimal(ss)


def padded_system(core, hidden, rng):
    """core plus 2 hidden states, mixed by a random orthogonal similarity.

    ``hidden`` is "uncontrollable", "unobservable" or "both"; the coupling
    blocks follow the Kalman decomposition, so the transfer function is core's.
    """
    n, p, q = core.state_dim, core.num_inputs, core.num_outputs
    h, w = rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0)
    a = np.zeros((n + 2, n + 2))
    a[:n, :n] = core.A
    a[n:, n:] = [[-h, w], [-w, -h]]
    b = np.vstack([core.B, np.zeros((2, p))])
    c = np.hstack([core.C, np.zeros((q, 2))])
    if hidden == "uncontrollable":
        a[:n, n:] = rng.standard_normal((n, 2))
        c[:, n:] = rng.standard_normal((q, 2))
    elif hidden == "unobservable":
        a[n:, :n] = rng.standard_normal((2, n))
        b[n:] = rng.standard_normal((2, p))
    return similarity_transform(StateSpace(a, b, c, core.D), random_orthogonal(n + 2, rng))


@pytest.mark.parametrize("hidden", ["uncontrollable", "unobservable", "both"])
@pytest.mark.parametrize("modes", [1, 2, 3, 5, 8, 16, 32, 64])
def test_minimal_realization_recovers_true_order_of_padded_systems(modes, hidden):
    rng = np.random.default_rng(modes)
    core = build_pm_realization(random_pm_params(modes, 1 + modes % 3, rng))
    padded = padded_system(core, hidden, rng)
    assert not is_minimal(padded)
    reduced = minimal_realization(padded)
    assert reduced.state_dim == 2 * modes
    assert is_minimal(reduced)
    pts = sample_away_from(core, rng, count=8)
    want = evaluate(core, pts)
    dev = np.linalg.norm(evaluate(reduced, pts) - want, axis=(1, 2)) / np.maximum(
        1.0, np.linalg.norm(want, axis=(1, 2))
    )
    assert dev.max() <= 1e-10


def test_transmission_zeros_of_example():
    z = transmission_zeros(example_state_space())
    matched, dist = match_multisets(z, [0.0, 1.0, 1.0, -1.0], tol=1e-9)
    assert matched and dist < 1e-9


class TestMatchMultisets:
    def test_size_mismatch(self):
        assert match_multisets([1.0], [1.0, 2.0]) == (False, float("inf"))

    def test_exact_match_any_order(self):
        ok, dist = match_multisets([1 + 1j, -2.0], [-2.0, 1 + 1j])
        assert ok and dist == 0.0

    def test_respects_tolerance(self):
        ok, _ = match_multisets([0.0], [1e-5], tol=1e-6)
        assert not ok
        ok, dist = match_multisets([0.0], [1e-7], tol=1e-6)
        assert ok and abs(dist - 1e-7) < 1e-20

    def test_multiplicity(self):
        ok, _ = match_multisets([1.0, 1.0], [1.0, 1.0 + 1e-9])
        assert ok
        ok, _ = match_multisets([1.0, 1.0], [1.0, 2.0])
        assert not ok


def test_spectrum_report_on_example():
    rep = spectrum_report(example_state_space())
    assert match_multisets(rep.poles, [0.0, -1.0, -1.0, 1.0], tol=1e-9)[0]
    assert match_multisets(rep.zeros, [0.0, 1.0, 1.0, -1.0], tol=1e-9)[0]
    assert rep.mirror_symmetric
    assert not rep.spectrally_generic
    assert rep.max_pairing_distance < 1e-9


def test_spectrum_report_generic_without_mirror():
    # poles {-1, -2} have no mirror pair, and zeros land elsewhere
    ss = StateSpace(
        np.diag([-1.0, -2.0]),
        np.eye(2),
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.diag([2.0, 1.0]),
    )
    rep = spectrum_report(ss)
    assert rep.spectrally_generic
    assert not rep.mirror_symmetric


def test_spectrum_report_static_vacuous():
    rep = spectrum_report(StateSpace.static(np.eye(2)))
    assert rep.poles.size == 0 and rep.zeros.size == 0
    assert rep.mirror_symmetric and rep.spectrally_generic


def reference_match_multisets(left, right, tol=1e-6):
    """The list-based greedy pairing that match_multisets vectorizes."""
    left = list(np.asarray(left, dtype=complex))
    right = list(np.asarray(right, dtype=complex))
    if len(left) != len(right):
        return False, float("inf")
    max_dist = 0.0
    for z in sorted(left, key=lambda w: (w.real, w.imag)):
        dists = [abs(z - w) for w in right]
        k = int(np.argmin(dists))
        max_dist = max(max_dist, dists[k])
        if dists[k] > tol:
            return False, max_dist
        right.pop(k)
    return True, max_dist


def reference_spectrally_generic(p, tol):
    """The double loop over pole pairs that spectrum_report vectorizes."""
    for lam in p:
        for nu in p:
            if abs(lam + np.conj(nu)) <= tol:
                return False
    return True


def test_match_multisets_equals_list_reference():
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(0, 9))
        if rng.uniform() < 0.5:
            # Gaussian integers from a small grid: repeated values and exact ties
            left = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
            right = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
            tol = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.5, 10.0]))
        else:
            left = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            left[: n // 3] = left[n - n // 3:]
            right = rng.permutation(left) + 1e-7 * rng.standard_normal(n)
            tol = float(rng.choice([1e-9, 1e-6, 1.0]))
        want = reference_match_multisets(left, right, tol)
        got = match_multisets(left, right, tol)
        assert got[0] == want[0]
        assert got[1] == want[1]


def test_spectral_genericity_equals_pairwise_reference():
    rng = np.random.default_rng(12)
    for _ in range(100):
        blocks = []
        for _ in range(int(rng.integers(1, 5))):
            re = float(rng.choice([0.0, 1.0, -1.0, rng.standard_normal()]))
            if rng.uniform() < 0.5:
                blocks.append(np.array([[re]]))
            else:
                im = float(rng.choice([1.0, 2.0, rng.standard_normal()]))
                blocks.append(np.array([[re, im], [-im, re]]))
        n = sum(b.shape[0] for b in blocks)
        a = np.zeros((n, n))
        i = 0
        for b in blocks:
            a[i:i + b.shape[0], i:i + b.shape[0]] = b
            i += b.shape[0]
        ss = StateSpace(a, np.eye(n), np.eye(n), 2.0 * np.eye(n))
        rep = spectrum_report(ss)
        assert rep.spectrally_generic == reference_spectrally_generic(rep.poles, 1e-6)


def test_require_square_channels_refuses_zero_channels():
    no_channels = StateSpace(-np.eye(2), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
    with pytest.raises(DimensionError, match="at least one channel pair"):
        no_channels.require_square_channels()
