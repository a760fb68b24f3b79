"""The stacked transfer evaluator against a per-point reference."""

import numpy as np
import pytest

from oqho.errors import NearPoleError
from oqho.forms import build_ac_realization, build_pm_realization, eval_ac_tf, pm_to_ac
from oqho.realizability import check_jj_unitary
from oqho.sampling import random_pm_params
from oqho.statespace import (
    RESOLVENT_GUARD,
    StateSpace,
    _evaluate_quadruple,
    evaluate,
    poles,
)
from oqho.worked_example import example_state_space


def reference_eval(a, b, c, d, s):
    """One point at a time: the guard and solve written out per point."""
    s = complex(s)
    d = d.astype(complex)
    if a.shape[0] == 0:
        return d
    lam = np.linalg.eigvals(a)
    dist = np.abs(lam - s)
    k = int(np.argmin(dist))
    if dist[k] < RESOLVENT_GUARD * (1.0 + abs(s)):
        raise NearPoleError(s, lam[k])
    resolvent = np.linalg.solve(
        s * np.eye(a.shape[0]) - a.astype(complex), b.astype(complex)
    )
    return c @ resolvent + d


def random_points(rng, count):
    radius = 10.0 ** rng.uniform(-2.0, 2.0, count)
    return radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


@pytest.mark.parametrize("modes", [1, 2, 3, 5, 8, 13, 21, 32])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_real_systems_match_reference_bit_for_bit(modes, channels):
    rng = np.random.default_rng(1000 * modes + channels)
    ss = build_pm_realization(random_pm_params(modes, channels, rng))
    pts = random_points(rng, 12)
    stack = evaluate(ss, pts)
    assert stack.shape == (12, 2 * channels, 2 * channels)
    for value, s in zip(stack, pts):
        assert np.array_equal(value, reference_eval(ss.A, ss.B, ss.C, ss.D, s))


@pytest.mark.parametrize("modes", [1, 2, 4, 8])
@pytest.mark.parametrize("channels", [1, 3])
def test_complex_realizations_match_reference_bit_for_bit(modes, channels):
    rng = np.random.default_rng(7 * modes + channels)
    css = build_ac_realization(pm_to_ac(random_pm_params(modes, channels, rng)))
    pts = random_points(rng, 10)
    stack = _evaluate_quadruple(css.F, css.G, css.L, css.K, pts, np.linalg.eigvals(css.F))
    for value, s in zip(stack, pts):
        ref = reference_eval(css.F, css.G, css.L, css.K, s)
        assert np.array_equal(value, ref)
        assert np.array_equal(eval_ac_tf(css, s), ref)


def test_conjugate_system_is_adjoint_at_reflected_points():
    rng = np.random.default_rng(3)
    ss = build_pm_realization(random_pm_params(3, 2, rng))
    pts = random_points(rng, 6)
    conj_stack = evaluate(ss, -np.conj(pts)).conj().transpose(0, 2, 1)
    for value, s in zip(conj_stack, pts):
        ref = reference_eval(ss.A, ss.B, ss.C, ss.D, -np.conj(s)).conj().T
        assert np.array_equal(value, ref)


def test_static_system_gives_stack_of_feedthrough():
    d = np.array([[1.0, 2.0, 0.5], [3.0, -1.0, 4.0]])
    stack = evaluate(StateSpace.static(d), [0.0, 1j, -2.0 + 3j])
    assert stack.shape == (3, 2, 3) and stack.dtype == complex
    for value in stack:
        assert np.array_equal(value, d)


def test_no_points_gives_empty_stack():
    ss = example_state_space()
    assert evaluate(ss, []).shape == (0, 4, 4)
    assert evaluate(StateSpace.static(np.eye(2)), []).shape == (0, 2, 2)
    result = check_jj_unitary(ss, num_samples=0)
    assert result.passed and result.max_residual == 0.0 and result.sample_points == []


def test_near_pole_error_names_first_offending_point_and_its_pole():
    # poles {0, -1, 1, -1}; the points at index 1 and 3 sit on poles 1 and 0
    ss = example_state_space()
    pts = [2.0 + 1j, 1.0 + 1e-12, 0.5j, 1e-13]
    with pytest.raises(NearPoleError) as info:
        evaluate(ss, pts)
    assert info.value.point == pts[1]
    assert abs(info.value.eigenvalue - 1.0) < 1e-12
    # the per-point reference names the same point and pole
    with pytest.raises(NearPoleError) as ref_info:
        for s in pts:
            reference_eval(ss.A, ss.B, ss.C, ss.D, s)
    assert ref_info.value.point == info.value.point
    assert ref_info.value.eigenvalue == info.value.eigenvalue


def test_points_clear_of_the_guard_are_evaluated():
    ss = example_state_space()
    lam = poles(ss)
    offset = 1e3 * RESOLVENT_GUARD
    stack = evaluate(ss, lam[:2] + offset)
    assert np.all(np.isfinite(stack))
