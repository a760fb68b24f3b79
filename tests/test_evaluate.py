"""The transfer evaluator against per-point references: the modal formula bit
for bit, and the resolvent solve it replaces within 1e-11."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from oqho import statespace
from oqho.errors import NearPoleError, SamplePlacementError
from oqho.forms import build_ac_realization, build_pm_realization, eval_ac_tf, pm_to_ac
from oqho.realizability import check_jj_unitary, check_pr_frequency
from oqho.sampling import random_pm_params
from oqho.statespace import (
    MODAL_CONDITION_LIMIT,
    RESOLVENT_GUARD,
    StateSpace,
    _eigensystem,
    _evaluate_quadruple,
    evaluate,
    is_minimal,
    poles,
)
from oqho.worked_example import example_state_space
from test_realizability import defective_system, drifted_system


def guard(lam, s):
    """The near-pole refusal, for one point."""
    dist = np.abs(lam - s)
    k = int(np.argmin(dist))
    if dist[k] < RESOLVENT_GUARD * (1.0 + abs(s)):
        raise NearPoleError(s, lam[k])


def modal_condition(a):
    """|V|_1 |V^{-1}|_1 of the eigenvector basis of ``a``."""
    _, v, w = _eigensystem(a)
    return np.inf if w is None else np.linalg.norm(v, 1) * np.linalg.norm(w, 1)


def solve_reference(a, b, c, d, s):
    """One point at a time: the guard and the resolvent solve written out."""
    s = complex(s)
    d = d.astype(complex)
    if a.shape[0] == 0:
        return d
    guard(np.linalg.eigvals(a), s)
    resolvent = np.linalg.solve(
        s * np.eye(a.shape[0]) - a.astype(complex), b.astype(complex)
    )
    return c @ resolvent + d


def reference_eval(a, b, c, d, s):
    """One point at a time: the guard, then the modal formula in the
    eigenvector basis, or the resolvent solve when that basis is
    ill-conditioned."""
    s = complex(s)
    if a.shape[0] == 0:
        return d.astype(complex)
    lam, v = np.linalg.eig(a)
    guard(lam, s)
    if modal_condition(a) > MODAL_CONDITION_LIMIT:
        return solve_reference(a, b, c, d, s)
    return (c @ v) * (1.0 / (s - lam)) @ (np.linalg.inv(v) @ b) + d


def relative_deviation(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


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
        solved = solve_reference(ss.A, ss.B, ss.C, ss.D, s)
        assert relative_deviation(value, solved) <= 1e-11


@pytest.mark.parametrize("modes", [1, 2, 4, 8])
@pytest.mark.parametrize("channels", [1, 3])
def test_complex_realizations_match_reference_bit_for_bit(modes, channels):
    rng = np.random.default_rng(7 * modes + channels)
    css = build_ac_realization(pm_to_ac(random_pm_params(modes, channels, rng)))
    pts = random_points(rng, 10)
    stack = _evaluate_quadruple(css.F, css.G, css.L, css.K, pts, _eigensystem(css.F))
    for value, s in zip(stack, pts):
        ref = reference_eval(css.F, css.G, css.L, css.K, s)
        assert np.array_equal(value, ref)
        assert np.array_equal(eval_ac_tf(css, s), ref)
        solved = solve_reference(css.F, css.G, css.L, css.K, s)
        assert relative_deviation(value, solved) <= 1e-11


def test_conjugate_system_is_adjoint_at_reflected_points():
    rng = np.random.default_rng(3)
    ss = build_pm_realization(random_pm_params(3, 2, rng))
    pts = random_points(rng, 6)
    conj_stack = evaluate(ss, -np.conj(pts)).conj().transpose(0, 2, 1)
    for value, s in zip(conj_stack, pts):
        ref = reference_eval(ss.A, ss.B, ss.C, ss.D, -np.conj(s)).conj().T
        assert np.array_equal(value, ref)


@pytest.mark.parametrize("states", [8, 64, 256])
def test_modal_values_agree_with_resolvent_solves(states):
    """Realizable and drifted systems: the modal path is taken, and its values
    lie within 1e-11 relative of the stacked solve on every point."""
    rng = np.random.default_rng(4100 + states)
    pr = build_pm_realization(random_pm_params(states // 2, 2, rng))
    for ss in (pr, drifted_system(pr, rng)):
        spectrum = _eigensystem(ss.A)
        assert modal_condition(ss.A) <= MODAL_CONDITION_LIMIT
        pts = random_points(rng, 20)
        modal = _evaluate_quadruple(ss.A, ss.B, ss.C, ss.D, pts, spectrum)
        # without V^{-1} the evaluator takes the stacked solve
        solved = _evaluate_quadruple(ss.A, ss.B, ss.C, ss.D, pts, spectrum[:2] + (None,))
        for got, want in zip(modal, solved):
            assert relative_deviation(got, want) <= 1e-11


@pytest.mark.parametrize("rates", [[0.5], [0.5] * 3, [0.4, 0.5, 0.6, 0.7]])
def test_defective_systems_take_the_resolvent_solve_bit_for_bit(rates):
    ss = defective_system(rates, np.random.default_rng(4242 + len(rates)))
    assert modal_condition(ss.A) > MODAL_CONDITION_LIMIT
    pts = random_points(np.random.default_rng(4343), 12)
    for value, s in zip(evaluate(ss, pts), pts):
        assert np.array_equal(value, solve_reference(ss.A, ss.B, ss.C, ss.D, s))


def acceptance_systems():
    """The acceptance suite's corpus (minimal realizations of seeds 1000 and
    up, n and m in {1, 2, 3}) and a drifted copy of each."""
    dims = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    rng = np.random.default_rng(4444)
    systems, seed = [], 1000
    while len(systems) < 400:
        n, m = dims[len(systems) // 2 % len(dims)]
        ss = build_pm_realization(random_pm_params(n, m, np.random.default_rng(seed)))
        seed += 1
        if is_minimal(ss):
            systems += [ss, drifted_system(ss, rng)]
    return systems


def test_resolvent_solves_give_the_same_verdicts(monkeypatch):
    """With the limit at 0 every evaluation takes the stacked solve; every
    frequency verdict on the acceptance corpus stays the same."""
    systems = acceptance_systems()
    modal = [check_pr_frequency(ss) for ss in systems]
    monkeypatch.setattr(statespace, "MODAL_CONDITION_LIMIT", 0.0)
    solved = [check_pr_frequency(ss) for ss in systems]
    assert [r.verdict for r in modal] == [r.verdict for r in solved]
    assert [r.verdict for r in modal[::2]] == ["PR"] * 200
    assert [r.verdict for r in modal[1::2]] == ["not-PR"] * 200
    for a, b in zip(modal, solved):
        assert a.sample_points == b.sample_points


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
    # with no point every system would pass: the sampled check refuses to decide
    with pytest.raises(SamplePlacementError, match="no sample points to decide on: 0 requested"):
        check_jj_unitary(ss, num_samples=0)


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


def test_near_pole_error_on_the_modal_path():
    rng = np.random.default_rng(4545)
    ss = build_pm_realization(random_pm_params(4, 1, rng))
    assert modal_condition(ss.A) <= MODAL_CONDITION_LIMIT
    lam = _eigensystem(ss.A)[0]
    pts = [3.0 + 1j, lam[5] + 1e-12, lam[2]]
    with pytest.raises(NearPoleError) as info:
        evaluate(ss, pts)
    assert info.value.point == pts[1]
    assert info.value.eigenvalue == lam[5]


def test_points_clear_of_the_guard_are_evaluated():
    ss = example_state_space()
    lam = poles(ss)
    offset = 1e3 * RESOLVENT_GUARD
    stack = evaluate(ss, lam[:2] + offset)
    assert np.all(np.isfinite(stack))


def test_modal_sweep_runs_on_the_private_evaluator():
    """scripts/modal_sweep.py calls the private evaluator: its deviation() still
    gives kappa_1 and a modal deviation within 1e-11 on an 8-state system."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "modal_sweep.py"
    spec = importlib.util.spec_from_file_location("modal_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    ss = build_pm_realization(random_pm_params(4, 1, np.random.default_rng(8)))
    kappa, dev = sweep.deviation(ss, 0)
    assert kappa == modal_condition(ss.A)
    assert 0.0 <= dev <= 1e-11
