"""Seeded workloads: each op is one call into oqho's public API plus its check.

``build(name, seed, workdir)`` makes a workload's inputs from the seed alone,
with ``oqho.sampling`` and ``oqho.forms``, and returns its cases.  A case is
one op: ``call()`` is the timed call and ``check(result)`` verifies its output
with public calls outside the timed region, raising ``CheckFailed`` when the
output is wrong.  The harness runs the cases in order, cycling.

Why each workload exists, and what each layer should move on it, is recorded
in DESIGN.md next to this file.  Library calls go through the module
attributes (``realizability.synthesize``) so that the traced run sees them.
"""

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from oqho import cli, forms, jsonio, realizability, sampling, statespace

# Transfer-function deviation allowed between a synthesized model and its
# input: the rebuild gate synthesize applies to itself.
REBUILD_GATE = 1e-7
# Relative deviation allowed when a conversion round trip rebuilds (A, B, C, D).
ROUND_TRIP_GATE = 1e-8
# Relative reconstruction residual allowed for a factored commutation matrix.
FACTOR_GATE = 1e-10
# Size of the symmetric drift on A that turns a PR system into a not-PR one.
DRIFT = 0.3
# Sample points the checks use to compare transfer functions.
CHECK_POINTS = 8
# Distinct inputs of a library workload.
CASES = 32


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Case:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _drifted(ss, rng):
    bump = rng.standard_normal(ss.A.shape)
    return statespace.StateSpace(ss.A + DRIFT * (bump + bump.T), ss.B, ss.C, ss.D)


def _pr_system(modes, channels, rng):
    params = sampling.random_pm_params(modes, channels, rng)
    return params, forms.build_pm_realization(params)


def _check_same_transfer(ref, got, seed):
    """Relative transfer deviation of ``got`` from ``ref`` within REBUILD_GATE."""
    lam = np.concatenate([statespace.poles(ref), statespace.poles(got)])
    points = realizability.draw_sample_points(
        np.concatenate([lam, -lam.conj()]), CHECK_POINTS, seed)
    for s in points:
        want = statespace.eval_tf(ref, s)
        dev = np.linalg.norm(statespace.eval_tf(got, s) - want)
        dev /= max(1.0, np.linalg.norm(want))
        _require(dev <= REBUILD_GATE, f"rebuild deviates by {dev:.3e} at s={s:.3g}")


def _check_same_realization(ref, got):
    for key in "ABCD":
        a, b = getattr(ref, key), getattr(got, key)
        dev = np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a))
        _require(dev <= ROUND_TRIP_GATE, f"round trip moves {key} by {dev:.3e}")


def _check_synthesis(ss, theta, result, seed):
    _require(np.array_equal(result.params.Theta, theta),
             "params.Theta differs from the requested Theta")
    _check_same_transfer(ss, forms.build_pm_realization(result.params), seed)


def _expect_verdict(report, verdict):
    _require(report.verdict == verdict,
             f"verdict {report.verdict}, expected {verdict}")


# --- library workloads ----------------------------------------------------


def _check_case(ss, is_pr, seed):
    def call():
        return (realizability.check_pr_frequency(ss, seed=seed),
                statespace.spectrum_report(ss))

    def check(out):
        report, spectrum = out
        if is_pr:
            _expect_verdict(report, "PR")
            _require(spectrum.mirror_symmetric, "PR system is not mirror-symmetric")
        else:
            _expect_verdict(report, "not-PR")

    return Case("check_pr" if is_pr else "check_drifted", call, check)


def _synth_case(ss, theta, seed, convert):
    def call():
        result = realizability.synthesize(ss, theta, seed=seed)
        return result, forms.pm_to_ac(result.params) if convert else None

    def check(out):
        result, ac = out
        _check_synthesis(ss, theta, result, seed)
        if convert:
            _check_same_realization(forms.build_pm_realization(result.params),
                                    forms.build_pm_realization(forms.ac_to_pm(ac)))

    return Case(f"synthesize_{ss.num_outputs // 2}ch", call, check)


def _build_check_64(rng, workdir):
    cases = []
    for i in range(CASES):
        _, ss = _pr_system(32, 1, rng)
        is_pr = i % 2 == 0
        cases.append(_check_case(ss if is_pr else _drifted(ss, rng), is_pr,
                                 int(rng.integers(2**31))))
    return cases


def _build_synth(modes, channel_counts, convert):
    def build(rng, workdir):
        cases = []
        for i in range(CASES):
            _, ss = _pr_system(modes, channel_counts[i % len(channel_counts)], rng)
            theta = sampling.random_skew_nonsingular(2 * modes, rng)
            cases.append(_synth_case(ss, theta, int(rng.integers(2**31)), convert))
        return cases

    return build


# --- CLI workload ---------------------------------------------------------


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(payload))
    return path


def _cli_case(label, argv, out_path, want_exit, check_output):
    argv = argv + ["--output", out_path]

    def call():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(code):
        try:
            _require(code == want_exit, f"exit code {code}, expected {want_exit}")
            payload = jsonio.load_path(out_path)
        finally:
            # the next call must write the file afresh
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
        check_output(payload)

    return Case(label, call, check)


def _cli_system_cases(k, modes, channels, rng, workdir):
    """Ten CLI calls about one random PR system and its drifted copy."""
    params, ss = _pr_system(modes, channels, rng)
    bad = _drifted(ss, rng)
    target = sampling.random_skew_nonsingular(2 * modes, rng)
    seed = int(rng.integers(2**31))

    def path(name):
        return os.path.join(workdir, f"s{k}_{name}.json")

    system = _write(path("system"), jsonio.encode_state_space(ss))
    drifted = _write(path("drifted"), jsonio.encode_state_space(bad))
    theta = _write(path("theta"), jsonio.encode_real_matrix(params.Theta))
    target_file = _write(path("target"), jsonio.encode_real_matrix(target))
    pm = _write(path("pm"), jsonio.encode_pm_params(params))
    ac = _write(path("ac"), jsonio.encode_ac_params(forms.pm_to_ac(params)))
    sampled = ["--seed", str(seed)]

    def verdict(want):
        return lambda p: _expect_verdict(jsonio.decode_pr_report(p), want)

    def synthesized(p):
        _check_synthesis(ss, target, jsonio.decode_synthesis_result(p), seed)

    def pm2ac_output(p):
        pm_back = forms.ac_to_pm(jsonio.decode_ac_params(p))
        _check_same_realization(ss, forms.build_pm_realization(pm_back))

    def ac2pm_output(p):
        _check_same_realization(ss, forms.build_pm_realization(jsonio.decode_pm_params(p)))

    def spectrum(p):
        report = jsonio.decode_spectrum_report(p)
        _require(report.mirror_symmetric, "PR system is not mirror-symmetric")
        _require(report.poles.size == ss.state_dim, "wrong number of poles")

    def factor(p):
        resid = jsonio.decode_skew_factorization(p).reconstruction_residual(params.Theta)
        _require(resid <= FACTOR_GATE * max(1.0, np.linalg.norm(params.Theta)),
                 f"factor reconstruction residual {resid:.3e}")

    def out(name):
        return path(f"out_{name}")

    return [
        _cli_case("check", ["check", "--input", system] + sampled, out("check"),
                  0, verdict("PR")),
        _cli_case("check_theta", ["check", "--input", system, "--theta", theta],
                  out("check_theta"), 0, verdict("PR")),
        _cli_case("check_drifted", ["check", "--input", drifted] + sampled,
                  out("check_drifted"), 1, verdict("not-PR")),
        _cli_case("check_theta_drifted",
                  ["check", "--input", drifted, "--theta", theta],
                  out("check_theta_drifted"), 1, verdict("not-PR")),
        _cli_case("synthesize",
                  ["synthesize", "--input", system, "--theta", target_file] + sampled,
                  out("synthesize"), 0, synthesized),
        _cli_case("synthesize_drifted",
                  ["synthesize", "--input", drifted, "--theta", target_file] + sampled,
                  out("synthesize_drifted"), 1, verdict("not-PR")),
        _cli_case("convert_pm2ac", ["convert", "--direction", "pm2ac", "--input", pm],
                  out("pm2ac"), 0, pm2ac_output),
        _cli_case("convert_ac2pm", ["convert", "--direction", "ac2pm", "--input", ac],
                  out("ac2pm"), 0, ac2pm_output),
        _cli_case("spectrum", ["spectrum", "--input", system], out("spectrum"),
                  0, spectrum),
        _cli_case("factor", ["factor", "--input", theta], out("factor"), 0, factor),
    ]


def _check_example(payload):
    _require(payload["check"]["verdict"] == "PR", "example verdict is not PR")
    dev = payload["deviations"]["synthesis_rebuild_max_relative"]
    _require(dev <= REBUILD_GATE, f"example rebuild deviates by {dev:.3e}")


def _build_cli_small(rng, workdir):
    # Two systems per (modes, channels) in {1, 2, 3}^2, so that every seed
    # runs the same mix of sizes and only the matrices differ.
    sizes = [(m, c) for m in (1, 2, 3) for c in (1, 2, 3)] * 2
    per_system = [_cli_system_cases(k, modes, channels, rng, workdir)
                  for k, (modes, channels) in enumerate(sizes)]
    example = _cli_case("example", ["example", "--seed", str(int(rng.integers(2**31)))],
                        os.path.join(workdir, "out_example.json"), 0, _check_example)
    # Interleave the subcommands so every stretch of a run mixes them.
    return [case for group in zip(*per_system) for case in group] + [example]


BUILDERS = {
    "cli_small": _build_cli_small,
    "check_64": _build_check_64,
    "synth_10": _build_synth(5, (1, 2), convert=True),
    "synth_12": _build_synth(6, (1, 2), convert=True),
    "synth_64": _build_synth(32, (1,), convert=False),
}


def build(name, seed, workdir):
    """The cases of workload ``name``, generated from ``seed`` alone."""
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
    return BUILDERS[name](rng, workdir)
