#!/usr/bin/env python3
"""Random sweep over oscillator parameter sets: build, check, synthesize.

For each draw the script builds the realization from random parameters,
confirms the frequency-domain realizability check accepts it, then recovers
parameters for a fresh random commutation matrix and measures how well the
recovered parameters rebuild the original transfer behaviour.  Each draw
is synthesized once more with two hidden states added, an undamped pair
+-i w that neither B nor C reaches, under a random orthogonal mix: the
mirrored pair must send it through the minimality reduction back to the
draw's order.  These come from a second generator, seeded from ``--seed``,
so the draws themselves do not depend on them.  Each draw's feedthrough D is
synthesized on its own as a static system, which must give a set of no
modes, and so is 2 D, which must be refused with a not-PR report; neither
draws a random number.  A negative control batch perturbs the built systems
and reports the rejection rate.
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oqho.errors import NotRealizableError
from oqho.forms import build_pm_realization
from oqho.realizability import check_pr_frequency, check_pr_time_domain, synthesize
from oqho.sampling import random_orthogonal, random_pm_params, random_skew_nonsingular
from oqho.statespace import StateSpace


@dataclass(frozen=True)
class SweepConfig:
    count: int = 100
    max_modes: int = 3
    max_channels: int = 3
    seed: int = 0
    tol: float = 1e-8
    perturbation: float = 0.3


def parse_args(argv=None) -> SweepConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100,
                        help="number of random systems (default 100)")
    parser.add_argument("--max-modes", type=int, default=3,
                        help="largest mode count to draw (default 3)")
    parser.add_argument("--max-channels", type=int, default=3,
                        help="largest channel count to draw (default 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="residual tolerance (default 1e-8)")
    parser.add_argument("--perturbation", type=float, default=0.3,
                        help="negative-control drift magnitude (default 0.3)")
    ns = parser.parse_args(argv)
    return SweepConfig(ns.count, ns.max_modes, ns.max_channels, ns.seed,
                       ns.tol, ns.perturbation)


def with_hidden_undamped_pair(ss: StateSpace, rng) -> StateSpace:
    """``ss`` plus two states with poles +-i w that neither B nor C reaches,
    mixed by a random orthogonal similarity."""
    n, p, q = ss.state_dim, ss.num_inputs, ss.num_outputs
    w = rng.uniform(0.5, 3.0)
    t = random_orthogonal(n + 2, rng)
    hidden = np.array([[0.0, w], [-w, 0.0]])
    a = np.block([[ss.A, np.zeros((n, 2))], [np.zeros((2, n)), hidden]])
    b = np.vstack([ss.B, np.zeros((2, p))])
    c = np.hstack([ss.C, np.zeros((q, 2))])
    return StateSpace(t @ a @ t.T, t @ b, c @ t.T, ss.D)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    rng = np.random.default_rng(cfg.seed)
    hidden_rng = np.random.default_rng([cfg.seed, 1])

    accepted = 0
    synthesized = 0
    worst_jj = 0.0
    worst_rebuild = 0.0
    hidden_reduced = 0
    static_synthesized = 0
    static_refused = 0
    rejected_controls = 0
    start = time.perf_counter()

    for i in range(cfg.count):
        modes = int(rng.integers(1, cfg.max_modes + 1))
        channels = int(rng.integers(1, cfg.max_channels + 1))
        params = random_pm_params(modes, channels, rng)
        ss = build_pm_realization(params)

        report = check_pr_frequency(ss, tol=cfg.tol)
        if report.verdict != "PR":
            print(f"draw {i}: unexpected verdict {report.verdict}",
                  file=sys.stderr)
            continue
        accepted += 1
        worst_jj = max(worst_jj, report.jj_unitarity_max_residual)

        theta = random_skew_nonsingular(ss.state_dim, rng)
        result = synthesize(ss, theta_target=theta, tol=cfg.tol)
        synthesized += 1
        worst_rebuild = max(
            worst_rebuild,
            result.equation_residuals["rebuild_max_relative_deviation"],
        )

        padded = with_hidden_undamped_pair(ss, hidden_rng)
        reduced = synthesize(padded, tol=cfg.tol)
        hidden_reduced += (
            reduced.reduced_from == ss.state_dim + 2
            and reduced.equation_residuals["rebuild_max_relative_deviation"] < 1e-6
        )

        static_synthesized += synthesize(StateSpace.static(ss.D)).params.modes == 0
        try:
            synthesize(StateSpace.static(2.0 * ss.D))
        except NotRealizableError as exc:
            static_refused += exc.report is not None and exc.report.verdict == "not-PR"

        # negative control: a symmetric drift on A breaks the commutation
        # relations, so the time-domain check must reject it
        bump = rng.standard_normal((ss.state_dim, ss.state_dim))
        drifted = StateSpace(
            ss.A + cfg.perturbation * (bump + bump.T), ss.B, ss.C, ss.D
        )
        control = check_pr_time_domain(drifted, params.Theta, tol=cfg.tol)
        rejected_controls += control.verdict == "not-PR"

    elapsed = time.perf_counter() - start
    print(f"systems accepted by frequency check : {accepted}/{cfg.count}")
    print(f"systems synthesized back to params  : {synthesized}/{accepted}")
    print(f"worst (J,J)-unitarity residual      : {worst_jj:.3e}")
    print(f"worst rebuild deviation             : {worst_rebuild:.3e}")
    print(f"hidden undamped pairs reduced       : {hidden_reduced}/{accepted}")
    print(f"static D synthesized, no modes      : {static_synthesized}/{accepted}")
    print(f"static 2 D refused as not-PR        : {static_refused}/{accepted}")
    print(f"perturbed controls rejected         : {rejected_controls}/{accepted}")
    print(f"elapsed                             : {elapsed:.2f} s")

    ok = (
        accepted == synthesized == cfg.count
        and worst_jj < cfg.tol
        and worst_rebuild < 1e-6
        and hidden_reduced == accepted
        and static_synthesized == static_refused == accepted
        and rejected_controls == accepted
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
