#!/usr/bin/env python3
"""Deviation of modal transfer values from resolvent solves, by eigenbasis condition.

    python3 scripts/modal_sweep.py [--seed 20261018]

For each system the largest relative deviation |G_modal - G_solve|_F /
max(1, |G_solve|_F) over 20 sample points and their mirror images is
recorded against kappa_1 = |V|_1 |V^{-1}|_1 of the eigenvector basis of A,
and the largest deviation per half-decade of kappa_1 is printed for each
family:

* realizable: random oscillator networks of 2-256 states, 1-3 channels;
* drifted: the same systems with a symmetric drift of 0.3 on A (not
  realizable);
* near-defective: 1, 3 or 8 single-channel modes with energy diag(k, delta),
  delta = 1e-1 .. 1e-15, whose Jordan blocks split by about sqrt(delta),
  mixed by a random symplectic similarity;
* non-normal: A = T diag(lam) T^{-1} with cond(T) = 1 .. 1e12 and random
  B, C; here the transfer function itself is ill-conditioned, so the solve
  is no better a reference than the modal values.

``statespace.MODAL_CONDITION_LIMIT`` is read from the first three families.
Each family's count of systems whose kappa_1 (inf for a singular basis)
exceeds ``realizability.DEFECTIVE_BASIS_LIMIT``, where the F solve takes
its feedback-shifted pass, is printed last.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oqho.forms import PmParams, build_pm_realization
from oqho.realizability import DEFECTIVE_BASIS_LIMIT, draw_sample_points
from oqho.sampling import random_pm_params, random_symplectic
from oqho.statespace import (
    StateSpace,
    _basis_condition,
    _eigensystem,
    _evaluate_quadruple,
    block_diag,
    similarity_transform,
)
from oqho.structured import j_matrix


def deviation(ss, seed):
    """(kappa_1, largest relative deviation), or (inf, None) for a singular basis."""
    lam, v, w = spectrum = _eigensystem(ss.A)
    kappa = _basis_condition(spectrum)
    if w is None:
        return kappa, None
    pts = draw_sample_points(np.concatenate([lam, -lam.conj()]), 20, seed)
    pts = np.concatenate([pts, -np.conj(pts)])
    abcd = ss.A, ss.B, ss.C, ss.D
    modal = (ss.C @ v)[None] * (1.0 / (pts[:, None] - lam))[:, None, :] @ (w @ ss.B) + ss.D
    # without V^{-1} the evaluator takes the stacked solve
    solved = _evaluate_quadruple(*abcd, pts, (lam, v, None))
    dev = np.linalg.norm(modal - solved, axis=(1, 2))
    dev /= np.fmax(1.0, np.linalg.norm(solved, axis=(1, 2)))
    return kappa, float(dev.max())


def near_defective(count, delta, rng):
    modes = [build_pm_realization(PmParams(np.eye(2), 0.5 * np.eye(2),
                                           np.diag([k, delta]), j_matrix(2)))
             for k in range(1, count + 1)]
    ss = block_diag(modes)
    # channels reordered to [q1 q2 .. p1 p2 ..], so the sum stays realizable
    order = list(range(0, 2 * count, 2)) + list(range(1, 2 * count, 2))
    ss = StateSpace(ss.A, ss.B[:, order], ss.C[order], ss.D[np.ix_(order, order)])
    return similarity_transform(ss, random_symplectic(2 * count, rng))


def non_normal(n, log_cond, rng):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    x, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = u @ np.diag(np.logspace(0, log_cond, n)) @ x
    a = t @ np.diag(-rng.uniform(0.1, 2.0, n)) @ np.linalg.inv(t)
    return StateSpace(a, rng.standard_normal((n, 2)), rng.standard_normal((2, n)), np.eye(2))


def systems(rng):
    """(family, system) pairs of the sweep."""
    for modes in (1, 2, 4, 8, 16, 32, 64, 128):
        for i in range(12 if modes <= 32 else 4):
            ss = build_pm_realization(random_pm_params(modes, 1 + i % 3, rng))
            bump = rng.standard_normal(ss.A.shape)
            yield "realizable", ss
            yield "drifted", StateSpace(ss.A + 0.3 * (bump + bump.T), ss.B, ss.C, ss.D)
    for delta in 10.0 ** -np.arange(1, 16):
        for count in (1, 3, 8):
            for _ in range(3):
                yield "near-defective", near_defective(count, delta, rng)
    for log_cond in range(13):
        for n in (4, 16, 64):
            for _ in range(2):
                yield "non-normal", non_normal(n, log_cond, rng)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20261018)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    families = ("realizable", "drifted", "near-defective", "non-normal")
    worst = {}
    shifted = dict.fromkeys(families, 0)
    for i, (family, ss) in enumerate(systems(rng)):
        kappa, dev = deviation(ss, i)
        shifted[family] += kappa > DEFECTIVE_BASIS_LIMIT
        if dev is None:
            continue
        key = (int(np.floor(2 * np.log10(kappa))), family)
        count, largest = worst.get(key, (0, 0.0))
        worst[key] = count + 1, max(largest, dev)
    print("kappa_1 from | " + " | ".join(families))
    for bucket in sorted({b for b, _ in worst}):
        cells = []
        for family in families:
            count, largest = worst.get((bucket, family), (0, None))
            cells.append(f"{largest:.1e} ({count})" if count else "-")
        print(f"{10 ** (bucket / 2):.1e} | " + " | ".join(cells))
    print(f"above {DEFECTIVE_BASIS_LIMIT:.0e} | "
          + " | ".join(str(shifted[family]) for family in families))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
