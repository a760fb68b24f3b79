#!/usr/bin/env python3
"""Golden run of the oqho command line over a seeded corpus.

Writes a corpus of 1-3-mode systems under ``OUT/inputs``: realizable (PR)
systems, copies with a symmetric drift on A (not PR), and copies padded with
two hidden states (not minimal), plus their parameter sets in both forms and
random commutation matrices.  Two PR systems have spectra that a plain
eigen-coordinate F solve cannot take: the reference model plus a random
block (pole pairs with l_i + l_j = 0) and three single-mode Jordan blocks
(a defective eigenbasis).  After the seeded corpus come fixed literal inputs
that the CLI must refuse, drawn from no generator: a system with a singular
feedthrough D, a rank-2 4x4 skew matrix and a non-skew matrix as commutation
matrices, and parameter sets with a singular Theta or a singular ladder
transformation E.  Last come two literal scale cases, each a commutation
matrix scale * J with one entry moved off skew symmetry: scale 1e-3 with
relative asymmetry 1e-7, which the scale-aware structure bound refuses, and
scale 1e3 with relative asymmetry 1e-9, which it accepts; each goes through
``factor``, through ``check --theta`` on the reference model, and, as the
Theta of a parameter set, through ``convert --direction pm2ac``.  Then come
literal zero-size cases: a static PR system and a static non-orthogonal one
(each through ``check``, ``check --theta J``, ``spectrum``, ``synthesize``
and ``synthesize --theta`` with a 0x0 file), 0-mode parameter sets in both
forms through ``convert``, ``factor`` of a 0x0 matrix, and a 2-state system
with no channels through ``check``.  Last, the reference model with one
entry made non-finite (NaN in B, NaN in D, Infinity in D, NaN in A) or not a
JSON number (null, the string "NaN" and true in A) goes through ``check``,
``check --theta J`` and ``synthesize``, and the reference parameter set with
a null entry in M through ``convert --direction pm2ac``.  It then
runs ``oqho.cli.main`` in-process for ``check`` (frequency and ``--theta``),
``spectrum``, ``synthesize``, ``convert`` in both directions, ``factor`` and
``example``, and records every output file under ``OUT/outputs`` and every
exit code, stdout and stderr under ``OUT/calls``.  Spread among these calls
are calls that argparse itself ends: the top-level ``--help``, ``--help`` of
each subcommand, ``check`` without ``--input``, an unknown subcommand and
``factor --tol``; their ``SystemExit`` code is recorded as the exit code, so
that every later call shows whether the parser came through an earlier exit
unchanged.  ``COLUMNS`` is pinned to 80, so help text does not depend on
the terminal.

Two trees behave byte-identically on the corpus when

    python3 scripts/cli_golden.py --seed 1 --out /tmp/golden-a
    (in the other checkout, with this script copied in)
    python3 scripts/cli_golden.py --seed 1 --out /tmp/golden-b
    diff -r /tmp/golden-a /tmp/golden-b

prints nothing.  Every path handed to the CLI is relative to OUT, so its
messages do not depend on where OUT is.

When only numbers may move (a change of floating-point evaluation order, say),

    python3 scripts/cli_golden.py --compare /tmp/golden-a /tmp/golden-b

compares two such trees with numbers told apart from text.  It exits with 1
when the file sets, any exit code or any text outside numbers differ, and
lists each of them.  For every field whose numbers moved (a JSON path, with
list indices written ``[]``, or the text before a number in a call record)
it prints the largest absolute change and the largest change relative to
the first tree's value.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oqho import cli, jsonio
from oqho.forms import AcParams, PmParams, build_pm_realization, pm_to_ac
from oqho.sampling import (
    random_orthogonal,
    random_pm_params,
    random_skew_nonsingular,
    random_symplectic,
)
from oqho.statespace import StateSpace, block_diag, similarity_transform
from oqho.structured import j_matrix
from oqho.worked_example import example_pm_params, example_state_space

MODES = (1, 2, 3)
CHANNELS = (1, 2, 3)
DRAWS = 2
# Size of the symmetric drift on A that turns a PR system into a not-PR one.
DRIFT = 0.3


def drifted(ss, rng):
    bump = rng.standard_normal(ss.A.shape)
    return StateSpace(ss.A + DRIFT * (bump + bump.T), ss.B, ss.C, ss.D)


def padded(ss, rng):
    """``ss`` plus two uncontrollable states, mixed by a random orthogonal similarity."""
    n, p, q = ss.state_dim, ss.num_inputs, ss.num_outputs
    a = np.zeros((n + 2, n + 2))
    a[:n, :n] = ss.A
    a[n:, n:] = [[-1.0, 2.0], [-2.0, -1.0]]
    a[:n, n:] = rng.standard_normal((n, 2))
    b = np.vstack([ss.B, np.zeros((2, p))])
    c = np.hstack([ss.C, rng.standard_normal((q, 2))])
    return similarity_transform(StateSpace(a, b, c, ss.D), random_orthogonal(n + 2, rng))


def direct_sum(blocks):
    """Direct sum of PR systems, its channels reordered to [q1 q2 .. p1 p2 ..]
    so that it is PR for the J of the sum."""
    ss = block_diag(blocks)
    q, p, offset = [], [], 0
    for block in blocks:
        half = block.num_inputs // 2
        q += range(offset, offset + half)
        p += range(offset + half, offset + 2 * half)
        offset += 2 * half
    order = q + p
    return StateSpace(ss.A, ss.B[:, order], ss.C[order], ss.D[np.ix_(order, order)])


def jordan_modes(rng):
    """Three single-mode systems, each with A a 2x2 Jordan block at -0.5,
    mixed by a random symplectic similarity."""
    modes = [build_pm_realization(PmParams(np.eye(2), 0.5 * np.eye(2),
                                           np.diag([k, 0.0]), j_matrix(2)))
             for k in (1.0, 2.0, 3.0)]
    return similarity_transform(direct_sum(modes), random_symplectic(6, rng))


def write(path: Path, payload) -> str:
    path.write_text(jsonio.dumps(payload), encoding="utf-8")
    return str(path)


def build_corpus(seed: int) -> list:
    """Write the inputs under ``inputs/``; return the CLI calls as (name, argv).

    Each call writes its report to ``outputs/<name>.json``.
    """
    rng = np.random.default_rng(seed)
    inputs = Path("inputs")
    inputs.mkdir()
    calls = [("example", ["example"])]
    for modes in MODES:
        for channels in CHANNELS:
            for draw in range(DRAWS):
                tag = f"m{modes}c{channels}d{draw}"
                params = random_pm_params(modes, channels, rng)
                pr = build_pm_realization(params)
                theta = write(inputs / f"{tag}_theta.json",
                              jsonio.encode_real_matrix(
                                  random_skew_nonsingular(2 * modes, rng)))
                pm = write(inputs / f"{tag}_pm.json", jsonio.encode_pm_params(params))
                ac = write(inputs / f"{tag}_ac.json",
                           jsonio.encode_ac_params(pm_to_ac(params)))
                calls += [
                    (f"{tag}_pm2ac", ["convert", "--direction", "pm2ac", "--input", pm]),
                    (f"{tag}_ac2pm", ["convert", "--direction", "ac2pm", "--input", ac]),
                    (f"{tag}_factor", ["factor", "--input", theta]),
                ]
                systems = {"pr": pr, "drifted": drifted(pr, rng), "padded": padded(pr, rng)}
                for kind, ss in systems.items():
                    name = f"{tag}_{kind}"
                    path = write(inputs / f"{name}.json", jsonio.encode_state_space(ss))
                    sample_seed = str(int(rng.integers(2**31)))
                    calls += [
                        (f"{name}_check", ["check", "--input", path,
                                           "--seed", sample_seed]),
                        (f"{name}_check_theta", ["check", "--input", path,
                                                 "--theta", "J"]),
                        (f"{name}_spectrum", ["spectrum", "--input", path]),
                        (f"{name}_synthesize", ["synthesize", "--input", path,
                                                "--seed", sample_seed]),
                    ]
                    if kind == "pr":
                        calls.append((f"{name}_synthesize_theta",
                                      ["synthesize", "--input", path, "--theta", theta]))
    example_plus = direct_sum([example_state_space(),
                               build_pm_realization(random_pm_params(2, 1, rng))])
    for name, ss in (("example_plus_block", example_plus), ("jordan", jordan_modes(rng))):
        path = write(inputs / f"{name}.json", jsonio.encode_state_space(ss))
        calls += [
            (f"{name}_check", ["check", "--input", path]),
            (f"{name}_spectrum", ["spectrum", "--input", path]),
            (f"{name}_synthesize", ["synthesize", "--input", path]),
        ]
    calls += (error_calls(inputs) + scale_calls(inputs) + zero_size_calls(inputs)
              + non_finite_calls(inputs))
    return interleave(calls, usage_calls(inputs))


def usage_calls(inputs: Path) -> list:
    """Calls that argparse ends with SystemExit: help, and three usage errors."""
    calls = [("usage_help", ["--help"])]
    calls += [(f"usage_{command}_help", [command, "--help"])
              for command in ("check", "synthesize", "convert", "spectrum", "factor",
                              "example")]
    return calls + [
        ("usage_missing_input", ["check"]),
        ("usage_unknown_command", ["solve", "--input", str(inputs / "example.json")]),
        ("usage_factor_tol", ["factor", "--input", str(inputs / "example.json"),
                              "--tol", "1"]),
    ]


def interleave(calls: list, extra: list) -> list:
    """``calls`` with one of ``extra`` after each of len(extra) equal runs of them."""
    step = len(calls) // len(extra)
    out = []
    for i, call in enumerate(extra):
        out += calls[i * step:(i + 1) * step] + [call]
    return out + calls[len(extra) * step:]


def error_calls(inputs: Path) -> list:
    """Literal inputs the CLI must refuse, with the calls that feed them in."""
    rank2 = np.zeros((4, 4))
    rank2[0, 1], rank2[1, 0] = 1.0, -1.0
    singular_d = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.diag([1.0, 0.0]))
    system = write(inputs / "singular_d.json", jsonio.encode_state_space(singular_d))
    example = write(inputs / "example.json", jsonio.encode_state_space(example_state_space()))
    pm = write(inputs / "singular_theta_pm.json", jsonio.encode_pm_params(
        PmParams(np.eye(2), 0.5 * np.ones((2, 4)), np.eye(4), rank2)))
    ac = write(inputs / "singular_e_ac.json", jsonio.encode_ac_params(
        AcParams(np.eye(1), 0.5 * np.ones((1, 2)), np.zeros((1, 2)), np.eye(2),
                 np.zeros((2, 2)), np.diag([1.0, 0.0]), np.zeros((2, 2)))))
    calls = [(f"singular_d_{command}", [command, "--input", system])
             for command in ("spectrum", "check", "synthesize")]
    non_skew = np.arange(16.0).reshape(4, 4)
    for name, mat in (("rank2_theta", rank2), ("non_skew_theta", non_skew)):
        theta = write(inputs / f"{name}.json", jsonio.encode_real_matrix(mat))
        calls += [
            (f"{name}_check", ["check", "--input", example, "--theta", theta]),
            (f"{name}_synthesize", ["synthesize", "--input", example, "--theta", theta]),
            (f"{name}_factor", ["factor", "--input", theta]),
        ]
    return calls + [
        ("singular_theta_pm2ac", ["convert", "--direction", "pm2ac", "--input", pm]),
        ("singular_e_ac2pm", ["convert", "--direction", "ac2pm", "--input", ac]),
    ]


def scale_calls(inputs: Path) -> list:
    """Literal commutation matrices that only a scale-aware bound on their
    skew-symmetry residual decides right, with the calls that feed them in."""
    example = str(inputs / "example.json")
    calls = []
    for name, scale, asymmetry in (("small_theta", 1e-3, 1e-7),
                                   ("large_theta", 1e3, 1e-9)):
        mat = scale * j_matrix(4)
        mat[0, 1] = np.sqrt(2.0) * asymmetry * scale  # |mat + mat^T| / |mat| = asymmetry
        theta = write(inputs / f"{name}.json", jsonio.encode_real_matrix(mat))
        pm = write(inputs / f"{name}_pm.json", jsonio.encode_pm_params(
            PmParams(np.eye(2), 0.5 * np.ones((2, 4)), np.eye(4), mat)))
        calls += [
            (f"{name}_factor", ["factor", "--input", theta]),
            (f"{name}_check", ["check", "--input", example, "--theta", theta]),
            (f"{name}_pm2ac", ["convert", "--direction", "pm2ac", "--input", pm]),
        ]
    return calls


def zero_size_calls(inputs: Path) -> list:
    """Literal systems, parameter sets and matrices with no states or no modes,
    and a system with no channels, with the calls that feed them in."""
    empty = write(inputs / "empty_matrix.json", jsonio.encode_real_matrix(np.zeros((0, 0))))
    calls = [("empty_matrix_factor", ["factor", "--input", empty])]
    for name, d in (("static_pr", j_matrix(4)), ("static_not_pr", np.diag([2.0, 0.5]))):
        path = write(inputs / f"{name}.json", jsonio.encode_state_space(StateSpace.static(d)))
        calls += [
            (f"{name}_check", ["check", "--input", path]),
            (f"{name}_check_theta", ["check", "--input", path, "--theta", "J"]),
            (f"{name}_spectrum", ["spectrum", "--input", path]),
            (f"{name}_synthesize", ["synthesize", "--input", path]),
            (f"{name}_synthesize_theta", ["synthesize", "--input", path, "--theta", empty]),
        ]
    z = np.zeros((0, 0))
    static_pm = PmParams(j_matrix(4), np.zeros((4, 0)), z, z)
    static_ac = AcParams(np.eye(2), np.zeros((2, 0)), np.zeros((2, 0)), z, z, z, z)
    pm = write(inputs / "static_pm.json", jsonio.encode_pm_params(static_pm))
    ac = write(inputs / "static_ac.json", jsonio.encode_ac_params(static_ac))
    no_channels = write(inputs / "no_channels.json", jsonio.encode_state_space(
        StateSpace(np.diag([-1.0, 3.0]), np.zeros((2, 0)), np.zeros((0, 2)), z)))
    return calls + [
        ("static_pm2ac", ["convert", "--direction", "pm2ac", "--input", pm]),
        ("static_ac2pm", ["convert", "--direction", "ac2pm", "--input", ac]),
        ("no_channels_check", ["check", "--input", no_channels]),
    ]


def non_finite_calls(inputs: Path) -> list:
    """The reference model with one non-finite entry or one entry that is not
    a JSON number, and its parameter set with a null entry, with the calls
    that feed them in."""
    cases = [(f"{str(value).lower()}_in_{key}", key, value)
             for key, value in (("B", np.nan), ("D", np.nan), ("D", np.inf), ("A", np.nan))]
    cases += [(f"{name}_in_A", "A", value)
              for name, value in (("null", None), ("nan_string", "NaN"), ("true", True))]
    calls = []
    for name, key, value in cases:
        payload = jsonio.encode_state_space(example_state_space())
        payload[key]["data"][0][0] = value
        path = write(inputs / f"{name}.json", payload)
        calls += [
            (f"{name}_check", ["check", "--input", path]),
            (f"{name}_check_theta", ["check", "--input", path, "--theta", "J"]),
            (f"{name}_synthesize", ["synthesize", "--input", path]),
        ]
    pm = jsonio.encode_pm_params(example_pm_params())
    pm["M"]["data"][0][0] = None
    path = write(inputs / "null_in_M_pm.json", pm)
    return calls + [("null_in_M_pm2ac", ["convert", "--direction", "pm2ac", "--input", path])]


def run(name: str, argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--output", f"outputs/{name}.json"])
        except SystemExit as exc:  # argparse exits on --help and on usage errors
            code = exc.code
    Path("calls", f"{name}.txt").write_text(
        f"argv: {' '.join(argv)}\nexit: {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}",
        encoding="utf-8",
    )


# A number as jsonio and the CLI's messages write it, non-finite ones included.
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN|-?inf|nan")


class Moves:
    """Largest absolute and relative change of the numbers of each field."""

    def __init__(self):
        self.fields = {}
        self.count = 0

    def add(self, field, old, new, where):
        old, new = float(old), float(new)
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        self.count += 1
        diff = abs(new - old)
        rel = diff / abs(old) if old else math.inf
        if math.isnan(diff):
            diff = rel = math.inf
        worst = self.fields.setdefault(field, [0.0, 0.0, set(), ""])
        if rel >= worst[1]:
            worst[3] = where
        worst[0], worst[1] = max(worst[0], diff), max(worst[1], rel)
        worst[2].add(where)


def compare_json(old, new, path, moves, where):
    """Differences outside numbers between two decoded JSON values; numbers
    that moved go to ``moves``."""
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)):
        moves.add(path, old, new, where)
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return [f"{path or '.'}: keys {sorted(old)} -> {sorted(new)}"]
        return [d for key in old for d in compare_json(
            old[key], new[key], f"{path}.{key}".lstrip("."), moves, where)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for a, b in zip(old, new)
                for d in compare_json(a, b, f"{path}[]", moves, where)]
    if type(old) is type(new) and old == new:
        return []
    return [f"{path or '.'}: {old!r} -> {new!r}"]


def compare_text(old, new, moves, where):
    """Differences outside numbers between two texts, line by line; the exit
    line of a call record must match exactly."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{len(old_lines)} -> {len(new_lines)} lines"]
    diffs = []
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        if a.startswith("exit:") or NUMBER.split(a) != NUMBER.split(b):
            diffs.append(f"{a!r} -> {b!r}")
            continue
        for m, y in zip(NUMBER.finditer(a), NUMBER.findall(b)):
            moves.add("text: " + a[:m.start()].strip(), m.group(), y, where)
    return diffs


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print how the trees ``dir_a`` and ``dir_b`` differ; 1 when they differ
    outside numbers, else 0."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    problems = [f"only in {dir_a}: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in {dir_b}: {p}" for p in sorted(files_b - files_a)]
    moves, changed, formatting = Moves(), 0, []
    for rel in sorted(files_a & files_b):
        old = (dir_a / rel).read_text(encoding="utf-8")
        new = (dir_b / rel).read_text(encoding="utf-8")
        if old == new:
            continue
        changed += 1
        before = moves.count
        if rel.suffix == ".json":
            diffs = compare_json(json.loads(old), json.loads(new), "", moves, str(rel))
        else:
            diffs = compare_text(old, new, moves, str(rel))
        problems += [f"{rel}: {d}" for d in diffs]
        if not diffs and moves.count == before:
            formatting.append(str(rel))
    print(f"{len(files_a & files_b)} files in both trees, {changed} differ")
    for rel in formatting:
        print(f"  {rel}: equal numbers written differently")
    if moves.fields:
        print("moved numbers (field: largest absolute change, largest relative change, files):")
    for field, (diff, rel, where, worst) in sorted(moves.fields.items()):
        print(f"  {field}: {diff:.3g}, {rel:.3g}, {len(where)} files "
              f"(largest relative in {worst})")
    for line in problems:
        print(f"DIFFERS {line}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="DIR",
                      help="new or empty directory for the corpus and the records")
    mode.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"), type=Path,
                      help="compare two recorded trees, numbers apart from text")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    os.chdir(out)
    os.environ["COLUMNS"] = "80"
    Path("outputs").mkdir()
    Path("calls").mkdir()
    calls = build_corpus(args.seed)
    for name, call in calls:
        run(name, call)
    print(f"{len(calls)} calls recorded under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
