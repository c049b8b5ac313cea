"""Output-identity check: run one fixed list of CLI invocations on two trees.

    python3 tools/identity.py BASE_REV [--allow REGEX ...]

BASE_REV is checked out into a temporary `git worktree`, removed afterwards;
the other tree is this checkout, uncommitted changes included. Each
invocation runs as `python -m fractalc.cli ...` on each tree's `src`, in a
fresh empty directory, under a timeout of TIMEOUT seconds, WORKERS runs at a
time. The list is fixed:

- the cli benchmark corpus of seeds 61 and 101-105, read through
  `bench/corpus.build` (ROUNDS rounds of each);
- every `fractalc` line of README.md;
- BUDGET_EDGES below: each command with FRACTALC_SEGMENT_BUDGET set just below
  and at the limit of each kind of work it is charged for;
- LIMIT_BASES below: `limit` on five bases the corpus does not use;
- PATH_EDGES below: code paths the corpus does not reach.

Exit code, stdout, stderr and the bytes of every file the run writes are
compared, with the run directory written as <tmp>. Differences are printed
grouped by command, one line each:

    <invocation> | <fields that differ> | <base exit (seconds): first stderr
    line> -> <the same on this tree>

and the tool exits 1 when a line matches no `--allow` pattern (re.search),
0 otherwise. The summary line ends with the line count of
`src/fractalc/*.py` on each tree, as `wc -l` totals it. Run from any
directory; it needs git and the numpy of the program.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (61, 101, 102, 103, 104, 105)
ROUNDS = 5
WORKERS = 2
TIMEOUT = 20.0

# (FRACTALC_SEGMENT_BUDGET, args): one below and at each kind's limit
BUDGET_EDGES = [
    # segments: 4^6 = 4096
    *((b, ["render", "K[pi/3]", "--stage", "6", "-o", "out.svg"]) for b in ("4095", "4096")),
    *((b, ["validate", "K[pi/3]", "--stage", "6"]) for b in ("4095", "4096")),
    *((b, ["render", "C[1/3,1/3]", "--stage", "19", "-o", "out.svg"])
      for b in ("524287", "524288")),
    # render's export cap of 10^6 against 2^20 segments, under budgets at and past it
    *((b, ["render", "C[1/3,1/3]", "--stage", "20", "-o", "out.svg"])
      for b in ("1000000", "1000001", None)),
    # substage applications: 100 of a one-piece generator, then 33,333 and 33,334
    *((b, [cmd, "C[1/2]^50", "--stage", "2", *out])
      for b in ("29999", "30000")
      for cmd, out in (("render", ["-o", "out.svg"]), ("validate", []))),
    *((None, ["render", f"C[1/2]^{n}", "--stage", "1", "-o", "out.svg"]) for n in (33333, 33334)),
    (None, ["validate", "C[1/2]^33334", "--stage", "1"]),
    # census buckets, equal ratios folded: one printed bucket of 95 units at
    # stage 10; 52,308 units over stages 0..1000 of one bucket, 15 units plus
    # one per 8 digits of 4^s each; 420 over stages 0..6 of s + 1 buckets
    *((b, ["census", "K[pi/3]", "--stage", "10"]) for b in ("94", "95")),
    *((b, ["stats", "K[pi/3]", "--stage", "1000"]) for b in ("52307", "52308")),
    *((b, ["stats", "C[1/2,1/3] K[pi/3]", "--stage", "6"]) for b in ("419", "420")),
    # census stages: one stage, and 20 one-bucket stages
    *((b, ["census", "K[pi/3]", "--stage", "1"]) for b in ("49", "50")),
    *((b, ["stats", "C[1/2]", "--stage", "19"]) for b in ("999", "1000", "20")),
    # the digits of the census total: 4,300 and 4,301
    *((None, ["census", "C[1/2,1/2]", "--stage", s]) for s in ("14284", "14285")),
    # grid cells of box counting, counted from the segments
    (None, ["validate", "K[pi/3]", "--stage", "1", "--scales", "40", "--min-scale", "1e-12"]),
    # a budget that is not an integer of at least 1
    *((b, ["census", "K[pi/3]", "--stage", "2"]) for b in ("0", "ten")),
]

# limit's base dimension, on bases other than the corpus's K[pi/3]: a line,
# dimension 0, the square curve, a decimal ratio and another Koch angle
LIMIT_BASES = [
    (None, ["limit", "--base", base, "--target", target, "--n", n, *human])
    for base, target, n, human in (
        ("C[1/3,1/3]", "3/2", "10", []),
        ("C[1/2]", "1/2", "1000", []),
        ("Q[pi/2]", "5/3", "100", ["--human"]),
        ("C[0.3,0.3,0.3]", "3/2", "10", []),
        ("K[pi/4]", "1/2", "1000000", []),
    )
]

# censuses that fold equal ratios into few buckets (the first four exited 4
# while the budget counted compositions before the fold), and one whose total
# has 602,060 digits; a spectrum 1e-13 off the binary closed form's relation;
# the exact factorization compare on 0.0 buckets and on dependent ratios;
# validate's human output; SVG and CSV points that the digit kernel writes
# itself up to 1e12 and hands to % from there (L0 from 1e3 to 1e13), and CSV
# points in exponent form (L0 1e-7); census's L0 scaling and its underflow
# warning, past (stage 110) and short of (stage 100) the float range under an
# L0 of 1e300; the warning's boundary, where 3^-678 reads 5e-324 and 3^-679
# reads 0.0; censuses whose merge runs the leader loop (a near tie, and equal
# products), one each side of the kept binomial rows' last row (128), and one
# with a 0.0 tail; a 32,768-segment render over several export chunks whose
# chains break, and render and validate of a figure whose overlap check stops
# at its first overlapping chunk and whose segments cross many box columns;
# render and validate of a figure too small for its tolerances (L0 5e-324),
# render of one just large enough (L0 1e-310), and validate of a figure whose
# shortest length reads 0.0; validate of figures whose box-count walk spans
# many batches: 262,144 Koch segments, and 65,536 segments of walks up to 474
# columns long; stats over power tables shared by its stages, with a weight
# table for a multiplicity of 2, and with a single-ratio item, which takes one
# power per stage, over many stages; dim --check on numeric spectra whose
# repeats have gcd 1 (one solve serves both reports) and gcd 2 (two solves)
PATH_EDGES = [
    (None, ["stats", "C[1/2,1/3] K[pi/3]", "--stage", "60"]),
    (None, ["stats", "C[1/2,1/4,1/6] K[pi/4] K[pi/3]", "--stage", "12"]),
    (None, ["census", "K[pi/3]", "--stage", "2000"]),
    (None, ["stats", "K[pi/3]", "--stage", "3000"]),
    (None, ["census", "K[pi/3]", "--stage", "1000000"]),
    (None, ["dim", "C[0.5,0.0833333333334] K[pi/3]"]),
    (None, ["stats", "C[1/1000] C[1/2,1/4]", "--stage", "110"]),
    (None, ["stats", "C[1/2,1/4,1/8] C[1/3,1/9]", "--stage", "6"]),
    (None, ["validate", "K[pi/3]", "--stage", "6", "--human"]),
    (None, ["render", "K[pi/3]", "--stage", "4", "--l0", "1e12", "-o", "out.svg"]),
    *((None, ["render", "K[pi/3]", "--stage", "4", "--l0", l0, "-o", "out.svg", "--csv", "out.csv"])
      for l0 in ("1e3", "1e9", "1e11", "1e13", "1e-7")),
    (None, ["render", "C[1/3,1/3] K[pi/3]", "--stage", "3", "--l0", "1e13", "-o", "out.svg",
            "--csv", "out.csv"]),
    *((None, ["census", "C[1/1000]", "--stage", s, "--l0", "1e300"]) for s in ("110", "100")),
    *((None, ["census", "C[1/3]", "--stage", s]) for s in ("678", "679")),
    (None, ["stats", "C[1/3]", "--stage", "678"]),
    (None, ["census", "C[1/2,1/3] K[pi/3]", "--stage", "4", "--l0", "0.001", "--human"]),
    (None, ["census", "C[0.5,0.4999999999999]", "--stage", "1"]),
    (None, ["census", "C[1/2,1/4,1/8]", "--stage", "100"]),
    *((None, ["census", "C[1/3,1/4,1/5]", "--stage", s]) for s in ("128", "129", "256", "257")),
    (None, ["stats", "C[1/2,1/4,1/8]^4", "--stage", "52"]),
    (None, ["stats", "C[1/2,1/4,1/8]^12", "--stage", "24"]),
    (None, ["census", "C[1/2,1/3]", "--stage", "10000"]),
    (None, ["render", "C[1/2,1/3] K[1.4777]", "--stage", "5", "-o", "out.svg", "--csv", "out.csv"]),
    *((None, [cmd, "G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]", "--stage", "12", *out])
      for cmd, out in (("render", ["-o", "out.svg"]), ("validate", []))),
    *((None, [cmd, "K[pi/3]", "--stage", "2", "--l0", "5e-324", *out])
      for cmd, out in (("render", ["-o", "out.svg"]), ("validate", []))),
    (None, ["render", "K[pi/3]", "--stage", "2", "--l0", "1e-310", "-o", "out.svg"]),
    (None, ["validate", "C[1/1" + "0" * 322 + ",1/2]", "--stage", "3", "--l0", "0.001"]),
    (None, ["validate", "K[pi/3]", "--stage", "9"]),
    (None, ["validate", "G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]", "--stage", "16"]),
    (None, ["stats", "G[(0.3,0,draw);(0.3,0.2,draw);(0.2,-0.2,draw)]^3", "--stage", "12"]),
    (None, ["stats", "K[pi/3] C[1/2,1/3]", "--stage", "40"]),
    *((None, ["dim", text, "--check"]) for text in ("C[1/2,1/3] K[pi/5]",
                                                     "C[1/2,1/3]^2 K[pi/5]^2")),
]


def invocations() -> list[tuple[str | None, tuple[str, ...]]]:
    """The fixed list, without repeats, in first-seen order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    found = [(None, [job["cmd"], *job["args"]])
             for seed in SEEDS for job in corpus.build("cli", seed, ROUNDS)]
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("fractalc "):
            found.append((None, shlex.split(line, comments=True)[1:]))
    found += BUDGET_EDGES + LIMIT_BASES + PATH_EDGES
    return list(dict.fromkeys((budget, tuple(args)) for budget, args in found))


def run(src: Path, budget: str | None, args: tuple[str, ...]) -> tuple:
    """((exit code or "timeout", stdout, stderr, {file name: bytes}), seconds) of one run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("FRACTALC_SEGMENT_BUDGET", None)
    if budget is not None:
        env["FRACTALC_SEGMENT_BUDGET"] = budget
    with tempfile.TemporaryDirectory(prefix="identity-") as cwd:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "fractalc.cli", *args], cwd=cwd,
                                  env=env, capture_output=True, text=True, timeout=TIMEOUT)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = "timeout", "", ""
        seconds = time.perf_counter() - start
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir()) if p.is_file()}
        real = os.path.realpath(cwd)
        out, err = (s.replace(real, "<tmp>").replace(cwd, "<tmp>") for s in (out, err))
    return (code, out, err, files), seconds


def src_lines(tree: Path) -> int:
    """Newlines in the tree's src/fractalc/*.py, the total of `wc -l`."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "fractalc").glob("*.py"))


def _first_line(text: str) -> str:
    return text.splitlines()[0] if text else ""


def _outcome(result: tuple, seconds: float) -> str:
    return f"exit {result[0]} ({seconds:.2f} s): {_first_line(result[2])}"


def describe(budget, args, base: tuple, new: tuple) -> str | None:
    """One line for a difference between two runs, or None when they agree."""
    fields = [name for name, a, b in zip(("exit", "stdout", "stderr", "files"), base[0], new[0])
              if a != b]
    if not fields:
        return None
    invocation = ("" if budget is None else f"FRACTALC_SEGMENT_BUDGET={budget} ") + shlex.join(
        ["fractalc", *args])
    return f"{invocation} | {', '.join(fields)} | {_outcome(*base)} -> {_outcome(*new)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--allow", action="append", default=[], metavar="REGEX",
                        help="a difference line this matches is expected (repeatable)")
    args = parser.parse_args(argv)
    allowed = [re.compile(p) for p in args.allow]
    cases = invocations()

    with tempfile.TemporaryDirectory(prefix="identity-base-") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base_tree), args.base_rev], check=True)
        try:
            with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
                futures = [(case, pool.submit(run, tree / "src", *case))
                           for case in cases for tree in (base_tree, ROOT)]
                results = [(case, future.result()) for case, future in futures]
            lines = src_lines(base_tree), src_lines(ROOT)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_tree)], check=True)

    groups: dict[str, list[str]] = {}
    for (case, base), (_, new) in zip(results[::2], results[1::2]):
        line = describe(*case, base, new)
        if line is not None:
            groups.setdefault(case[1][0], []).append(line)
    unexpected = 0
    for command, lines in sorted(groups.items()):
        print(f"== {command}: {len(lines)} difference(s)")
        for line in lines:
            expected = any(p.search(line) for p in allowed)
            unexpected += not expected
            print(("   allowed " if expected else "   ") + line)
    print(f"{len(cases)} invocations on {args.base_rev} and this tree; "
          f"{sum(map(len, groups.values()))} differ, {unexpected} not allowed; "
          f"src/ {lines[0]:,} -> {lines[1]:,} lines")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
