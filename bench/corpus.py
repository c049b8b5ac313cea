"""Seeded job lists for the three benchmark workloads.

Every expression is built from the schedule grammar as a structure (a list of
items) and rendered to text; the program sees only the text and the stage.
The structure is what the oracle reads, so oracle values never come from the
program under test. This module does not import fractalc.

Jobs are laid out in rounds of fixed slots. Each slot fixes a family of
expression and a size band; the seed picks the angles, ratios, pieces and
repeats inside it. Every seed therefore gives the same mix of work, which keeps
the figures of different seeds comparable, while the inputs themselves differ.
Stages are picked from the exact segment count (geometry) or the number of
census buckets the expansion enumerates (analytic); inputs are never filtered
by how the program behaves on them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# the two overlap anchors named by the acceptance suite, with their verdicts
KOCH_ANCHOR = ("K[pi/3]", 7, False)
CROSSING_ANCHOR = ("G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]", 12, True)
# ROADMAP item 2: the float Moran product overflows on this input
OVERFLOW_INPUT = "C[1/2,1/3]^100000"
# free-form pieces about three times apart in length
UNEQUAL_FREE = {"kind": "G", "repeat": 1,
                "pieces": [["0.19", "0.03", "draw"], ["0.19", "1.11", "draw"],
                           ["0.52", "-0.64", "draw"]]}

KOCH_MAX_ANGLE = 1.5707  # below pi/2 at the four decimals the corpus writes
TIGHT_FOLD_ANGLE = 1.2  # Koch angles from here to pi/2 fold the curve tightly
GEOMETRY_BANDS = {"small": (4_000, 9_000), "mid": (9_000, 20_000), "large": (20_000, 33_000)}
ANALYTIC_CENSUS_CAP = 6_000  # buckets enumerated by the census
ANALYTIC_STATS_CAP = 6_000  # buckets enumerated by stats_report, summed over its stages
SEGMENT_BUDGET = 10_000_000  # the program's default cap; CLI budget jobs exceed it


# --- items -------------------------------------------------------------------
# An item is a dict: {"kind": "K", "angle": "pi/3", "repeat": 1},
# {"kind": "Q", ...}, {"kind": "C", "ratios": ["1/2", "1/3"], ...} or
# {"kind": "G", "pieces": [["0.45", "0.3", "draw"], ...], ...}.


def item_text(item: dict) -> str:
    kind = item["kind"]
    if kind in ("K", "Q"):
        body = item["angle"]
    elif kind == "C":
        body = ",".join(item["ratios"])
    else:
        body = ";".join(f"({r},{a},{pen})" for r, a, pen in item["pieces"])
    text = f"{kind}[{body}]"
    return text + (f"^{item['repeat']}" if item["repeat"] > 1 else "")


def schedule_text(items: list[dict]) -> str:
    return " ".join(item_text(i) for i in items)


def copies(item: dict) -> int:
    """Number of drawn pieces of one application of the item's generator."""
    kind = item["kind"]
    if kind == "K":
        return 4
    if kind == "Q":
        return 5
    if kind == "C":
        return len(item["ratios"])
    return sum(1 for _, _, pen in item["pieces"] if pen == "draw")


def segment_count(items: list[dict], k: int) -> int:
    return math.prod(copies(i) ** (i["repeat"] * k) for i in items)


def census_work(items: list[dict], k: int) -> int:
    """Buckets the multinomial census enumerates at stage k, before merging."""
    return math.prod(math.comb(i["repeat"] * k + copies(i) - 1, copies(i) - 1) for i in items)


def stats_work(items: list[dict], k: int) -> int:
    """Buckets stats_report enumerates: a census per stage 1..k, plus stage k again."""
    return sum(census_work(items, s) for s in range(1, k + 1)) + census_work(items, k)


# --- random primitives -------------------------------------------------------


def _koch(rng: random.Random, repeat: int = 1, lo: float = 0.01) -> dict:
    """Koch item with its angle in [lo, pi/2); over the full range, 0.4 are written pi/n."""
    if lo < math.pi / 12 and rng.random() < 0.4:
        angle = f"pi/{rng.randint(3, 12)}"
    else:
        angle = f"{rng.uniform(lo, KOCH_MAX_ANGLE):.4f}"
    return {"kind": "K", "angle": angle, "repeat": repeat}


def _quad(repeat: int = 1) -> dict:
    return {"kind": "Q", "angle": "pi/2", "repeat": repeat}


def _cantor(rng: random.Random, n: int, repeat: int = 1) -> dict:
    """n kept ratios with small denominators, not all equal, summing to at most 1."""
    while True:
        ratios = [Fraction(rng.randint(1, 2), rng.randint(3, 9)) for _ in range(n)]
        if sum(ratios) <= 1 and (n == 1 or len(set(ratios)) > 1):
            return {"kind": "C", "ratios": [f"{r.numerator}/{r.denominator}" for r in ratios],
                    "repeat": repeat}


def _free(rng: random.Random, n: int, repeat: int = 1) -> dict:
    """Free-form generator with n drawn pieces and maybe one gap."""
    pieces = [[f"{rng.uniform(0.15, 0.6):.2f}", f"{rng.uniform(-1.2, 1.2):.2f}", "draw"]
              for _ in range(n)]
    if rng.random() < 0.3:
        pieces.insert(rng.randint(1, n - 1) if n > 1 else 1,
                      [f"{rng.uniform(0.05, 0.3):.2f}", f"{rng.uniform(-0.5, 0.5):.2f}", "gap"])
    return {"kind": "G", "pieces": pieces, "repeat": repeat}


def _crossing(rng: random.Random) -> dict:
    """Perturbed crossing anchor: the second drawn piece crosses the first.

    The gap runs back almost along the first piece and ends above it; the
    second piece heads down more steeply than the gap rose, so it meets the
    first piece before reaching its far end.
    """
    delta = rng.uniform(0.03, 0.05)
    eps = delta + rng.uniform(0.005, 0.02)
    pieces = [
        [f"{rng.uniform(0.88, 0.9):.2f}", "0", "draw"],
        [f"{rng.uniform(0.47, 0.53):.2f}", f"{math.pi - delta:.4f}", "gap"],
        [f"{rng.uniform(0.48, 0.52):.2f}", f"{-eps:.4f}", "draw"],
    ]
    return {"kind": "G", "pieces": pieces, "repeat": 1}


# --- stage selection ---------------------------------------------------------


def _stage_in_band(items: list[dict], band: tuple[int, int]) -> int | None:
    lo, hi = band
    for k in range(1, 64):
        n = segment_count(items, k)
        if n > hi:
            return None
        if n >= lo:
            return k
    return None


def _census_stage(items: list[dict]) -> int | None:
    """Largest stage up to 40 whose census work stays under the cap."""
    best = None
    for k in range(1, 41):
        if census_work(items, k) > ANALYTIC_CENSUS_CAP:
            break
        best = k
    return best


def _stats_stage(items: list[dict]) -> int | None:
    """Largest stage in 4..12 whose stats work stays under the cap."""
    best = None
    for k in range(4, 13):
        if stats_work(items, k) > ANALYTIC_STATS_CAP:
            break
        best = k
    return best


# --- workloads ---------------------------------------------------------------


def _analytic_slot(rng: random.Random, slot: int, round_no: int) -> dict:
    if slot == 9:
        # heavy-census tail, one job in ten
        if round_no % 2 == 0:
            items = [_koch(rng)]
            return {"items": items, "stage": 100, "stats_stage": 4}
        items = [_cantor(rng, 2), _koch(rng)]
        return {"items": items, "stage": 30, "stats_stage": 4}
    rep = lambda: rng.randint(1, 5)  # noqa: E731
    while True:
        if slot == 0:
            items = [_koch(rng, rep()) if rng.random() < 0.7 else _quad(rep())]
        elif slot == 1:
            items = [_koch(rng, rep()), _quad(rep()) if rng.random() < 0.5 else _koch(rng, rep())]
        elif slot == 2:
            items = [_cantor(rng, 2, rep())]
        elif slot == 3:
            items = [_cantor(rng, rng.randint(2, 3), rep()), _koch(rng, rep())]
        elif slot == 4:
            items = [_free(rng, rng.randint(2, 3), rep())]
        elif slot == 5:
            free = _free(rng, 2, rep())
            items = [free, _koch(rng, rep()) if rng.random() < 0.5 else _quad(rep())]
        elif slot == 6:
            items = [_cantor(rng, 2, rep()), _koch(rng, rep()), _free(rng, 2, rep())]
        elif slot == 7:
            items = [_cantor(rng, rng.randint(3, 4), rep())]
        else:
            makers = [lambda r: _koch(rng, r), lambda r: _quad(r),
                      lambda r: _cantor(rng, rng.randint(2, 4), r),
                      lambda r: _free(rng, rng.randint(2, 4), r)]
            items = [rng.choice(makers)(rep()) for _ in range(rng.randint(1, 3))]
        stage, stats_stage = _census_stage(items), _stats_stage(items)
        if stage is not None and stats_stage is not None:
            return {"items": items, "stage": stage, "stats_stage": stats_stage}


# Geometry slots: (family, items maker, size band). Each slot keeps one
# generator shape; the seed draws its angles, ratios and pieces. Overlap
# detection and box counting get slower as segment lengths grow unequal and as
# the curve folds tightly. Those cases are strata of their own, in the small
# band, so that one lucky or unlucky draw does not move a run's figures: Koch
# angles from 1.2 to pi/2 and Cantor ratios about four times apart, seeded.
# Free-form pieces about three times apart are one fixed case: seeded, they
# set a run's peak memory through the overlap check's pair set, which ranged
# from 103 to 166 MB over five seeds with how the pieces turn. Seeded free-form
# pieces stay within 1.5 times of each other. A Cantor generator on its own puts every
# segment on one line, where the overlap check's spatial hash degenerates
# (C[1/9,2/3,1/9] at 6561 segments takes about 17 s); one fixed, milder case of
# it runs every round, for the same reason.
def _geometry_families(rng: random.Random) -> list:
    return [
        ("chain", lambda: [_koch(rng)], "small"),
        ("chain", lambda: [_koch(rng)], "mid"),
        ("tight-chain", lambda: [_koch(rng, lo=TIGHT_FOLD_ANGLE)], "small"),
        ("chain", lambda: [_quad()], "mid"),
        ("chain", lambda: rng.choice([[_quad(), _koch(rng)], [_koch(rng), _quad()]]), "small"),
        ("unequal-dust", lambda: [_unequal_cantor(rng), _koch(rng)], "small"),
        ("dust", lambda: [_near_cantor(rng), _koch(rng)], "large"),
        ("dust", lambda: [_near_cantor(rng), _quad()], "mid"),
        ("crossing", lambda: [_crossing(rng)], "small"),
        ("free", lambda: [_even_free(rng)], "small"),
        ("unequal-free", lambda: [UNEQUAL_FREE], "small"),
        ("line", lambda: [{"kind": "C", "ratios": ["1/8", "1/2"], "repeat": 1}], "small"),
        ("anchor", KOCH_ANCHOR, None),
        ("anchor", CROSSING_ANCHOR, None),
    ]


def _near_cantor(rng: random.Random) -> dict:
    """Two distinct kept ratios at most twice apart."""
    return {"kind": "C", "ratios": rng.sample(["1/4", "1/3", "2/5", "1/2"], 2), "repeat": 1}


def _unequal_cantor(rng: random.Random) -> dict:
    """Two kept ratios about four times apart."""
    ratios = [f"1/{rng.randint(8, 9)}", rng.choice(["2/5", "1/2"])]
    return {"kind": "C", "ratios": ratios, "repeat": 1}


def _free_pieces(rng: random.Random, lengths: list[float]) -> dict:
    return {"kind": "G", "repeat": 1,
            "pieces": [[f"{x:.2f}", f"{rng.uniform(-1.2, 1.2):.2f}", "draw"] for x in lengths]}


def _even_free(rng: random.Random) -> dict:
    """Three drawn pieces at most 1.5 times apart in length."""
    base = rng.uniform(0.15, 0.4)
    return _free_pieces(rng, [rng.uniform(base, 1.5 * base) for _ in range(3)])


def _geometry_slot(rng: random.Random, slot: int) -> dict:
    family, make, band = _geometry_families(rng)[slot]
    if family == "anchor":
        text, stage, verdict = make
        return {"text": text, "stage": stage, "overlap": verdict, "items": None}
    while True:
        items = make()
        stage = _stage_in_band(items, GEOMETRY_BANDS[band])
        if stage is not None:
            return {"items": items, "stage": stage}


def _cli_cycle(rng: random.Random) -> list[dict]:
    """One pass over the six commands plus the documented error exits."""
    composite = [_cantor(rng, 2), _koch(rng)]
    koch = _koch(rng)
    census_items = rng.choice([[_cantor(rng, 2), _koch(rng)], [_free(rng, 2), _quad()],
                               [_koch(rng), _cantor(rng, 3)]])
    stats_items = [_cantor(rng, 2), _koch(rng)]
    render_items = rng.choice([[_koch(rng)], [_cantor(rng, 2), _koch(rng)], [_free(rng, 3)],
                               [_quad()]])
    target = Fraction(rng.randint(1, 3), rng.randint(2, 4))
    n_value = rng.choice([1000, 10**6, 10**9])
    bad = schedule_text(composite)[:-1]  # drop the closing bracket
    big_stage = next(k for k in range(1, 64) if segment_count([koch], k) > SEGMENT_BUDGET)
    return [
        {"cmd": "dim", "args": [schedule_text(composite)], "items": composite, "exit": [0]},
        {"cmd": "census", "args": [schedule_text(census_items), "--stage", "6"],
         "items": census_items, "stage": 6, "exit": [0]},
        {"cmd": "stats", "args": [schedule_text(stats_items), "--stage", "4"],
         "items": stats_items, "stage": 4, "exit": [0]},
        {"cmd": "validate", "args": [schedule_text([koch]), "--stage", "6"],
         "items": [koch], "stage": 6, "exit": [0]},
        {"cmd": "render", "args": [schedule_text(render_items), "--stage", "4",
                                   "-o", "out.svg", "--csv", "out.csv"],
         "items": render_items, "stage": 4, "exit": [0]},
        {"cmd": "limit", "args": ["--base", schedule_text([koch]), "--target",
                                  f"{target.numerator}/{target.denominator}", "--n", str(n_value)],
         "items": [koch], "target": [target.numerator, target.denominator], "n": n_value,
         "exit": [0]},
        {"cmd": "dim", "args": [bad], "items": None, "exit": [2]},
        {"cmd": "render", "args": [schedule_text([koch]), "--stage", str(big_stage),
                                   "-o", "big.svg"], "items": [koch], "exit": [4]},
        # documented outcome is the dimension (exit 0) or a solver error (exit 3);
        # today it exits 1 with a traceback, the one failure a run expects
        {"cmd": "dim", "args": [OVERFLOW_INPUT], "exit": [0, 3], "known_bad": True,
         "items": [{"kind": "C", "ratios": ["1/2", "1/3"], "repeat": 100_000}]},
    ]


def build(workload: str, seed: int, rounds: int) -> list[dict]:
    """The workload's job list for one seed: `rounds` rounds of fixed slots."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []
    for round_no in range(rounds):
        if workload == "analytic":
            batch = [_analytic_slot(rng, slot, round_no) for slot in range(10)]
        elif workload == "geometry":
            batch = [_geometry_slot(rng, slot) for slot in range(len(_geometry_families(rng)))]
        elif workload == "cli":
            batch = _cli_cycle(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        for job in batch:
            if "text" not in job and workload != "cli":
                job["text"] = schedule_text(job["items"])
            job["id"] = len(jobs)
            job["round"] = round_no
            jobs.append(job)
    return jobs


def warmup_job(workload: str) -> dict:
    """Fixed untimed first job, the same for every seed, so set-up time is comparable."""
    if workload == "analytic":
        items = [{"kind": "C", "ratios": ["1/2", "1/3"], "repeat": 1},
                 {"kind": "K", "angle": "pi/3", "repeat": 1}]
        return {"id": -1, "items": items, "text": schedule_text(items), "stage": 8,
                "stats_stage": 4}
    if workload == "geometry":
        items = [{"kind": "K", "angle": "pi/3", "repeat": 1}]
        return {"id": -1, "items": items, "text": schedule_text(items), "stage": 6}
    items = [{"kind": "C", "ratios": ["1/2", "1/3"], "repeat": 1},
             {"kind": "K", "angle": "pi/3", "repeat": 1}]
    return {"id": -1, "cmd": "dim", "args": [schedule_text(items)], "items": items, "exit": [0]}


def digest(jobs: list[dict]) -> str:
    """sha256 of the job list, to tell corpora apart in recorded results."""
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()
