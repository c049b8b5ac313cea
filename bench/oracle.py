"""Independent oracles for every job's output.

Expected values come from the job's own structure (corpus items), computed
with mpmath at 50 digits; none of them calls fractalc. Each check returns a
list of problems, empty when the output is accepted.
"""

from __future__ import annotations

import json
import math
import os
import xml.parsers.expat

import mpmath

import corpus

DIGITS = 50
ALPHA_TOL = 1e-9  # the acceptance suite's oracle gap
REL_TOL = 1e-9
RESIDUAL_TOL = 1e-9


def _angle(text: str):
    if text.startswith("pi/"):
        return mpmath.pi / int(text[3:])
    return mpmath.mpf(text)


def draw_ratios(item: dict) -> list:
    kind = item["kind"]
    if kind == "K":
        # the four equal pieces at headings 0, t, -t, 0 close on (1, 0)
        return [1 / (2 * (1 + mpmath.cos(_angle(item["angle"]))))] * 4
    if kind == "Q":
        return [mpmath.mpf(1) / 3] * 5
    if kind == "C":
        return [mpmath.mpf(int(r.split("/")[0])) / int(r.split("/")[1]) for r in item["ratios"]]
    return [mpmath.mpf(r) for r, _, pen in item["pieces"] if pen == "draw"]


def _rel_err(got: float, want) -> float:
    return float(abs(mpmath.mpf(got) - want) / abs(want))


class Oracle:
    """Caches the 50-digit values of one corpus; create one per run."""

    def __init__(self):
        self._alpha: dict[str, object] = {}

    def alpha(self, items: list[dict]):
        """Root of g(a) = sum_i n_i ln sum_j r_ij^a, by Newton from a = 0.

        g is convex and strictly decreasing, so Newton from the left converges
        monotonically; the result is then bracketed to confirm the sign change.
        """
        key = json.dumps(items, sort_keys=True)
        if key in self._alpha:
            return self._alpha[key]
        with mpmath.workdps(DIGITS + 10):
            comps = [(draw_ratios(i), i["repeat"]) for i in items]

            def g(a):
                return mpmath.fsum(n * mpmath.log(mpmath.fsum(r**a for r in rs)) for rs, n in comps)

            def dg(a):
                return mpmath.fsum(n * mpmath.fsum(r**a * mpmath.log(r) for r in rs)
                                   / mpmath.fsum(r**a for r in rs) for rs, n in comps)

            a = mpmath.mpf(0)
            if g(a) > 0:
                for _ in range(200):
                    step = g(a) / dg(a)
                    a -= step
                    if abs(step) < mpmath.mpf(10) ** -(DIGITS + 2):
                        break
                delta = mpmath.mpf(10) ** -(DIGITS - 5)
                if not (g(a - delta) > 0 > g(a + delta)):
                    raise ArithmeticError(f"oracle root not bracketed for {key}")
            value = +a
        self._alpha[key] = value
        return value

    @staticmethod
    def length(items: list[dict], k: int):
        """Stage-k total length on the unit initiator: prod_i (sum_j r_ij)^(n_i k)."""
        with mpmath.workdps(DIGITS):
            return mpmath.fprod(mpmath.fsum(draw_ratios(i)) ** (i["repeat"] * k) for i in items)

    @staticmethod
    def content(items: list[dict], k: int, beta: float):
        with mpmath.workdps(DIGITS):
            b = mpmath.mpf(beta)
            return mpmath.fprod(mpmath.fsum(r**b for r in draw_ratios(i)) ** (i["repeat"] * k)
                                for i in items)

    # --- per-workload checks -----------------------------------------------

    def check_analytic(self, job: dict, out: dict) -> list[str]:
        items, k = job["items"], job["stage"]
        want = self.alpha(items)
        problems = []
        if abs(out["alpha"] - want) > ALPHA_TOL:
            problems.append(f"solve_moran alpha {out['alpha']!r} vs oracle {float(want)!r}")
        problems += self._census(out["census"], items, k)
        stats = out["stats"]
        if abs(stats["alpha"] - want) > ALPHA_TOL:
            problems.append(f"stats alpha {stats['alpha']!r} vs oracle {float(want)!r}")
        if not stats["max_normalization_residual"] <= RESIDUAL_TOL:
            problems.append(f"normalization residual {stats['max_normalization_residual']!r}")
        if stats["factorization_ok"] is not True:
            problems.append("factorization_ok is not True")
        err = _rel_err(out["content"], self.content(items, k, out["alpha"]))
        if not err <= REL_TOL:
            problems.append(f"content relative error {err:.3g}")
        return problems

    def _census(self, buckets, items: list[dict], k: int) -> list[str]:
        """Exact count total and count-weighted length total of (length, count) pairs."""
        counts = [c for _, c in buckets]
        if any(not isinstance(c, int) or c < 1 for c in counts):
            return ["census count is not a positive integer"]
        problems = []
        if sum(counts) != corpus.segment_count(items, k):
            problems.append(f"census total {sum(counts)} vs {corpus.segment_count(items, k)}")
        if max(counts).bit_length() < 1000:
            total = math.fsum(c * v for v, c in buckets)
        else:
            with mpmath.workdps(DIGITS):
                total = mpmath.fsum(mpmath.mpf(c) * v for v, c in buckets)
        err = _rel_err(total, self.length(items, k))
        if not err <= REL_TOL:
            problems.append(f"census length relative error {err:.3g}")
        return problems

    def check_geometry(self, job: dict, out: dict) -> list[str]:
        problems = []
        if job.get("items") is not None:
            items, k = job["items"], job["stage"]
            if out["segments"] != corpus.segment_count(items, k):
                problems.append(f"{out['segments']} segments vs {corpus.segment_count(items, k)}")
            err = _rel_err(out["total_length"], self.length(items, k))
            if not err <= REL_TOL:
                problems.append(f"total_length relative error {err:.3g}")
        if "overlap" in job and out["overlap"] is not job["overlap"]:
            problems.append(f"overlap verdict {out['overlap']} on anchor {job['text']}")
        problems += _box_ladder(out["scales"], out["counts"])
        problems += _svg_csv(out["svg_path"], out["csv_path"], out["segments"])
        return problems

    def check_cli(self, job: dict, code: int, stdout: str, stderr: str, workdir: str) -> list[str]:
        if code != 0:
            return [] if stderr.startswith("error: ") else ["no one-line error message on stderr"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON"]
        items = job["items"]
        cmd = job["cmd"]
        problems = []
        if cmd in ("dim", "stats"):
            want = self.alpha(items)
            if abs(payload["alpha"] - want) > ALPHA_TOL:
                problems.append(f"{cmd} alpha {payload['alpha']!r} vs oracle {float(want)!r}")
        if cmd == "dim":
            comps = [float(self.alpha([dict(i, repeat=1)])) for i in items]
            want_bounds = (min(comps), max(comps))
            if any(abs(a - b) > ALPHA_TOL for a, b in zip(payload["bounds"], want_bounds)):
                problems.append(f"bounds {payload['bounds']} vs {min(comps)}, {max(comps)}")
        elif cmd == "census":
            buckets = [(b["length"], b["count"]) for b in payload["buckets"]]
            problems += self._census(buckets, items, job["stage"])
            if payload["total_count"] != sum(c for _, c in buckets):
                problems.append("total_count is not the sum of bucket counts")
        elif cmd == "stats":
            if not payload["max_normalization_residual"] <= RESIDUAL_TOL:
                problems.append(f"normalization residual {payload['max_normalization_residual']!r}")
            if payload["factorization_ok"] is not True:
                problems.append("factorization_ok is not True")
        elif cmd == "validate":
            want = self.alpha(items)
            if abs(payload["theoretical"] - want) > ALPHA_TOL:
                problems.append(f"theoretical {payload['theoretical']!r} vs oracle {float(want)!r}")
            within = abs(payload["slope"] - float(want)) <= payload["tolerance"]
            if payload["verdict"] != ("PASS" if within else "FAIL"):
                problems.append(f"verdict {payload['verdict']} for slope {payload['slope']!r}")
            problems += _box_ladder(payload["scales"], payload["counts"])
        elif cmd == "render":
            k = job["stage"]
            if payload["segments"] != corpus.segment_count(items, k):
                problems.append(f"{payload['segments']} segments vs "
                                f"{corpus.segment_count(items, k)}")
            err = _rel_err(payload["total_length"], self.length(items, k))
            if not err <= REL_TOL:
                problems.append(f"total_length relative error {err:.3g}")
            problems += _svg_csv(os.path.join(workdir, payload["svg"]),
                                 os.path.join(workdir, payload["csv"]), payload["segments"])
        elif cmd == "limit":
            a1, a2 = job["target"]
            with mpmath.workdps(DIGITS):
                rs = draw_ratios(items[0])
                ln_n = mpmath.log(job["n"])
                base = mpmath.log(len(rs)) / mpmath.log(1 / rs[0])
                want = (mpmath.log(len(rs)) + a1 * ln_n) / (mpmath.log(1 / rs[0]) + a2 * ln_n)
            if abs(payload["alpha"] - want) > ALPHA_TOL:
                problems.append(f"limit alpha {payload['alpha']!r} vs oracle {float(want)!r}")
            if abs(payload["base_dimension"] - base) > ALPHA_TOL:
                problems.append(f"base_dimension {payload['base_dimension']!r} vs {float(base)!r}")
            if payload["target"] != f"{a1}/{a2}":
                problems.append(f"target {payload['target']!r}")
        return problems


def _box_ladder(scales, counts) -> list[str]:
    """Scales halve down the ladder and box counts never decrease as they do."""
    if len(scales) != len(counts) or len(scales) < 4:
        return [f"{len(scales)} scales with {len(counts)} counts"]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        return ["scales are not decreasing"]
    if counts[0] < 1 or any(b < a for a, b in zip(counts, counts[1:])):
        return [f"box counts {list(counts)} decrease down the ladder"]
    return []


def _svg_csv(svg_path: str, csv_path: str, segments: int) -> list[str]:
    """The SVG is well-formed XML with an svg root; the CSV has one x1,y1,x2,y2 line per segment."""
    problems = []
    roots: list[str] = []
    parser = xml.parsers.expat.ParserCreate()

    def start(name, attrs):
        if not roots:
            roots.append(name)

    parser.StartElementHandler = start
    try:
        with open(svg_path, "rb") as fh:
            parser.ParseFile(fh)
    except (OSError, xml.parsers.expat.ExpatError) as exc:
        problems.append(f"SVG is not well-formed: {exc}")
    else:
        if roots != ["svg"]:
            problems.append(f"SVG root is {roots}")
    try:
        with open(csv_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return problems + [f"CSV unreadable: {exc}"]
    lines = data.count(b"\n")
    if lines != segments or data.count(b",") != 3 * segments:
        problems.append(f"CSV has {lines} lines for {segments} segments")
    return problems
