"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 bench/smoke.py

Checks that every metric is printed with its unit for every workload, that
the traced run records a span for each layer its workload calls, that a
deliberately corrupted result is counted as a failure (the oracle bites), and
that a job that raises is a failure too.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run

LAYERS = {
    "analytic": ["parser.parse", "geometry.build_schedule", "moran.solve_moran",
                 "geometry.segment_census", "incstats.stats_report"],
    "geometry": ["parser.parse", "geometry.build_schedule", "geometry.iterate",
                 "geometry.detect_overlap", "geometry.export_svg", "geometry.export_csv",
                 "boxcount.estimate_dimension"],
    "cli": ["cli.import", "cli.dim", "cli.census", "cli.stats", "cli.validate", "cli.render",
            "cli.limit"],
}
SUMMARY_METRICS = {"setup_s": "s", "jobs_per_s": "1/s", "jobs_per_calib": "1/calib",
                   "job_p50_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH, "run.py"), "--workload",
                           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def check_outputs(spec: dict) -> None:
    for workload in run.WORKLOADS:
        summary, result = _run(workload, 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["attempted"] >= 1
        for m in spec["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0, (workload, m, got)
        for name, unit in SUMMARY_METRICS.items():
            assert summary["metrics"][name]["unit"] == unit, (workload, name)
        assert "job_p90_s" in summary["metrics"] or "job_p90_s" in summary, workload
        assert len(result["metrics"]) == len(spec["end_to_end"])

        summary, result = _run(workload, 1)
        assert [*result["metrics"]] == [m["name"] for m in spec["per_layer"]], workload
        with open(os.path.join(run.OUT, f"spans-{workload}-seed0.json"), encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        names = {s[0] for s in spans}
        missing = [layer for layer in LAYERS[workload] if layer not in names]
        assert not missing, (workload, missing)
        assert all(s[3] is not None for s in spans if s[0] not in ("job", "cli.import"))
        print(f"ok {workload}: metrics and units, spans for {len(LAYERS[workload])} layers")


def check_oracle_bites() -> None:
    """Run real jobs through the loop with one output field corrupted each time."""
    sys.path.insert(0, run.SRC)
    import corpus
    import jobs
    import oracle

    corruptions = {
        "analytic": [lambda o: o.update(alpha=o["alpha"] + 1e-7),
                     lambda o: o.update(census=o["census"][1:]),
                     lambda o: o.update(content=o["content"] * (1 + 1e-6))],
        "geometry": [lambda o: o.update(segments=o["segments"] - 1),
                     lambda o: o.update(total_length=o["total_length"] * (1 + 1e-6)),
                     lambda o: o.update(counts=o["counts"][::-1]),
                     lambda o: _append_line(o["csv_path"])],
    }
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=run.OUT) as workdir:
        for workload, bad in corruptions.items():
            real = jobs.RUNNERS[workload]
            job = corpus.warmup_job(workload)
            loop = run.Loop(workload, workdir, oracle.Oracle())
            loop.run(job, jobs.NoTrace())
            assert loop.failed == 0, loop.problems
            for corrupt in bad:
                jobs.RUNNERS[workload] = lambda j, tr, wd, corrupt=corrupt: _apply(
                    corrupt, real(j, tr, wd))
                loop.run(job, jobs.NoTrace())
            jobs.RUNNERS[workload] = lambda j, tr, wd: 1 / 0
            loop.run(job, jobs.NoTrace())
            jobs.RUNNERS[workload] = real
            assert loop.failed == loop.unexpected == len(bad) + 1, (workload, loop.problems)
            assert len(loop.times[False]) == 1, "a failed job's time was kept"

        anchor = {"id": 0, "text": corpus.CROSSING_ANCHOR[0], "stage": 6, "overlap": False,
                  "items": None}
        loop = run.Loop("geometry", workdir, oracle.Oracle())
        loop.run(anchor, jobs.NoTrace())
        assert loop.unexpected == 1, "a wrong overlap verdict on an anchor passed"

        cycle = corpus.build("cli", 0, 1)
        o = oracle.Oracle()
        dim = cycle[0]
        code, out, err = jobs.cli_command(dim["cmd"], dim["args"], workdir, run.SRC, 60)
        assert code == 0 and not o.check_cli(dim, code, out, err, workdir)
        payload = json.loads(out)
        payload["alpha"] += 1e-7
        assert o.check_cli(dim, code, json.dumps(payload), err, workdir)
        assert o.check_cli(dim, code, out[:-2], err, workdir)
        usage = cycle[6]
        assert o.check_cli(usage, 2, "", "Traceback (most recent call last):", workdir)
        loop = run.Loop("cli", workdir, o)
        known_bad = [job for job in cycle if job.get("known_bad")]
        assert len(known_bad) == 1, known_bad
        loop.run(dict(usage, exit=[0]), jobs.NoTrace())
        assert loop.unexpected == 1, "an undocumented exit code passed"
    print("ok oracle: every corrupted result counted as a failure")


def _append_line(path: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0,0,0,0\n")


def _apply(corrupt, out: dict) -> dict:
    corrupt(out)
    return out


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_oracle_bites()
    check_outputs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
