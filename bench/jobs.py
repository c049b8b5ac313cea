"""One job of each workload, with every call into fractalc made through a tracer.

A job is one input taken through its workload's whole pipeline. The tracer
wraps each call from outside the program: with tracing off it calls straight
through; with tracing on it records a span per call, parented to the job span.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from fractalc import boxcount, geometry, incstats, moran, parser


class NoTrace:
    """Tracing off: calls go straight through."""

    enabled = False

    def begin_job(self, job_id: int) -> None:
        pass

    def end_job(self) -> None:
        pass

    def call(self, name: str, fn, *args):
        return fn(*args)


class Trace:
    """Spans kept in memory: (name, start, end, parent span index, job id)."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self._job: int | None = None
        self._job_id = -1
        self._job_start = 0.0

    def begin_job(self, job_id: int) -> None:
        self._job = len(self.spans)
        self._job_id = job_id
        self.spans.append(("job", 0.0, 0.0, None, job_id))
        self._job_start = time.perf_counter()

    def end_job(self) -> None:
        end = time.perf_counter()
        self.spans[self._job] = ("job", self._job_start, end, None, self._job_id)
        self._job = None
        self._job_id = -1  # spans outside a job carry job id -1

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self._job, self._job_id))


def analytic(job: dict, tr, workdir: str) -> dict:
    """parse -> build_schedule -> solve_moran -> segment_census -> stats_report -> content."""
    expr = tr.call("parser.parse", parser.parse, job["text"])
    sched = tr.call("geometry.build_schedule", geometry.build_schedule, expr)
    report = tr.call("moran.solve_moran", moran.solve_moran, sched.spectrum())
    census = tr.call("geometry.segment_census", geometry.segment_census, sched, job["stage"])
    stats = tr.call("incstats.stats_report", incstats.stats_report, sched, job["stats_stage"])
    content = tr.call("geometry.content", geometry.content, sched, job["stage"], report.alpha)
    return {"alpha": report.alpha, "iterations": report.iterations, "census": census,
            "stats": stats, "content": content}


def geometry_job(job: dict, tr, workdir: str) -> dict:
    """parse -> build_schedule -> iterate -> detect_overlap -> export_svg -> export_csv
    -> estimate_dimension."""
    expr = tr.call("parser.parse", parser.parse, job["text"])
    sched = tr.call("geometry.build_schedule", geometry.build_schedule, expr)
    segs = tr.call("geometry.iterate", geometry.iterate, sched, job["stage"])
    overlap = tr.call("geometry.detect_overlap", geometry.detect_overlap, segs)
    svg_path = os.path.join(workdir, "job.svg")
    csv_path = os.path.join(workdir, "job.csv")
    tr.call("geometry.export_svg", geometry.export_svg, segs, svg_path)
    tr.call("geometry.export_csv", geometry.export_csv, segs, csv_path)
    box = tr.call("boxcount.estimate_dimension", boxcount.estimate_dimension, segs)
    return {"segments": len(segs), "total_length": geometry.total_length(segs),
            "overlap": overlap, "svg_path": svg_path, "csv_path": csv_path,
            "scales": box.scales, "counts": box.counts}


def cli_command(cmd: str, args: list[str], workdir: str, src: str, timeout: float):
    """Run `python -m fractalc.cli CMD ARGS` in workdir; (exit code, stdout, stderr).

    The exit code is None when the command ran past `timeout` and was killed.
    """
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("FRACTALC_SEGMENT_BUDGET", None)
    try:
        proc = subprocess.run([sys.executable, "-m", "fractalc.cli", cmd, *args], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", ""
    return proc.returncode, proc.stdout, proc.stderr


def cli_import(src: str, timeout: float) -> None:
    """A bare `import fractalc.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import fractalc.cli"], env=env, capture_output=True,
                   timeout=timeout, check=True)


RUNNERS = {"analytic": analytic, "geometry": geometry_job}


def calibration_loop() -> int:
    """Fixed pure-Python arithmetic, independent of fractalc.

    Its time tracks how fast this machine runs the interpreter at the moment;
    the benchmark measures it between jobs to state throughput in units of it.
    """
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def bare_start() -> None:
    """A fresh interpreter that does nothing: the calibration for subprocess jobs.

    A cli job is mostly interpreter start and imports, whose speed moves with
    the machine differently from in-process arithmetic.
    """
    subprocess.run([sys.executable, "-c", "pass"], check=True)


CALIBRATIONS = {"analytic": calibration_loop, "geometry": calibration_loop, "cli": bare_start}
