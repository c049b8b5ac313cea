"""fractalc benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload {analytic,geometry,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. One
single-threaded process drives a closed loop with one client: the next job
starts when the previous one has finished and been checked. A job is one
input taken through its workload's whole pipeline (see jobs.py); every output
is checked against the independent oracle in oracle.py.

The loop runs whole rounds of the seeded job list (corpus.py) until
--seconds have passed. End-to-end metrics, all printed with their units:

  setup_s         median over fresh interpreters of importing fractalc and
                  running one fixed warm-up job (cli: the wall time of one
                  warm-up subprocess); corpus and oracle building are excluded.
                  The samples are spread evenly over the run, between jobs
  jobs_per_s      jobs per second of job wall time, over jobs that passed
  jobs_per_calib  jobs per calibration time: each job's wall time is divided
                  by the mean time of a fixed calibration run just before and
                  just after it (between jobs, at most every 0.25 s); a
                  pure-Python loop in process, and for cli a fresh interpreter
                  that does nothing (jobs.py), at most once a second so that
                  a run keeps at least 100 timed jobs
  job_p50_s       median job wall time
  job_p90_s       90th percentile, only when the run has at least 100 jobs
  peak_rss_mb     peak resident memory of the benchmark process (cli: of the
                  largest child). The loop collects garbage before each job,
                  outside its timing, so that memory a job leaves in reference
                  cycles does not pile up and the peak does not grow with the
                  number of jobs a run fits
  fail_ratio      failed jobs over attempted jobs

A job fails if it raises, runs past its cap, exits with a code its input does
not document, or gives an output the oracle rejects. A failed job's time is
left out of the timing figures. The result is correct only if no job fails
other than the one marked known_bad in the corpus (ROADMAP item 2's overflow
input on the cli workload).

jobs_per_calib is the throughput in units of the calibration: on a
shared machine whose speed drifts by tens of percent within seconds to
minutes, it moves with the program and much less with the machine.

With --trace 0 the last line carries the end-to-end metrics named in
BENCHMARK.json. With --trace 1 the run alternates untraced and traced passes
over the same rounds and the last line carries the per-layer metrics, from
the traced passes only: busy time, calls and counts per traced round, so that
they do not grow when a faster program fits more rounds into the run.
trace.overhead_ratio is untraced over traced jobs_per_s, and trace.jobs the
number of traced jobs that passed. A cli job whose documented exit is not 0 is
traced as cli.error.<command>, apart from cli.<command>. The line before the
last is a summary with every metric above, per-layer busy and self times, and
run metadata. Traced spans are written to bench/out/ once, at the end of the
run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("analytic", "geometry", "cli")
ROUNDS = {"analytic": 200, "geometry": 24, "cli": 40}  # more than a run can use
JOB_CAP_S = {"analytic": 30.0, "geometry": 60.0, "cli": 60.0}  # a job past its cap has hung
SETUP_SAMPLES = 7
CALIBRATE_EVERY_S = {"analytic": 0.25, "geometry": 0.25, "cli": 1.0}
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile

# Set-up sample for the in-process workloads: a fresh interpreter imports
# fractalc and runs the fixed warm-up job. The bench modules' own import is
# not timed.
_SETUP_PROBE = """
import json, sys, time
src, bench, workload, workdir = sys.argv[1:5]
sys.path[:0] = [src, bench]
t0 = time.perf_counter()
import fractalc
t1 = time.perf_counter()
import corpus, jobs
t2 = time.perf_counter()
jobs.RUNNERS[workload](corpus.warmup_job(workload), jobs.NoTrace(), workdir)
t3 = time.perf_counter()
print(json.dumps((t1 - t0) + (t3 - t2)))
"""


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("job ran past its cap")


class Loop:
    """Runs and checks jobs; keeps per-job wall times, failures and layer counts."""

    def __init__(self, workload: str, workdir: str, oracle):
        import jobs

        self.jobs = jobs
        self.workload = workload
        self.workdir = workdir
        self.oracle = oracle
        self.cap = JOB_CAP_S[workload]
        self.times = {False: [], True: []}  # traced? -> wall times of passed jobs
        self.cal_index = {False: [], True: []}  # first calibration sample after each
        self.calibrate = jobs.CALIBRATIONS[workload]
        self.calibrate_every = CALIBRATE_EVERY_S[workload]
        self.calibration = [_timed(self.calibrate)]
        self._last_calibration = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures of jobs not marked known_bad
        self.problems: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, job: dict, tr) -> None:
        gc.collect()
        cal_index = len(self.calibration)
        start = time.perf_counter()
        error = None
        tr.begin_job(job["id"])
        try:
            if self.workload == "cli":
                span = f"cli.{job['cmd']}" if job["exit"] == [0] else f"cli.error.{job['cmd']}"
                out = tr.call(span, self.jobs.cli_command, job["cmd"], job["args"],
                              self.workdir, SRC, self.cap)
            else:
                signal.setitimer(signal.ITIMER_REAL, self.cap)
                try:
                    out = self.jobs.RUNNERS[self.workload](job, tr, self.workdir)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception:  # a job that raises is a failed job; the loop goes on
            error = traceback.format_exc(limit=-3).strip().splitlines()[-1]
        finally:
            tr.end_job()
        end = time.perf_counter()
        self.attempted += 1
        if end - self._last_calibration >= self.calibrate_every:
            self.calibration.append(_timed(self.calibrate))
            self._last_calibration = time.perf_counter()
        problems = [error] if error else self._check(job, out)
        if not problems:
            self.times[tr.enabled].append(end - start)
            self.cal_index[tr.enabled].append(cal_index)
            if tr.enabled:
                self._tally(out)
            return
        self.failed += 1
        if not job.get("known_bad"):
            self.unexpected += 1
        if len(self.problems) < 20:
            self.problems.append(f"job {job['id']} {job.get('text') or job['args']}: "
                                 + "; ".join(problems))

    def scaled_times(self, traced: bool) -> list[float]:
        """Passed jobs' wall times over the calibration times just before and after."""
        cal = self.calibration
        return [t / statistics.fmean(cal[k - 1:k + 1])
                for t, k in zip(self.times[traced], self.cal_index[traced])]

    def _check(self, job: dict, out) -> list[str]:
        try:
            if self.workload == "analytic":
                return self.oracle.check_analytic(job, out)
            if self.workload == "geometry":
                return self.oracle.check_geometry(job, out)
            code, stdout, stderr = out
            if code not in job["exit"]:
                tail = stderr.strip().splitlines()[-1:] if stderr else []
                return [f"exit {code}, documented {job['exit']}: {' '.join(tail)}"]
            return self.oracle.check_cli(job, code, stdout, stderr, self.workdir)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    def _tally(self, out) -> None:
        c = self.counts
        if self.workload == "analytic":
            c["moran.solve_moran.iterations"] += out["iterations"]
            c["geometry.segment_census.buckets"] += len(out["census"])
        elif self.workload == "geometry":
            c["geometry.iterate.segments"] += out["segments"]
            c["geometry.detect_overlap.overlapping"] += out["overlap"]
            c["boxcount.estimate_dimension.rungs"] += len(out["scales"])
            c["boxcount.estimate_dimension.boxes"] += sum(out["counts"])
            c["geometry.export_svg.bytes"] += os.path.getsize(out["svg_path"])
            c["geometry.export_csv.bytes"] += os.path.getsize(out["csv_path"])


def _setup_sample(workload: str, workdir: str, warmup: dict, cap: float) -> float:
    import jobs

    if workload == "cli":
        start = time.perf_counter()
        code, _, err = jobs.cli_command(warmup["cmd"], warmup["args"], workdir, SRC, cap)
        elapsed = time.perf_counter() - start
    else:
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, SRC, BENCH, workload,
                               workdir], capture_output=True, text=True, timeout=cap)
        code, err = proc.returncode, proc.stderr
    if code != 0:
        raise RuntimeError(f"set-up sample failed with exit {code}: {err.strip()[-500:]}")
    return elapsed if workload == "cli" else float(proc.stdout.strip().splitlines()[-1])


def _rate(times: list[float]) -> float:
    return len(times) / sum(times) if times else 0.0


def _timing_metrics(times: list[float], scaled: list[float]) -> dict:
    m = {"jobs_per_s": (_rate(times), "1/s"), "jobs_per_calib": (_rate(scaled), "1/calib"),
         "job_p50_s": (statistics.median(times or [0.0]), "s")}
    if len(times) >= P90_MIN_JOBS:
        m["job_p90_s"] = (statistics.quantiles(times, n=10)[8], "s")
    return m


def _layers(spans, counts: dict, rounds: int) -> tuple[dict, dict]:
    """Per-layer busy and self time, calls and the tallied counts, per traced round."""
    busy = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, parent, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent is not None:
            child[parent] += end - start
    self_time = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += (end - start) - child[idx]
    metrics = {}
    for name in busy:
        metrics[f"{name}.busy_s"] = busy[name] / rounds
        metrics[f"{name}.self_s"] = self_time[name] / rounds
        metrics[f"{name}.calls"] = calls[name] / rounds
    metrics.update((name, total / rounds) for name, total in counts.items())
    detail = {name: {stat: metrics[f"{name}.{stat}"] for stat in ("calls", "busy_s", "self_s")}
              for name in sorted(busy)}
    return metrics, detail


def _metadata(workload: str, seed: int, n_jobs: int, digest: str) -> dict:
    import importlib.metadata

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "click": importlib.metadata.version("click"), "nproc": os.cpu_count(),
            "cpu_model": cpu, "seed": seed, "workload": workload, "jobs": n_jobs,
            "corpus_sha256": digest, "src_py_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fractalc", "__init__.py")):
        print(f"error: no fractalc source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import fractalc

    if not os.path.abspath(fractalc.__file__).startswith(SRC + os.sep):
        print(f"error: fractalc imported from {fractalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import corpus
    import jobs
    import oracle

    job_list = corpus.build(args.workload, args.seed, ROUNDS[args.workload])
    digest = corpus.digest(job_list)
    rounds = defaultdict(list)
    for job in job_list:
        rounds[job["round"]].append(job)
    os.makedirs(OUT, exist_ok=True)

    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        warmup = corpus.warmup_job(args.workload)

        def sample_setup():
            setup.append(_setup_sample(args.workload, workdir, warmup, JOB_CAP_S[args.workload]))

        setup: list[float] = []
        sample_setup()
        if args.workload != "cli":
            jobs.RUNNERS[args.workload](warmup, jobs.NoTrace(), workdir)
        loop = Loop(args.workload, workdir, oracle.Oracle())
        trace = jobs.Trace()
        gc.freeze()  # the collection before each job then skips the corpus and modules
        # whole rounds only, so every run measures the same mix of slots
        start = time.perf_counter()
        deadline = start + args.seconds
        done = 0
        for r in range(len(rounds)):
            if time.perf_counter() >= deadline:
                break
            done += 1
            if args.trace:
                # same round untraced and traced, alternating which goes first
                passes = (jobs.NoTrace(), trace) if r % 2 == 0 else (trace, jobs.NoTrace())
                if args.workload == "cli":
                    trace.call("cli.import", jobs.cli_import, SRC, JOB_CAP_S["cli"])
            else:
                passes = (jobs.NoTrace(),)
            for tr in passes:
                for job in rounds[r]:
                    if (len(setup) < SETUP_SAMPLES and time.perf_counter()
                            >= start + len(setup) * args.seconds / SETUP_SAMPLES):
                        sample_setup()
                    loop.run(job, tr)
        else:
            print("warning: job list exhausted before the deadline", file=sys.stderr)
        while len(setup) < SETUP_SAMPLES:
            sample_setup()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    untraced = _timing_metrics(loop.times[False], loop.scaled_times(False))
    untraced["setup_s"] = (statistics.median(setup), "s")
    untraced["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    untraced["fail_ratio"] = (loop.failed / loop.attempted, "ratio")
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "attempted": loop.attempted, "failed": loop.failed,
               "unexpected_failures": loop.unexpected, "rounds": done,
               "timed_untraced_jobs": len(loop.times[False]),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in untraced.items()},
               "setup_samples_s": setup,
               "calibration_s": {"median": statistics.median(loop.calibration),
                                 "samples": len(loop.calibration)}}
    if "job_p90_s" not in untraced:
        summary["job_p90_s"] = f"not reported: {len(loop.times[False])} jobs < {P90_MIN_JOBS}"

    if args.trace:
        traced = _rate(loop.times[True])
        layer, detail = _layers(trace.spans, loop.counts, done)
        layer["trace.overhead_ratio"] = untraced["jobs_per_s"][0] / traced if traced else 0.0
        layer["trace.jobs"] = len(loop.times[True])
        summary["layers_per_round"] = detail
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent", "job"],
                       "spans": trace.spans}, fh)
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: untraced[m["name"]][0] for m in wanted}

    summary["meta"] = _metadata(args.workload, args.seed, len(job_list), digest)
    if loop.problems:
        summary["first_failures"] = loop.problems
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": loop.unexpected == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
