"""Benchmark of the transdirac command line.

    python3 perfbench/run.py --workload exact-suite --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is run from ``src/``.
Each job is a fresh interpreter running the CLI as a user would, one job at
a time from this one driver process: a closed loop with one client.  Every
job's output is checked against the report the mathematics predicts.

--trace 0 repeats passes over the workload's job list for --seconds and
prints the end-to-end metrics:

  wall_s       one pass with each job at its fastest wall time of the run
  cpu_s        the same for user + system CPU time of the job processes
  peak_rss_mb  median over passes of the largest peak RSS of a job
  setup_s      median over probes of a fresh interpreter importing
               transdirac.cli

Wall and CPU time use each job's fastest run because on a shared host
interference only adds time, in bursts: the median pass of a run moved by
about 20% between runs, the per-job minima by about 10%.  Every sample,
with its median, tail percentile and count, is kept in the record.

--trace 1 alternates untraced passes with passes whose jobs run under
``tracer.py`` for --seconds, then makes one Scalar count pass, and prints
the per-layer metrics (see layers.py).

The last line of stdout is the result object; the line before it, also
written to ``.bench_out/``, records the environment and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import check, layers, models, proc, stats  # noqa: E402

JOB_TIMEOUT_S = 120.0
MIN_PASSES = 3        # untraced passes per run, whatever --seconds says
MIN_SETUPS = 5        # import probes per run
FIBER_TRIALS = 60     # q=6 takes about 35 ms a trial


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]   # transdirac CLI arguments
    exit_code: int
    expected: object        # see check.check_output

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def exact_suite(seed: int, workdir: Path) -> list[Job]:
    jobs = [Job(("verify", "--model", name), 0, check.expected_verify(name, bundle))
            for name, bundle in (("flat_t3", False), ("heisenberg", True),
                                 ("sol", True), ("t3_landau", True))]
    jobs.append(Job(("verify", "--model", "bad_bundlelike"), 2, None))
    for q in (4, 6, 8):
        path = models.write_heisenberg_model(q, workdir)
        jobs.append(Job(("verify", "--model", str(path)), 0,
                        check.expected_verify(f"h{q}", True)))
    return jobs


def fiber_gap(seed: int, workdir: Path) -> list[Job]:
    ks = (1, 2, 3, 4)
    fiber = [Job(("fiber", "--q", str(q), "--trials", str(FIBER_TRIALS), "--seed", str(seed)),
                 0, check.expected_fiber(q, FIBER_TRIALS, seed))
             for q in (4, 6)]
    gap = [Job(("gap", "--model", "t3_landau", "--k", "1..4", "--N", str(N)), 0,
               lambda report, N=N: check.expected_gap(report, "t3_landau", N, ks,
                                                      chern=1, mu=1.0))
           for N in (24, 32)]
    return fiber + gap


# Why each workload: see BENCHMARK.json.
WORKLOADS = {"exact-suite": exact_suite, "fiber-gap": fiber_gap}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class PassResult:
    job_wall_s: dict[str, float]    # by Job.label
    job_cpu_s: dict[str, float]
    peak_rss_mb: float              # largest of the pass's jobs
    traces: list[dict]

    @property
    def wall_s(self) -> float:
        return sum(self.job_wall_s.values())

    @property
    def cpu_s(self) -> float:
        return sum(self.job_cpu_s.values())


def fastest(passes: list[PassResult], attr: str) -> float:
    """Pass total with each job at its fastest over `passes`: the sum over
    jobs of the job's least `attr` ("job_wall_s" or "job_cpu_s")."""
    per_job = [getattr(p, attr) for p in passes]
    return sum(min(times[label] for times in per_job) for label in per_job[0])


class Runner:
    """Runs jobs in fresh interpreters and checks every output."""

    def __init__(self, root: Path, scratch: Path):
        src = root / "src"
        if not (src / "transdirac" / "cli.py").is_file():
            raise BenchError(f"no transdirac sources under {src}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[dict] = []
        self._job_id = 0

    def import_probe(self) -> float:
        fin = proc.run([sys.executable, "-c", "import transdirac.cli"],
                       self.env, self.scratch, JOB_TIMEOUT_S)
        if fin.exit_code != 0:
            raise BenchError(f"cannot import transdirac.cli: {fin.stderr.strip()[-500:]}")
        return fin.wall_s

    def run_job(self, job: Job, mode: str) -> tuple[proc.Finished, dict | None]:
        trace_out = self.scratch / "trace.json"
        if mode == "plain":
            argv = [sys.executable, "-m", "transdirac.cli", *job.argv]
        elif mode == "spans":
            argv = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"),
                    "spans", str(trace_out), "--", *job.argv]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), "counts", str(trace_out),
                    "--", *job.argv]
        trace_out.unlink(missing_ok=True)
        fin = proc.run(argv, self.env, self.scratch, JOB_TIMEOUT_S)
        self._job_id += 1
        self.attempted += 1
        errors = check.check_output(fin.exit_code, fin.stdout, job.exit_code, job.expected)
        trace = None
        if mode != "plain":
            try:
                trace = json.loads(trace_out.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                errors.append("tracer wrote no trace")
        if errors:
            self.failures.append({"job": list(job.argv), "mode": mode, "errors": errors[:5],
                                  "stderr": fin.stderr.strip()[-500:]})
        if trace is not None:
            trace.update(job_id=self._job_id, argv=list(job.argv),
                         spectral_import_s=_cumulative_import_s(fin.stderr, "transdirac.spectral"))
        return fin, trace

    def run_pass(self, jobs: list[Job], rng: random.Random, mode: str = "plain") -> PassResult:
        order = list(jobs)
        rng.shuffle(order)
        results = [(job, *self.run_job(job, mode)) for job in order]
        return PassResult(job_wall_s={job.label: fin.wall_s for job, fin, _ in results},
                          job_cpu_s={job.label: fin.cpu_s for job, fin, _ in results},
                          peak_rss_mb=max(fin.maxrss_kib for _, fin, _ in results) / 1024.0,
                          traces=[t for _, _, t in results if t is not None])


def _cumulative_import_s(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if len(parts) == 3 and parts[2] == module:
                return int(parts[1]) / 1e6
    return 0.0


def measure(runner: Runner, jobs: list[Job], rng: random.Random,
            seconds: float) -> tuple[dict, dict]:
    """Untraced passes and import probes for `seconds`.  Returns the
    end-to-end metrics and the samples they come from."""
    deadline = time.perf_counter() + seconds
    passes, setups = [], []
    while True:
        setups.append(runner.import_probe())
        passes.append(runner.run_pass(jobs, rng))
        # another pass only if it would overrun the deadline by under half a pass
        left = deadline - time.perf_counter()
        if len(passes) >= MIN_PASSES and left < statistics.median(p.wall_s for p in passes) / 2:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.import_probe())
    metrics = {"wall_s": fastest(passes, "job_wall_s"), "cpu_s": fastest(passes, "job_cpu_s"),
               "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
               "setup_s": statistics.median(setups)}
    samples = {"pass_wall_s": [p.wall_s for p in passes], "pass_cpu_s": [p.cpu_s for p in passes],
               "peak_rss_mb": [p.peak_rss_mb for p in passes], "setup_s": setups,
               "job_wall_s": {job.label: [p.job_wall_s[job.label] for p in passes]
                              for job in jobs},
               "job_cpu_s": {job.label: [p.job_cpu_s[job.label] for p in passes]
                             for job in jobs}}
    return metrics, samples


def measure_traced(runner: Runner, jobs: list[Job], rng: random.Random,
                   seconds: float) -> tuple[dict, dict, list[dict]]:
    """Alternate untraced and traced passes for `seconds`, then one count
    pass.  Returns the per-layer metrics, the samples and every job trace."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        plain.append(runner.run_pass(jobs, rng))
        traced.append(runner.run_pass(jobs, rng, mode="spans"))
        pair = statistics.median(p.wall_s for p in plain) + \
            statistics.median(p.wall_s for p in traced)
        if deadline - time.perf_counter() < pair / 2:
            break
    counts = runner.run_pass(jobs, rng, mode="counts")
    overhead = fastest(traced, "job_wall_s") - fastest(plain, "job_wall_s")
    metrics, repeat = layers.combine([layers.pass_metrics(p.traces) for p in traced],
                                     layers.count_metrics(counts.traces), overhead)
    samples = {"untraced_wall_s": [p.wall_s for p in plain],
               "traced_wall_s": [p.wall_s for p in traced], "counts_repeat": repeat}
    spans = [dict(t, traced_pass=i) for i, p in enumerate(traced) for t in p.traces]
    return metrics, samples, spans


def _timings(samples: dict, prefix: str = ""):
    """(name, samples) for every list of timings, nested dicts flattened."""
    for name, value in samples.items():
        if isinstance(value, dict):
            yield from _timings(value, f"{prefix}{name}: ")
        elif isinstance(value, list) and value:
            yield f"{prefix}{name}", value


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    scratch = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    load_start = proc.loadavg()
    try:
        runner = Runner(ROOT, scratch)
        scratch.mkdir(parents=True)
        env = proc.environment(runner.env, scratch)
        jobs = WORKLOADS[args.workload](args.seed, scratch)
        rng = random.Random(args.seed)
        runner.import_probe()   # untimed: compiles bytecode and warms the file cache
        spans = None
        if args.trace:
            values, samples, spans = measure_traced(runner, jobs, rng, args.seconds)
            units = layers.metric_units()
        else:
            values, samples = measure(runner, jobs, rng, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "loadavg_start": load_start,
        "loadavg_end": proc.loadavg(), "jobs": [list(j.argv) for j in jobs],
        "samples": samples,
        "summary": {k: stats.summary(v) for k, v in _timings(samples)},
        "error_rate": failed / runner.attempted, "failures": runner.failures[:20],
    }
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
