"""branchgf benchmark: closed-loop runs of one workload, checked and measured.

Usage, from the root of a checkout:

    python3 bench/run.py --workload groups --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

One single-threaded process runs the workload's job list again and again
(a pass), each job started only after the previous one returned, for as
long as one more pass is expected to end within --seconds; every pass
starts with the package's lru caches cleared, as in a fresh CLI process.
Each pass's outputs are checked against their references right after it,
outside the timed loop.  With --trace 0 the end-to-end metrics are
printed; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are printed.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit status is
0 only when every job matched its reference and, when tracing, every
tracing check held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
RUN_SECONDS = 40

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("max_job_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
)

# Per-layer metrics, grouped by layer (see README.md for what each should move).
LAYER_METRICS = (
    "engine.build_branching.s", "engine.self_s", "engine.classes", "engine.resolvent_dim",
    "polyring.resolvent_column.s", "polyring.resolvent_column.calls",
    "polyring.bareiss_det.s", "polyring.bareiss_det.calls",
    "polyring.ratfun_sum.s", "polyring.series.s",
    "polyring.poly_gcd.calls", "polyring.Poly.mul.calls",
    "perms.key_for.s", "perms.key_for.calls", "perms.fingerprint.s",
    "perms.derived_subgroup_order.s",
    "perms.is_isomorphic.s", "perms.is_isomorphic.calls", "perms.is_isomorphic.matched",
    "perms.iso_match_ratio", "perms.conjugacy_classes.s", "perms.centralizer.calls",
    "perms.Perm.mul.calls", "perms.Perm.init.calls",
    "commuting.commuting_gf.s", "commuting.burnside_gf.s", "commuting.commuting_orbit_counts.s",
    "matrixalg.key_for.s", "matrixalg.key_for.calls",
    "matrixalg.ring_fingerprint.s", "matrixalg.ring_fingerprint.calls",
    "matrixalg.ring_is_isomorphic.s", "matrixalg.ring_is_isomorphic.calls",
    "matrixalg.ring_is_isomorphic.matched", "matrixalg.iso_match_ratio",
    "matrixalg.unit_conjugacy_classes.s", "matrixalg.centralizer_ring.s",
    "matrixalg.module_gf.calls", "matrixalg.module_orbit_counts.s", "matrixalg.mat_mul.calls",
    "configs.point_orbit_counts.s", "configs.vector_orbit_counts.s",
    "configs.row_space_bijection_check.s",
    "cli.main.s", "cli.self_s", "trace.overhead_frac",
)

ISO_RATIOS = {
    "perms.iso_match_ratio": "perms.is_isomorphic",
    "matrixalg.iso_match_ratio": "matrixalg.ring_is_isomorphic",
}


def _is_count(name: str) -> bool:
    """Exact counts: identical on every traced pass of one seed."""
    return name.endswith((".calls", ".matched")) or name in ("engine.classes", "engine.resolvent_dim")


def _unit(name: str) -> str:
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def per_layer_names(job_names) -> list[str]:
    return list(LAYER_METRICS) + [f"job.{name}.s" for name in job_names]


def spec(workloads, job_names) -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": _unit(n), "better": "higher" if n in ISO_RATIOS else "lower"}
            for n in per_layer_names(job_names)
        ],
    }


# -- program import ------------------------------------------------------------------


def import_program() -> None:
    """Put the checkout's src/ first on sys.path and import branchgf from it."""
    if not (SRC / "branchgf" / "__init__.py").is_file():
        sys.exit(f"error: no branchgf sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import branchgf

    if Path(branchgf.__file__).resolve().parent != SRC / "branchgf":
        sys.exit(f"error: imported branchgf from {branchgf.__file__}, not from {SRC}")


def clear_caches() -> None:
    """Empty every module-level lru_cache of the package (configs keeps five:
    _field, _vector_list, _gl_action_tables, stirling2, q_stirling), so no
    pass starts warmer than a fresh CLI process."""
    for module in spans.package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# -- the closed loop ---------------------------------------------------------------


class Pass:
    """Timings of one run through the job list, and the jobs that failed.

    Outputs are checked right after the timed loop and then dropped, so
    memory does not grow with the number of passes.
    """

    def __init__(self, jobs, label: str, tracer=None):
        self.job_s: list[float] = []
        self.tracer = tracer
        clear_caches()
        gc.collect()
        if tracer is None:
            outputs = self._run(jobs, lambda job: job.run())
        else:
            with tracer:
                outputs = self._run(jobs, lambda job: tracer.job(job.name, job.run))
        self.failures = [f"{label} job {job.name}: {problem}"
                         for job, problem in zip(jobs, map(_check, jobs, outputs)) if problem]

    def _run(self, jobs, call) -> list:
        outputs = []
        clock, cpu = time.perf_counter, time.process_time
        c0, t0 = cpu(), clock()
        for job in jobs:
            start = clock()
            try:
                output = call(job)
            except Exception as exc:  # a failed job is counted, the loop goes on
                output = exc
            self.job_s.append(clock() - start)
            outputs.append(output)
        self.wall_s = clock() - t0
        self.cpu_s = cpu() - c0
        return outputs


def _check(job, output) -> str | None:
    """What is wrong with a job's output (raised, non-zero exit, wrong result), or None."""
    try:
        return job.check(output)
    except Exception as exc:  # a malformed output is a failed job
        return f"check raised {type(exc).__name__}: {exc}"


def measure_setup(workload: str, seed: int) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters that import branchgf and build
    the job list, and the errors of any probe that failed."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times, errors = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            errors.append(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return statistics.median(times), errors


# -- metrics -----------------------------------------------------------------------


def end_to_end_metrics(passes, setup_s: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "max_job_s": statistics.median(max(p.job_s) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(workload, jobs, plain, traced, job_names) -> tuple[dict, list[str]]:
    problems = []
    figures = [p.tracer.figures() for p in traced]
    for p, fig in zip(traced, figures):
        missing = sorted(workload.layers - p.tracer.layers_seen())
        if missing:
            problems.append(f"traced pass recorded no spans for layer(s) {missing}")
        drift = sorted(n for n in set(fig) | set(figures[0])
                       if _is_count(n) and fig.get(n, 0) != figures[0].get(n, 0))
        if drift:
            problems.append(f"call counts differ between traced passes: {drift}")
    job_index = {f"job.{job.name}.s": i for i, job in enumerate(jobs)}
    values = {}
    for name in per_layer_names(job_names):
        if name in ISO_RATIOS:
            base = ISO_RATIOS[name]
            calls = figures[0].get(f"{base}.calls", 0)
            values[name] = figures[0].get(f"{base}.matched", 0) / calls if calls else 0.0
        elif name == "trace.overhead_frac":
            traced_wall = statistics.median(p.wall_s for p in traced)
            values[name] = traced_wall / statistics.median(p.wall_s for p in plain) - 1
        elif name.startswith("job."):
            index = job_index.get(name)
            values[name] = 0.0 if index is None else statistics.median(p.job_s[index] for p in plain)
        elif _is_count(name):
            values[name] = figures[0].get(name, 0)
        else:
            values[name] = statistics.median(fig.get(name, 0.0) for fig in figures)
    return values, problems


# -- main ----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import branchgf, build the job list and exit (set-up timing)")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.write_spec:
        text = json.dumps(spec(workloads.WORKLOADS, workloads.JOB_NAMES), indent=2)
        (ROOT / "BENCHMARK.json").write_text(text + "\n", encoding="utf-8")
        return 0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.jobs(args.seed)
    if args.setup_probe:
        return 0

    problems: list[str] = []  # harness faults: set-up probes, tracing checks
    if not args.trace:
        setup_s, problems = measure_setup(workload.name, args.seed)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        plain.append(Pass(jobs, f"pass {len(plain)}"))
        if args.trace:
            traced.append(Pass(jobs, f"traced pass {len(traced)}", spans.Tracer()))
        now = time.perf_counter()
        if now - start + (now - cycle) > args.seconds:  # one more would overrun
            break
    if args.trace:
        metrics, problems = per_layer_metrics(workload, jobs, plain, traced, workloads.JOB_NAMES)
    else:
        metrics = end_to_end_metrics(plain, setup_s)
    failures = [line for run in plain + traced for line in run.failures]
    attempted = len(jobs) * (len(plain) + len(traced))

    header = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "jobs": [job.name for job in jobs], "passes": len(plain), "traced_passes": len(traced),
    }
    if traced:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        traced[-1].tracer.write_spans(
            out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl", header)
    print("# " + json.dumps(header))
    for problem in problems + failures:
        print(f"FAIL {problem}")
    units = {n: u for n, u, _b, _bound in END_TO_END}
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units.get(name) or _unit(name)}")
    print(f"{'fail_rate':40s} {len(failures) / attempted:>16.6g} ratio"
          f"  ({len(failures)} of {attempted} jobs failed)")
    correct = not problems and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units.get(n) or _unit(n)} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
