"""caliblist benchmark: seeded closed-loop workloads with output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload greedy-large --seed 1 --seconds 20 --trace 0

One client sends jobs one at a time (closed loop): a whole pass over the
workload's corpus, then its rounds of jobs again, cycling, while another
round fits in ``--seconds``. With ``--trace 0`` the run measures the unmodified package
and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced passes with traced replays of the
same jobs and reports per-layer metrics from the traced passes.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with every metric, the provenance and the failures. Both, plus the
spans of a traced run, are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10

# Reported beside the BENCHMARK.json metrics; each applies to only some
# workloads, or is 0 on a correct program, so none can carry a bound.
REPORT_ONLY = {
    "failed_frac": "1",
    "job_s_tail": "s",
    "job_s_tail_percentile": "%",
    "job_s_tail_jobs": "count",
    "approx_ratio_min": "ratio",
}


def require_package() -> None:
    """Make ``src/caliblist`` of this checkout importable, or exit 2."""
    src = ROOT / "src"
    if not (src / "caliblist" / "__init__.py").is_file():
        print(f"error: no caliblist package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import caliblist
    if Path(caliblist.__file__).resolve().parent != (src / "caliblist").resolve():
        print(f"error: caliblist imported from {caliblist.__file__}", file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload.name,
        "why": why.get(workload.name),
        "seed": seed,
        "shapes": workload.shapes,
        "seconds": seconds,
        "trace": int(trace),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup(workload, seed: int, workdir: Path, generate):
    """Build the corpus at least SETUP_REPEATS times and for SETUP_SECONDS.

    Returns the rounds of the last corpus and the time of each repetition.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = perf_counter()
        rounds = workload.make_corpus(seed, workdir, generate)
        times.append(perf_counter() - t0)
    return rounds, times


def another_fits(wall: float, done: int, more: int, seconds: float) -> bool:
    """Whether ``more`` units fit in ``seconds`` after ``done`` took ``wall``."""
    return wall * (done + more) / done <= seconds


def closed_loop(rounds, execute, seconds: float) -> tuple[list, float]:
    """One job at a time: every round once, then rounds again while one fits.

    The rounds run in order, cycling; after the first pass another round
    starts only while it fits in ``seconds`` at the mean round length so
    far. Returns ``(job, result, error, duration)`` per job, and the wall time.
    """
    outcomes = []
    gc.collect()
    start = perf_counter()
    done, todo = 0, len(rounds)
    while True:
        for _ in range(todo):
            for job in rounds[done % len(rounds)]:
                t0 = perf_counter()
                try:
                    result, error = execute(job), None
                except Exception as exc:  # a job that raises is a failed job
                    result, error = None, f"{type(exc).__name__}: {exc}"
                outcomes.append((job, result, error, perf_counter() - t0))
            done += 1
        wall = perf_counter() - start
        if not another_fits(wall, done, 1, seconds):
            return outcomes, wall
        todo = 1


def traced_pass(wl, rounds):
    """One pass of traced replays; ``max_weight_basis`` is wrapped only here."""
    from caliblist import matroid
    from tracer import Trace, patched

    tr = Trace()
    wrap = lambda fn: tr.timed("matroid.max_weight_basis", fn)
    with patched(matroid, "max_weight_basis", wrap):
        outcomes, wall = closed_loop(rounds, lambda job: wl.replay_job(job, tr), 0)
    return outcomes, wall, tr


def check_outcomes(wl, outcomes) -> tuple[list, dict, dict, str]:
    """Check every job; return failures, value and ratio per corpus job, digest."""
    first: dict[str, str] = {}
    answers: dict[str, tuple] = {}
    values: dict[str, float] = {}
    ratios: dict[str, float] = {}
    optima: dict[str, float] = {}
    failures = []
    median_jobs = []
    for n, (job, result, error, _) in enumerate(outcomes):
        if error is not None:
            failures.append((n, job.key, error))
            continue
        if job.median_ratio is not None and job.key not in optima:
            optima[job.key] = wl.optimum(job)
        problems, ratio = wl.check(job, result, optima.get(job.key))
        record = json.dumps(result, sort_keys=True)
        if first.setdefault(job.key, record) != record:
            problems.append("output differs from this job's first output")
        if (not problems and job.same_as in answers
                and wl.answer(job, result) != answers[job.same_as]):
            problems.append(f"answer differs from {job.same_as}'s")
        if job.key not in values and not problems:
            answers[job.key] = wl.answer(job, result)
            values[job.key] = answers[job.key][1]
            if ratio is not None:
                ratios[job.key] = ratio
        if job.median_ratio is not None:
            median_jobs.append((n, job, ratio))
        if problems:
            failures.append((n, job.key, "; ".join(problems)))
    if median_jobs:
        threshold = median_jobs[0][1].median_ratio
        med = statistics.median(r if r is not None else -math.inf
                                for _, _, r in median_jobs)
        if not med >= threshold:
            failures += [(n, job.key, f"median ratio {med!r} < {threshold!r}")
                         for n, job, _ in median_jobs]
    digest = hashlib.sha256("\n".join(
        f"{key} {rec}" for key, rec in sorted(first.items())).encode()).hexdigest()
    return failures, values, ratios, digest


def tail(durations: list[float]) -> dict | None:
    """Highest percentile (0.1 steps) with TAIL_BEYOND jobs beyond it."""
    n = len(durations)
    if n <= TAIL_BEYOND:
        return None
    pct = math.floor(1000 * (1 - TAIL_BEYOND / n)) / 10
    rank = max(1, math.ceil(n * pct / 100))
    return {"value": sorted(durations)[rank - 1], "percentile": pct, "jobs": n}


def end_to_end(outcomes, wall, setup_times, values, ratios, failed) -> dict:
    durations = [d for *_, d in outcomes]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solves_per_s": len(outcomes) / wall,
        "job_s_p50": statistics.median(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "value_mean": statistics.fmean(values.values()) if values else 0.0,
        "failed_frac": failed / len(outcomes),
    }
    tail_stat = tail(durations)
    if tail_stat:
        metrics["job_s_tail"] = tail_stat["value"]
        metrics["job_s_tail_percentile"] = tail_stat["percentile"]
        metrics["job_s_tail_jobs"] = tail_stat["jobs"]
    if ratios:
        metrics["approx_ratio_min"] = min(ratios.values())
    return metrics


def per_layer(traces, setup_trace, setups, untraced_walls, traced_walls):
    """Per-pass layer metrics (median over traced passes) and their counts."""
    def one(tr):
        c, s = tr.counts, tr.summed_s
        return {
            "io.load_s": tr.total("io.load_instance"),
            "io.loads": c["io.loads"],
            "io.doc_bytes": c["io.doc_bytes"],
            "core.objective_calls": c["core.objective_calls"],
            "core.objective_s": s["core.objective"],
            "core.recheck_s": tr.total("core.recheck"),
            "core.setfn_calls": c["core.setfn_calls"],
            "core.setfn_s": s["core.setfn"],
            "core.value_calls": c["core.value_calls"],
            "core.value_batch_calls": c["core.value_batch_calls"],
            "core.value_batch_rows": c["core.value_batch_rows"],
            "core.value_batch_s": tr.total("core.value_batch"),
            "greedy.self_s": tr.self_time("greedy.greedy_sequence"),
            "greedy.steps": c["greedy.steps"],
            "greedy.picks_per_eval": (c["greedy.steps"] / c["greedy.scored"]
                                      if c["greedy.scored"] else 0.0),
            "greedy.discrete_s": tr.total("greedy.discrete_greedy"),
            "matroid.continuous_greedy_s": tr.total("matroid.continuous_greedy"),
            "matroid.self_s": tr.self_time("matroid.continuous_greedy"),
            "matroid.max_weight_basis_calls": tr.calls("matroid.max_weight_basis"),
            "matroid.max_weight_basis_s": tr.total("matroid.max_weight_basis"),
            "matroid.pipage_round_s": tr.total("matroid.pipage_round"),
            "matroid.set_to_sequence_s": tr.total("matroid.set_to_sequence"),
            "oracle.exhaustive_calls": tr.calls("oracle.exhaustive_opt"),
            "oracle.exhaustive_s": tr.total("oracle.exhaustive_opt"),
            "oracle.candidates": c["oracle.candidates"],
            "oracle.enum_s": tr.self_time("oracle.exhaustive_opt"),
            "oracle.computed_bytes": c["oracle.computed_bytes"],
            "cli.self_s": tr.self_time("cli.main"),
        }

    rows = [one(tr) for tr in traces]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["repro.generate_s"] = setup_trace.total("repro.generate_instances") / setups
    metrics["repro.instances"] = setup_trace.counts["repro.instances"] // setups
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1)
    counts = {name: value for name, value in rows[0].items()
              if name.endswith(("_calls", "_rows")) or name in
              ("oracle.candidates", "greedy.steps")}
    repeat_equal = all(row[name] == value
                       for row in rows for name, value in counts.items())
    return metrics, counts, repeat_equal


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the full report."""
    from caliblist import repro
    import workloads as wl
    from tracer import Trace

    workload = wl.WORKLOADS[workload_name]
    OUT_DIR.mkdir(exist_ok=True)
    report = {"provenance": provenance(workload, seed, seconds, trace),
              "problems": []}
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="corpus-") as tmp:
        workdir = Path(tmp)
        if not trace:
            rounds, setup_times = setup(workload, seed, workdir,
                                        repro.generate_instances)
            outcomes, wall = closed_loop(rounds, wl.run_job, seconds)
            failures, values, ratios, digest = check_outcomes(wl, outcomes)
            metrics = end_to_end(outcomes, wall, setup_times, values, ratios,
                                 len(failures))
        else:
            setup_trace = Trace()

            def generate(*args):
                out = setup_trace.timed("repro.generate_instances",
                                        repro.generate_instances)(*args)
                setup_trace.counts["repro.instances"] += len(out)
                return out

            rounds, setup_times = setup(workload, seed, workdir, generate)
            outcomes, traces, untraced_walls, traced_walls = [], [], [], []
            start = perf_counter()
            # untraced and traced passes alternate while another pair fits
            while not traced_walls or another_fits(
                    perf_counter() - start, len(traced_walls), 1, seconds):
                out, wall = closed_loop(rounds, wl.run_job, 0)
                outcomes += out
                untraced_walls.append(wall)
                out, wall, tr = traced_pass(wl, rounds)
                outcomes += out
                traced_walls.append(wall)
                traces.append(tr)
            failures, values, ratios, digest = check_outcomes(wl, outcomes)
            metrics, counts, repeat_equal = per_layer(
                traces, setup_trace, len(setup_times), untraced_walls, traced_walls)
            report["counts"] = counts
            if not repeat_equal:
                report["problems"].append("counts differ between traced passes")
            report["spans"] = [s for tr in traces for s in tr.spans]
    report.update(
        attempted=len(outcomes), failed=len({n for n, *_ in failures}),
        failures=[list(f) for f in failures[:20]],
        records_sha256=digest, values=values, ratios=ratios, metrics=metrics)
    return report


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def result_line(report: dict, spec: dict, trace: bool) -> dict:
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    correct = not report["failures"] and not report["problems"]
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_table(report: dict, spec: dict, trace: bool) -> None:
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    prov = report["provenance"]
    print(f"workload {prov['workload']} seed {prov['seed']} trace {int(trace)}"
          f" ({report['attempted']} jobs, {report['failed']} failed)")
    for name, value in report["metrics"].items():
        m = listed.get(name)
        unit = m["unit"] if m else REPORT_ONLY.get(name, "")
        better = f"  ({m['better']} is better)" if m and "better" in m else ""
        print(f"  {name:32} {value!r:>24} {unit}{better}")
    for failure in report["failures"] + report["problems"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    require_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    spec = load_spec()
    trace = bool(args.trace)
    report = measure(args.workload, args.seed, args.seconds, trace)
    result = result_line(report, spec, trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump({**report, "result": result}, fh)
    print_table(report, spec, trace)
    print("report " + json.dumps(
        {k: v for k, v in report.items() if k not in ("spans", "values", "ratios")},
        sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
