"""The benchmark's workloads: seeded corpora, jobs, traced replays and checks.

Every corpus comes from ``caliblist.repro.generate_instances``; the program
under test receives only the generated instance files (CLI workloads) or
instance objects (``ratio-suite``). The benchmark keeps its own copy of each
instance to check the program's answers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as stdio
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from caliblist import cli, core, greedy, io, matroid, oracle
from caliblist.repro import GenParams

from tracer import CountingMeasure, Trace

GREEDY_RATIO = 0.5 - 1e-9
DISCRETE_RATIO = 2 / 3 - 1e-9
CONTINUOUS_MEDIAN_RATIO = 1 - 1 / math.e - 0.02
VALUE_TOL = 1e-12


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI call on a file, or an in-memory ratio check."""

    key: str
    inst: core.Instance
    algorithm: str
    measure: str = "hellinger"
    argv: tuple[str, ...] = ()
    min_ratio: float | None = None
    median_ratio: float | None = None
    same_as: str | None = None  # key of a job that must give the same answer


@dataclass(frozen=True)
class Workload:
    """A corpus is a list of rounds: lists of jobs of about the same cost."""

    name: str
    shapes: dict
    make_corpus: Callable  # (seed, workdir, generate) -> list[list[Job]]


def _seed(seed: int, part: int) -> int:
    return int(np.random.SeedSequence([seed, part]).generate_state(1)[0])


def _fixed(genres: int, k: int, items: int | None = None) -> GenParams:
    items = items or GenParams().min_items
    return GenParams(min_genres=genres, max_genres=genres, min_items=items,
                     max_items=items, min_k=k, max_k=k)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

GREEDY_LARGE = _fixed(genres=20, k=20, items=1000)
GREEDY_LARGE_PAIRS = 4
CONTINUOUS = _fixed(genres=5, k=4, items=6)
# Ratio-suite shapes are stratified over the (genres, k[, items]) grids that
# the criterion-3 and criterion-4 generators draw from, so every seed has the
# same shape mix and the seed only draws targets, weights and mixtures.
CRIT3_GRID = [(g, k) for g in range(2, 6) for k in range(1, 9)]
CRIT3_PER_SHAPE = 2
CRIT4_GRID = [(g, k, n) for g in range(2, 6) for k in range(1, 6)
              for n in range(max(2, k), 7)]
CRIT4_PER_SHAPE = 3
LARGE_DISCRETE = _fixed(genres=6, k=8)
LARGE_PER_PASS = 1


def _file_job(key, inst, path, algorithm="greedy", measure="hellinger",
              seed=None, median_ratio=None, same_as=None) -> Job:
    argv = ["solve", str(path)]
    if algorithm != "greedy":
        argv += ["--algorithm", algorithm]
    if measure != "hellinger":
        argv += ["--measure", measure]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv.append("--machine")
    return Job(key, inst, algorithm, measure, tuple(argv),
               median_ratio=median_ratio, same_as=same_as)


def greedy_large_corpus(seed: int, workdir: Path, generate) -> list[list[Job]]:
    """Each instance is written twice: as generated, then with its items reversed.

    A solve looks items up by scanning the file's item list, so its time
    depends on where the picked items happen to sit in that list, and one
    instance can take twice as long as another of the same shape. Reversing
    the list mirrors every position, so the two files of a pair together cost
    about the same for every seed. Both must give the same answer, and each
    pair is one round.
    """
    rounds = []
    insts = generate(GREEDY_LARGE, "distributional", _seed(seed, 0),
                     GREEDY_LARGE_PAIRS)
    for n, inst in enumerate(insts):
        key = f"greedy-large-{n}"
        reversed_inst = dataclasses.replace(inst, items=inst.items[::-1])
        pair = []
        for variant_key, variant, same_as in (
                (key, inst, None), (f"{key}-reversed", reversed_inst, key)):
            path = workdir / f"{variant_key}.json"
            io.save_instance(variant, path)
            pair.append(_file_job(variant_key, variant, path, same_as=same_as))
        rounds.append(pair)
    return rounds


def ratio_corpus(seed: int, workdir: Path, generate) -> list[list[Job]]:
    """Two rounds of about the same cost and job count.

    One holds every other small in-memory job, the large search and the
    ``continuous`` CLI job; the other holds the remaining small jobs and the
    ``continuous-repeats`` CLI job, which takes about as long as the other
    two heavy jobs together.
    """
    small = []
    part = 0
    for g, k in CRIT3_GRID:
        part += 1
        for n, inst in enumerate(generate(_fixed(g, k), "discrete",
                                          _seed(seed, part), CRIT3_PER_SHAPE)):
            small.append(Job(f"discrete-g{g}-k{k}-{n}", inst, "discrete-greedy",
                             min_ratio=DISCRETE_RATIO))
    for g, k, items in CRIT4_GRID:
        part += 1
        for n, inst in enumerate(generate(_fixed(g, k, items), "distributional",
                                          _seed(seed, part), CRIT4_PER_SHAPE)):
            small.append(Job(f"greedy-g{g}-k{k}-n{items}-{n}", inst, "greedy",
                             "power:0.5", min_ratio=GREEDY_RATIO))
    part += 1
    large = [Job(f"discrete-large-{n}", inst, "discrete-greedy",
                 min_ratio=DISCRETE_RATIO)
             for n, inst in enumerate(generate(LARGE_DISCRETE, "discrete",
                                               _seed(seed, part), LARGE_PER_PASS))]
    [inst] = generate(CONTINUOUS, "distributional", _seed(seed, 0), 1)
    path = workdir / "continuous.json"
    io.save_instance(inst, path)
    continuous = _file_job("continuous", inst, path, "continuous", "hellinger",
                           seed, CONTINUOUS_MEDIAN_RATIO)
    repeats = _file_job("continuous-repeats", inst, path, "continuous-repeats",
                        "power:0.5", seed, CONTINUOUS_MEDIAN_RATIO)
    return [small[0::2] + large + [continuous], small[1::2] + [repeats]]


def _shape(p: GenParams, mode: str, count) -> dict:
    return {"genres": [p.min_genres, p.max_genres], "items":
            None if mode == "discrete" else [p.min_items, p.max_items],
            "k": [p.min_k, p.max_k], "mode": mode, "count": count}


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in [
        Workload(
            "greedy-large",
            {"files": _shape(GREEDY_LARGE, "distributional", 2 * GREEDY_LARGE_PAIRS),
             "pairs": "each instance as generated and with its items reversed",
             "argv": "solve FILE --machine"},
            greedy_large_corpus),
        Workload(
            "ratio-suite",
            {"criterion3": {"grid_genres_k": "2..5 x 1..8", "per_shape":
                            CRIT3_PER_SHAPE, "algorithm": "discrete-greedy"},
             "criterion4": {"grid_genres_k_items": "2..5 x 1..5 x max(2,k)..6",
                            "per_shape": CRIT4_PER_SHAPE, "algorithm": "greedy",
                            "measure": "power:0.5"},
             "large": _shape(LARGE_DISCRETE, "discrete", LARGE_PER_PASS),
             "continuous": {
                 "files": _shape(CONTINUOUS, "distributional", 1),
                 "argv": ["--algorithm continuous --measure hellinger",
                          "--algorithm continuous-repeats --measure power:0.5"]}},
            ratio_corpus),
    ]
}


# ---------------------------------------------------------------------------
# Untraced execution
# ---------------------------------------------------------------------------


def run_job(job: Job) -> dict:
    """Run one job against the unmodified package."""
    if job.argv:
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
        return {"rc": rc, "stdout": out.getvalue()}
    return _ratio_job(job, cli.parse_measure(job.measure), None)


def _greedy(objective, inst, allow_repeats: bool, tr: Trace | None):
    if tr is None:
        return greedy.greedy_sequence(objective, list(inst.universe()), inst.k,
                                      allow_repeats=allow_repeats)
    before = tr.counts["core.objective_calls"]
    with tr.span("greedy.greedy_sequence"):
        seq, steps = greedy.greedy_sequence(
            objective, list(inst.universe()), inst.k, allow_repeats=allow_repeats)
    tr.counts["greedy.steps"] += len(steps.steps)
    # the first call scores the empty list, every other call one candidate
    tr.counts["greedy.scored"] += tr.counts["core.objective_calls"] - before - 1
    return seq, steps


def _ratio_job(job: Job, G, tr: Trace | None) -> dict:
    span = tr.span if tr else lambda name: contextlib.nullcontext()
    inst = job.inst
    if job.algorithm == "discrete-greedy":
        with span("greedy.discrete_greedy"):
            seq, _ = greedy.discrete_greedy(inst)
        value = greedy.discrete_objective(inst)(seq)
    else:
        objective = greedy.sequence_objective_fn(G, inst)
        if tr:
            objective = tr.summed("core.objective", objective)
        seq, _ = _greedy(objective, inst, False, tr)
        value = objective(seq)
    with span("oracle.exhaustive_opt"):
        _, opt = oracle.exhaustive_opt(inst, measure=G)
    if tr:
        n, k = len(inst.universe()), inst.k
        candidates = n ** k if inst.mode == "discrete" else math.perm(n, k)
        tr.counts["oracle.candidates"] += candidates
        # int64 index rows plus the float64 mixture rows exhaustive_opt builds
        tr.counts["oracle.computed_bytes"] += candidates * 8 * (k + len(inst.genres))
    return {"sequence": list(seq.entries), "value": value, "opt": opt}


# ---------------------------------------------------------------------------
# Traced replay: the same public calls, each wrapped in a span
# ---------------------------------------------------------------------------


def replay_job(job: Job, tr: Trace) -> dict:
    """Replay a job as public calls under ``tr``; same result as :func:`run_job`."""
    tr.job = job.key
    if not job.argv:
        with tr.span("job"):
            return _ratio_job(job, CountingMeasure(
                cli.parse_measure(job.measure), tr), tr)
    with tr.span("cli.main"):
        args = cli.build_parser().parse_args(list(job.argv))
        with tr.span("io.load_instance"):
            inst = io.load_instance(args.file)
        tr.counts["io.loads"] += 1
        tr.counts["io.doc_bytes"] += os.path.getsize(args.file)
        G = CountingMeasure(cli.parse_measure(args.measure), tr)
        seq, value, gains = _REPLAY_SOLVERS[args.algorithm](inst, G, args, tr)
        with tr.span("core.recheck"):
            recheck = core.seq_objective(G, seq, inst)
        if abs(recheck - value) > VALUE_TOL:
            raise core.ValidationError("reported value failed re-validation")
        report = cli.SolveReport(
            algorithm=args.algorithm, measure=args.measure, seed=args.seed,
            sequence=seq.entries, value=value, gains=gains, duration=0.0,
            length=len(seq))
        stdout = json.dumps(report.machine_record(), sort_keys=True) + "\n"
    return {"rc": 0, "stdout": stdout}


def _replay_greedy(inst, G, args, tr):
    objective = tr.summed("core.objective", greedy.sequence_objective_fn(G, inst))
    seq, steps = _greedy(objective, inst,
                         args.allow_repeats or inst.mode == "discrete", tr)
    return seq, objective(seq), steps.gains


def _continuous(inst, G, args, tr, m, set_function):
    F = tr.summed("core.setfn", set_function(G, inst))
    with tr.span("matroid.continuous_greedy"):
        x = matroid.continuous_greedy(F, m, steps=args.steps,
                                      samples=args.samples, seed=args.seed)
    with tr.span("matroid.pipage_round"):
        return matroid.pipage_round(m, x, F, seed=args.seed + 1)


def _replay_continuous(inst, G, args, tr):
    m = matroid.LaminarMatroid(inst.item_ids, inst.k)
    R = _continuous(inst, G, args, tr, m, matroid.fg_function)
    with tr.span("matroid.set_to_sequence"):
        seq = matroid.set_to_sequence(R, inst, G)
    with tr.span("core.seq_objective"):
        return seq, core.seq_objective(G, seq, inst), []


def _replay_continuous_repeats(inst, G, args, tr):
    m = matroid.PartitionMatroid(inst.item_ids, inst.k)
    R = _continuous(inst, G, args, tr, m, matroid.hatfg_function)
    by_pos = {j: i for i, j in R}
    filler = sorted(inst.item_ids)[0]
    seq = core.Sequence(tuple(by_pos.get(j, filler) for j in range(1, inst.k + 1)))
    with tr.span("core.seq_objective"):
        return seq, core.seq_objective(G, seq, inst), []


_REPLAY_SOLVERS = {
    "greedy": _replay_greedy,
    "continuous": _replay_continuous,
    "continuous-repeats": _replay_continuous_repeats,
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def answer(job: Job, result: dict) -> tuple[list[str], float]:
    """The returned list and its reported value; raises if unparsable."""
    if job.argv:
        if result["rc"] != 0:
            raise ValueError(f"exit code {result['rc']}")
        record = json.loads(result["stdout"])
        return record["sequence"], record["value"]
    return result["sequence"], result["value"]


def optimum(job: Job) -> float:
    """Exhaustive optimum for a CLI job's instance, outside any timed job."""
    allow_repeats = job.algorithm == "continuous-repeats"
    return oracle.exhaustive_opt(job.inst, measure=cli.parse_measure(job.measure),
                                 allow_repeats=allow_repeats)[1]


def check(job: Job, result: dict, opt: float | None) -> tuple[list[str], float | None]:
    """Problems with one job's output, and its approximation ratio if known."""
    try:
        seq, value = answer(job, result)
        recheck = core.seq_objective(cli.parse_measure(job.measure),
                                     core.Sequence(tuple(seq)), job.inst)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"no valid record: {exc!r}"], None
    problems = []
    if not abs(recheck - value) <= VALUE_TOL:
        problems.append(f"value {value!r} != recomputed {recheck!r}")
    if len(seq) != job.inst.k:
        problems.append(f"length {len(seq)} != k={job.inst.k}")
    if job.algorithm == "continuous" and len(set(seq)) != len(seq):
        problems.append("repeated item in a continuous list")
    if "opt" in result:
        opt = result["opt"]
    ratio = None if opt is None else (value / opt if opt > 0 else 1.0)
    if job.min_ratio is not None and not ratio >= job.min_ratio:
        problems.append(f"ratio {ratio!r} < {job.min_ratio!r}")
    return problems, ratio
