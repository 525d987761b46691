"""Command-line front end.

Commands: ``solve`` (run an algorithm on an instance file), ``verify``
(property suites), ``repro`` (fixed case-study tables). Exit codes: 0
success, 1 parse/validation error, 2 check failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import cache

from . import greedy as greedy_mod
from . import matroid as matroid_mod
from . import oracle as oracle_mod
from . import repro as repro_mod
from .core import (
    HellingerSquared,
    OverlapMeasure,
    PowerOverlap,
    Sequence,
    ValidationError,
    seq_objective,
    truncate_instance,
)
from .io import load_instance


def parse_measure(spec: str) -> OverlapMeasure:
    if spec == "hellinger":
        return HellingerSquared()
    if spec.startswith("power:"):
        beta = spec.split(":", 1)[1]
        try:
            value = float(beta)
        except ValueError:
            raise ValidationError(f"beta must be a number, got {beta!r}") from None
        return PowerOverlap(value)
    raise ValidationError(
        f"unknown measure {spec!r}; use 'hellinger' or 'power:<beta>'")


def _solver_measure(args) -> OverlapMeasure:
    """The run's measure; discrete-greedy's closed-form value is Hellinger only."""
    if args.algorithm == "discrete-greedy" and args.measure != "hellinger":
        raise ValidationError("discrete-greedy supports only --measure hellinger")
    return parse_measure(args.measure)


@dataclass
class SolveReport:
    algorithm: str
    measure: str
    seed: int
    sequence: tuple[str, ...]
    value: float
    gains: list[float]
    duration: float
    length: int

    def machine_record(self) -> dict:
        # wall-clock time is excluded so identical runs are byte-identical
        record = dict(vars(self))
        del record["duration"]
        return record

    def text(self) -> str:
        lines = [
            f"algorithm: {self.algorithm}",
            f"measure:   {self.measure}",
            f"seed:      {self.seed}",
            f"length:    {self.length}",
            f"sequence:  {' '.join(self.sequence)}",
            f"value:     {self.value:.9f}",
            f"gains:     {' '.join(f'{g:.6f}' for g in self.gains)}",
            f"duration:  {self.duration:.3f}s",
        ]
        return "\n".join(lines)


def _solve_one(inst, args, G) -> tuple[Sequence, float, list[float]]:
    algo = args.algorithm
    if algo == "greedy":
        seq, trace = greedy_mod.greedy_sequence(
            greedy_mod.sequence_objective_fn(G, inst), list(inst.universe()), inst.k,
            allow_repeats=args.allow_repeats or inst.mode == "discrete")
        return seq, trace.value, trace.gains
    if algo == "discrete-greedy":
        seq, trace = greedy_mod.discrete_greedy(inst)
        return seq, trace.value, trace.gains
    if algo == "exhaustive":
        seq, val = oracle_mod.exhaustive_opt(
            inst, measure=G,
            allow_repeats=args.allow_repeats or None)
        return seq, val, []
    # continuous's laminar matroid holds each item once
    if algo == "continuous" and args.allow_repeats:
        raise ValidationError("continuous does not take --allow-repeats; "
                              "use --algorithm continuous-repeats")
    seq, val = matroid_mod.solve_continuous(
        inst, G, allow_repeats=algo == "continuous-repeats",
        steps=args.steps, samples=args.samples, seed=args.seed)
    return seq, val, []


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    G = _solver_measure(args)
    if args.k_override is not None:
        inst = truncate_instance(inst, args.k_override)
    start = time.perf_counter()
    if args.best_length:
        solver = lambda sub: _solve_one(sub, args, G)[:2]
        length, seq, value = greedy_mod.best_length_solve(inst, solver)
        gains: list[float] = []
    else:
        seq, value, gains = _solve_one(inst, args, G)
        length = len(seq)
    duration = time.perf_counter() - start
    check_inst = truncate_instance(inst, length) if length != inst.k else inst
    if abs(seq_objective(G, seq, check_inst) - value) > 1e-12:
        raise ValidationError("reported value failed re-validation")
    report = SolveReport(
        algorithm=args.algorithm, measure=args.measure, seed=args.seed,
        sequence=seq.entries, value=value, gains=gains,
        duration=duration, length=length,
    )
    if args.machine:
        print(json.dumps(report.machine_record(), sort_keys=True))
    else:
        print(report.text())
    return 0


def _write_counterexample(path: str, payload: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_verify(args) -> int:
    suite = args.suite
    seed = args.seed
    if seed < 0:  # every suite seeds a numpy generator
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if args.n < 1:  # no suite passes on zero trials or instances
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    out: dict = {"suite": suite, "seed": seed}

    res = None  # the suite's CheckResult, for the suites that tally one
    if suite == "axioms":
        G = (repro_mod.kl_pseudo_measure() if args.measure == "kl-mmr-demo"
             else parse_measure(args.measure))
        res = oracle_mod.check_overlap_axioms(G, trials=args.n, seed=seed)
    elif suite == "mdr":
        G = parse_measure(args.measure)
        mdr = oracle_mod.check_mdr(G, trials=args.n, seed=seed)
        out.update(passed=mdr.passed,
                   mdr_violations=mdr.mdr.violations,
                   smdr_violations=mdr.smdr.violations,
                   counterexample=mdr.mdr.counterexample or mdr.smdr.counterexample)
    elif suite == "ordered-submodular":
        G = parse_measure(args.measure)
        insts = repro_mod.generate_instances(
            repro_mod.GenParams(max_k=4, max_items=4), "distributional",
            seed=seed, n=50)
        trials = max(1, args.n // 50)
        per_inst = (oracle_mod.check_ordered_submodular(
            greedy_mod.sequence_objective_fn(G, inst), list(inst.universe()),
            inst.k, trials=trials, seed=seed) for inst in insts)
        # an instance's v violations count as v probes that found its first
        # counterexample
        res = oracle_mod._tally(len(insts) * trials, (
            r.counterexample for r in per_inst for _ in range(r.violations)))
    elif suite == "prop41":
        res = oracle_mod.check_set_to_sequence(
            parse_measure(args.measure), trials=args.n, seed=seed)
    else:  # ratios
        out.update(_verify_ratios(args))
    if res is not None:
        out.update(passed=res.passed, violations=res.violations,
                   counterexample=res.counterexample)

    if args.machine:
        print(json.dumps(out, sort_keys=True, default=str))
    else:
        for key, val in out.items():
            print(f"{key}: {val}")
    # after the record, so a failed write does not lose the suite's result
    if out.get("counterexample") and args.out:
        _write_counterexample(args.out, out["counterexample"])
    return 0 if out.get("passed") else 2


# Each ratio suite's instance generator (bounds, mode), pass threshold and
# the statistic compared with it.
_RATIO_SUITES = {
    "discrete-greedy": (repro_mod.GenParams(max_genres=5, max_k=6), "discrete",
                        2 / 3 - 1e-9, "min_ratio"),
    "greedy": (repro_mod.GenParams(max_items=6, max_k=4), "distributional",
               0.5 - 1e-9, "min_ratio"),
    "continuous": (repro_mod.GenParams(min_items=3, max_items=5, max_k=3),
                   "distributional", 1 - 1 / math.e - 0.02, "median_ratio"),
}


def _verify_ratios(args) -> dict:
    G = _solver_measure(args)
    if args.algorithm not in _RATIO_SUITES:
        raise ValidationError(f"unknown algorithm {args.algorithm!r}")
    params, mode, threshold, stat = _RATIO_SUITES[args.algorithm]
    instances = repro_mod.instance_stream(params, mode, args.seed)
    report = oracle_mod.ratio_report(
        lambda inst: _solve_one(inst, args, G)[:2], G,
        itertools.islice(instances, args.n))
    result = asdict(report)
    result["passed"] = result[stat] >= threshold
    result["threshold"] = threshold
    result["statistic"] = stat
    return result


def cmd_repro(args) -> int:
    if args.target == "appendix-b":
        rows = repro_mod.repro_appendix_b()
        header = f"{'w1':>8} {'ALG':>12} {'OPT':>12}"
        cells = lambda r: f"{r.w1:>8g} {r.alg:>12.6f} {r.opt:>12.6f}"
    else:  # appendix-c
        rows = repro_mod.repro_appendix_c()
        header = f"{'sequence':>14} {'value':>10} {'expected':>10}"
        cells = lambda r: (f"{' '.join(r.sequence):>14} {r.value:>10.4f} "
                           f"{r.expected:>10.3f}")
    print(f"{header} {'status':>8}")
    for r in rows:
        print(f"{cells(r)} {'pass' if r.ok else 'FAIL':>8}")
    return 0 if all(r.ok for r in rows) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caliblist",
        description="Calibrated recommendation lists under decaying attention.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an algorithm on an instance file")
    solve.add_argument("file")
    solve.add_argument("--algorithm", default="greedy",
                       choices=["greedy", "discrete-greedy", "exhaustive",
                                "continuous", "continuous-repeats"])
    solve.add_argument("--measure", default="hellinger")
    solve.add_argument("--k-override", type=int, default=None)
    solve.add_argument("--allow-repeats", action="store_true")
    solve.add_argument("--best-length", action="store_true")
    solve.add_argument("--seed", type=int, default=42)
    solve.add_argument("--steps", type=int, default=100)
    solve.add_argument("--samples", type=int, default=200)
    solve.add_argument("--machine", action="store_true")
    solve.set_defaults(fn=cmd_solve)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("--suite", required=True,
                        choices=["axioms", "mdr", "ordered-submodular",
                                 "prop41", "ratios"])
    verify.add_argument("--measure", default="hellinger")
    verify.add_argument("--algorithm", default="discrete-greedy")
    verify.add_argument("--n", type=int, default=200)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--steps", type=int, default=40)
    verify.add_argument("--samples", type=int, default=40)
    verify.add_argument("--out", default=None,
                        help="write the first counterexample to this file")
    verify.add_argument("--machine", action="store_true")
    # no --allow-repeats here: _solve_one allows repeats in discrete mode only
    verify.set_defaults(fn=cmd_verify, allow_repeats=False)

    repro = sub.add_parser("repro", help="reproduce a case-study table")
    repro.add_argument("target", choices=["appendix-b", "appendix-c"])
    repro.set_defaults(fn=cmd_repro)

    return parser


_shared_parser = cache(build_parser)  # parse_args leaves the parser as it was


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return rc
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader is gone; mute the final flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
