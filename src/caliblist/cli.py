"""Command-line front end.

Commands: ``solve`` (run an algorithm on an instance file), ``verify``
(property suites), ``repro`` (fixed case-study tables), ``bench`` (alias
for the ratio suite). Exit codes: 0 success, 1 parse/validation error,
2 check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import greedy as greedy_mod
from . import matroid as matroid_mod
from . import oracle as oracle_mod
from . import repro as repro_mod
from .core import (
    OverlapMeasure,
    Sequence,
    ValidationError,
    hellinger_squared,
    power,
    seq_objective,
)
from .io import load_instance

DEFAULT_SEED = 42


def parse_measure(spec: str) -> OverlapMeasure:
    if spec == "hellinger":
        return hellinger_squared()
    if spec.startswith("power:"):
        return power(float(spec.split(":", 1)[1]))
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
        return {
            "algorithm": self.algorithm,
            "measure": self.measure,
            "seed": self.seed,
            "sequence": list(self.sequence),
            "value": self.value,
            "gains": self.gains,
            "length": self.length,
        }

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
        objective = greedy_mod.sequence_objective_fn(G, inst)
        seq, trace = greedy_mod.greedy_sequence(
            objective, list(inst.universe()), inst.k,
            allow_repeats=args.allow_repeats or inst.mode == "discrete")
        return seq, objective(seq), trace.gains
    if algo == "discrete-greedy":
        if inst.mode != "discrete":
            raise ValidationError("discrete-greedy requires a discrete-mode file")
        seq, trace = greedy_mod.discrete_greedy(inst)
        return seq, greedy_mod.discrete_objective(inst)(seq), trace.gains
    if algo == "exhaustive":
        seq, val = oracle_mod.exhaustive_opt(
            inst, measure=G,
            allow_repeats=args.allow_repeats if args.allow_repeats else None)
        return seq, val, []
    if algo == "continuous":
        seq, val = matroid_mod.solve_distributional(
            inst, G, steps=args.steps, samples=args.samples, seed=args.seed)
        return seq, val, []
    if algo == "continuous-repeats":
        seq, val = matroid_mod.solve_with_repeats(
            inst, G, steps=args.steps, samples=args.samples, seed=args.seed)
        return seq, val, []
    raise ValidationError(f"unknown algorithm {algo!r}")


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    G = _solver_measure(args)
    if args.k_override is not None:
        inst = greedy_mod.truncate_instance(inst, args.k_override)
    start = time.perf_counter()
    if args.best_length:
        solver = lambda sub: _solve_one(sub, args, G)[:2]
        length, seq, value = greedy_mod.best_length_solve(inst, solver)
        gains: list[float] = []
    else:
        seq, value, gains = _solve_one(inst, args, G)
        length = len(seq)
    duration = time.perf_counter() - start
    check_inst = (greedy_mod.truncate_instance(inst, length)
                  if length != inst.k else inst)
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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_verify(args) -> int:
    suite = args.suite
    seed = args.seed
    if seed < 0:  # every suite seeds a numpy generator
        raise ValidationError(f"seed must be >= 0, got {seed}")
    out: dict = {"suite": suite, "seed": seed}

    if suite == "axioms":
        if args.measure == "kl-mmr-demo":
            G = repro_mod.kl_pseudo_measure()
        else:
            G = parse_measure(args.measure)
        res = oracle_mod.check_overlap_axioms(G, trials=args.n, seed=seed)
        out.update(passed=res.passed, violations=res.violations,
                   counterexample=res.counterexample)
    elif suite == "mdr":
        G = parse_measure(args.measure)
        res = oracle_mod.check_mdr(G, trials=args.n, seed=seed)
        out.update(passed=res.passed,
                   mdr_violations=res.mdr.violations,
                   smdr_violations=res.smdr.violations,
                   counterexample=res.mdr.counterexample or res.smdr.counterexample)
    elif suite == "ordered-submodular":
        G = parse_measure(args.measure)
        insts = repro_mod.generate_instances(
            repro_mod.GenParams(max_k=4, max_items=4), "distributional",
            seed=seed, n=50)
        worst = None
        passed = True
        violations = 0
        for inst in insts:
            res = oracle_mod.check_ordered_submodular(
                greedy_mod.sequence_objective_fn(G, inst),
                list(inst.universe()), inst.k,
                trials=max(1, args.n // 50), seed=seed)
            violations += res.violations
            if not res.passed:
                passed = False
                worst = worst or res.counterexample
        out.update(passed=passed, violations=violations, counterexample=worst)
    elif suite == "prop41":
        out.update(_verify_prop41(args))
    elif suite == "ratios":
        out.update(_verify_ratios(args))
    else:
        raise ValidationError(f"unknown suite {suite!r}")

    passed = bool(out.get("passed"))
    if out.get("counterexample") and args.out:
        _write_counterexample(args.out, out["counterexample"])
    if args.machine:
        print(json.dumps(out, sort_keys=True, default=str))
    else:
        for key, val in out.items():
            print(f"{key}: {val}")
    return 0 if passed else 2


def _verify_prop41(args) -> dict:
    import numpy as np

    from .core import ItemPositionSet, fg_set
    from .matroid import LaminarMatroid, set_to_sequence

    G = parse_measure(args.measure)
    rng = np.random.default_rng(args.seed)
    insts = repro_mod.generate_instances(
        repro_mod.GenParams(min_items=4, max_items=6, max_k=4),
        "distributional", seed=args.seed, n=args.n)
    violations = 0
    counterexample = None
    for inst in insts:
        m = LaminarMatroid(inst.item_ids, inst.k)
        pairs = m.ground_set()
        rng.shuffle(pairs)
        basis: set = set()
        for e in pairs:
            if m.independent(basis | {e}):
                basis.add(e)
                if len(basis) == inst.k:
                    break
        R = ItemPositionSet(frozenset(basis))
        seq = set_to_sequence(R, inst, G)
        if seq_objective(G, seq, inst) < fg_set(G, R, inst) - 1e-12:
            violations += 1
            counterexample = counterexample or {
                "basis": sorted(R.pairs), "sequence": list(seq.entries)}
    return {"passed": violations == 0, "violations": violations,
            "counterexample": counterexample}


def _verify_ratios(args) -> dict:
    G = _solver_measure(args)
    if args.algorithm == "discrete-greedy":
        gen = lambda seed, n: repro_mod.generate_instances(
            repro_mod.GenParams(max_genres=5, max_k=6), "discrete", seed, n)
        alg = lambda inst: (
            lambda sv: (sv[0], greedy_mod.discrete_objective(inst)(sv[0]))
        )(greedy_mod.discrete_greedy(inst))
        threshold = 2 / 3 - 1e-9
        stat = "min_ratio"
    elif args.algorithm == "greedy":
        def alg(inst):
            objective = greedy_mod.sequence_objective_fn(G, inst)
            seq, _ = greedy_mod.greedy_sequence(
                objective, list(inst.universe()), inst.k,
                allow_repeats=inst.mode == "discrete")
            return seq, objective(seq)
        gen = lambda seed, n: repro_mod.generate_instances(
            repro_mod.GenParams(max_items=6, max_k=4), "distributional", seed, n)
        threshold = 0.5 - 1e-9
        stat = "min_ratio"
    elif args.algorithm == "continuous":
        alg = lambda inst: matroid_mod.solve_distributional(
            inst, G, steps=args.steps, samples=args.samples, seed=args.seed)
        gen = lambda seed, n: repro_mod.generate_instances(
            repro_mod.GenParams(min_items=3, max_items=5, max_k=3),
            "distributional", seed, n)
        import math
        threshold = 1 - 1 / math.e - 0.02
        stat = "median_ratio"
    else:
        raise ValidationError(f"unknown algorithm {args.algorithm!r}")
    report = oracle_mod.ratio_report(alg, G, gen, n=args.n, seed=args.seed)
    result = report.as_dict()
    result["passed"] = result[stat] >= threshold
    result["threshold"] = threshold
    result["statistic"] = stat
    return result


def cmd_repro(args) -> int:
    if args.target == "appendix-b":
        rows = repro_mod.repro_appendix_b()
        print(f"{'w1':>8} {'ALG':>12} {'OPT':>12} {'status':>8}")
        ok = True
        for r in rows:
            status = "pass" if r.ok else "FAIL"
            ok = ok and r.ok
            print(f"{r.w1:>8g} {r.alg:>12.6f} {r.opt:>12.6f} {status:>8}")
        return 0 if ok else 2
    if args.target == "appendix-c":
        rows = repro_mod.repro_appendix_c()
        print(f"{'sequence':>14} {'value':>10} {'expected':>10} {'status':>8}")
        ok = True
        for r in rows:
            status = "pass" if r.ok else "FAIL"
            ok = ok and r.ok
            print(f"{' '.join(r.sequence):>14} {r.value:>10.4f} "
                  f"{r.expected:>10.3f} {status:>8}")
        return 0 if ok else 2
    raise ValidationError(f"unknown repro target {args.target!r}")


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
    solve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    solve.add_argument("--steps", type=int, default=100)
    solve.add_argument("--samples", type=int, default=200)
    solve.add_argument("--machine", action="store_true")
    solve.set_defaults(fn=cmd_solve)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("--suite", required=True,
                        choices=["axioms", "mdr", "ordered-submodular",
                                 "prop41", "ratios"])
    bench = sub.add_parser("bench", help="alias for verify --suite ratios")
    bench.set_defaults(suite="ratios")
    for p in (verify, bench):
        p.add_argument("--measure", default="hellinger")
        p.add_argument("--algorithm", default="discrete-greedy")
        p.add_argument("--n", type=int, default=200)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--steps", type=int, default=40)
        p.add_argument("--samples", type=int, default=40)
        p.add_argument("--out", default=None,
                       help="write the first counterexample to this file")
        p.add_argument("--machine", action="store_true")
        p.set_defaults(fn=cmd_verify)

    repro = sub.add_parser("repro", help="reproduce a case-study table")
    repro.add_argument("target", choices=["appendix-b", "appendix-c"])
    repro.set_defaults(fn=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return rc
    except (ValidationError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader is gone; mute the final flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
