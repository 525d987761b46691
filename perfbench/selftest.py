"""Benchmark self-test: two traced runs at one seed must agree exactly.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Each run builds its corpus from scratch and makes one untraced and one
traced pass. Between the two runs the counts that count-based claims rest
on (``*_calls``, ``*_rows``, ``oracle.candidates``, ``greedy.steps``) and the
digest of every job's output must be identical, both runs must pass every
output check, and the traced run must leave ``caliblist.matroid`` as it
found it. Exit status 0 on success, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.require_package()
    from caliblist import matroid
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    original = matroid.max_weight_basis
    ok = True
    for name in names:
        a, b = (run.measure(name, args.seed, 0, True) for _ in range(2))
        same_counts = a["counts"] == b["counts"]
        same_records = a["records_sha256"] == b["records_sha256"]
        clean = not any(r["failures"] or r["problems"] for r in (a, b))
        restored = matroid.max_weight_basis is original
        print(f"{name}: counts {'equal' if same_counts else 'DIFFER'}, "
              f"records {'identical' if same_records else 'DIFFER'}, "
              f"checks {'pass' if clean else 'FAIL'}, "
              f"package {'restored' if restored else 'LEFT WRAPPED'}")
        for key in sorted(a["counts"]):
            if a["counts"][key] != b["counts"].get(key):
                print(f"  {key}: {a['counts'][key]} != {b['counts'].get(key)}")
        for failure in a["failures"] + a["problems"] + b["failures"] + b["problems"]:
            print(f"  FAILED {failure}")
        ok = ok and same_counts and same_records and clean and restored
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
