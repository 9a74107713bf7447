"""Command line: the contract command, ``run``, ``check`` and ``compare``."""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="With --workload: measure one workload for --seconds and print "
        "one JSON line (the BENCHMARK.json contract).  run: all five workloads. "
        "check: replay each against the golden engine.  compare: verdict on two "
        "result files.",
    )
    parser.add_argument("command", nargs="?", choices=("run", "check", "compare"))
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, help="default: each workload's own (0xBEE, Fig. 1 0x5EED)")
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="run: 1/50 size, one repeat")
    parser.add_argument("--out", help="run: result file (default bench/out/results-<time>.json)")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from bench.compare import compare_files

        if len(args.files) != 2:
            parser.error("compare takes two result files")
        return compare_files(*args.files)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no simulator to measure: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bench import harness
    from bench.workloads import WORKLOADS

    if args.command == "run":
        return harness.full_run(args.seed, args.repeats, args.smoke, args.out)
    if args.command == "check":
        return harness.check_all(args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seed = WORKLOADS[args.workload].seed if args.seed is None else args.seed
    return harness.contract_run(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
