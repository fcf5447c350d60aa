"""Digest both classification routes on the benchmark's sweep inputs.

For each seed, rebuild the input pools that ``bench/run.py --workload
sweep-recipe --seed S`` and ``--workload sweep-cone --seed S`` generate at
their default ``--seconds 25`` (1125 and 120 inputs per seed), run the
benchmark's ``SweepOp`` on every input in process, and print one sha256 per
seed and workload over the ``Outcome.digest`` of every op, which covers both
routes' tags, methods and certificate bytes.  The last line is a sha256 over
all of them, so two trees whose totals agree gave byte-identical verdicts
and certificates on every input.

Usage: python3 scripts/sweep_digest.py 1-5      (seeds: N, or N-M inclusive)
"""
import argparse
import hashlib
import sys

# importing cli_digest pins BLAS threads, as the benchmark does, and puts
# src/ and bench/ on the path before numpy and hqds3 are imported
from cli_digest import SECONDS, seed_list
import workloads

WORKLOADS = ("sweep-recipe", "sweep-cone")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="+", help="seeds, each N or N-M inclusive")
    args = ap.parse_args(argv)
    op = workloads.SweepOp()
    total = hashlib.sha256()
    ops = 0
    for seed in seed_list(args.seeds):
        for workload in WORKLOADS:
            sha = hashlib.sha256()
            items = workloads.make_items(workload, seed, SECONDS, "")
            for item in items:
                sha.update(op(item).digest.encode() + b"\n")
            line = f"{seed} {workload} {len(items)} ops {sha.hexdigest()}"
            print(line, flush=True)
            total.update(line.encode() + b"\n")
            ops += len(items)
    print(f"total over {ops} ops: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
