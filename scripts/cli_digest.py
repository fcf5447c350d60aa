"""Digest the command line's output on the benchmark's cli-dynamics inputs.

For each seed, rebuild the input files that ``bench/run.py --workload
cli-dynamics --seed S`` generates at its default ``--seconds 25`` (25 files
per seed), run ``classify``, ``verify`` and ``simulate`` on every file
through ``hqds3.cli.main`` in process, with the argv of the benchmark's
``CliOp``, and print one sha256 per file and command over its exit code,
stdout and stderr.  The last line is a sha256 over all of them, so two trees
whose totals agree gave byte-identical output on every file.  The temporary
directory that holds the files is written as ``<workdir>`` wherever an
output names it.

Usage: python3 scripts/cli_digest.py 1-40      (seeds: N, or N-M inclusive)
"""
import os

# pin BLAS threads before numpy is imported, as the benchmark does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

WORKLOAD = "cli-dynamics"
SECONDS = 25  # bench/run.py's default --seconds


class Recorder(workloads.CliOp):
    """``CliOp``'s three commands, returning what each printed instead of
    judging it."""

    def check(self, item, runs):
        return {cmd: (rc, out, err) for cmd, (_, rc, out, err) in runs.items()}


def seed_list(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="+", help="seeds, each N or N-M inclusive")
    args = ap.parse_args(argv)
    op = Recorder()
    total = hashlib.sha256()
    runs = 0
    for seed in seed_list(args.seeds):
        with tempfile.TemporaryDirectory() as workdir:
            for item in workloads.make_items(WORKLOAD, seed, SECONDS, workdir):
                for cmd, (rc, out, err) in op(item).items():
                    sha = hashlib.sha256()
                    for part in (str(rc), out, err):
                        sha.update(part.replace(workdir, "<workdir>").encode() + b"\0")
                    line = f"{seed} {os.path.basename(item.path)} {cmd} {sha.hexdigest()}"
                    print(line, flush=True)
                    total.update(line.encode() + b"\n")
                    runs += 1
    print(f"total over {runs} runs: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
