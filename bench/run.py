"""hqds3 benchmark: one closed-loop caller, one thread, BLAS pinned to 1.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-cone --seed 1 --seconds 25 --trace 0

Set-up generates an input pool from ``--seed`` (``--seconds`` sets its size)
and warms up.  The run then calls hqds3's public functions in process, one
op at a time, on every input of the pool in each of ``PASSES`` passes,
checks every op, prints a report and, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one untraced and one traced pass, the traced one wrapping the public
functions of each layer (see layertrace.py), and reports per-layer counts
and self times.  Full results, and the spans of a traced run, are written
under ``.bench_out/`` in the checkout.  README.md in this directory gives
the workloads and what each metric should move.
"""
import os

# pin BLAS threads before numpy is imported, here and in set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-recipe", "sweep-cone", "cli-dynamics")
# Every input is timed once per pass; each pass's times are scaled to the
# reference machine's speed by the calibration kernel (calibrate.py), and an
# input's cost is its fastest pass.  Neighbours on a shared machine slow
# stretches of a run unevenly; the passes of one input lie far apart, so one
# of them usually misses such a stretch.
PASSES = 3
# fresh interpreters timed for setup_s; the median of their scaled times is
# reported.  Kernel samples are taken between the probes, because the
# machine's speed changes within the seconds the probes take.
SETUP_PROBES = 5
SETUP_KERNEL_SAMPLES = 3


def _import_program():
    """Import hqds3 from this checkout's sources, or exit without a result."""
    if not (SRC / "hqds3" / "__init__.py").is_file():
        sys.exit(f"bench: no hqds3 sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hqds3

    if Path(hqds3.__file__).resolve().parent != SRC / "hqds3":
        sys.exit(f"bench: imported hqds3 from {hqds3.__file__}, not from {SRC}")
    import calibrate
    import layertrace
    import workloads

    return workloads, layertrace, calibrate


def setup(wl, args, workdir: str):
    """Generate the input pool and warm up with one op on a fixed input that
    does not depend on the seed (see workloads.warmup_item)."""
    items = wl.make_items(args.workload, args.seed, args.seconds, workdir)
    op = wl.make_op(args.workload)
    try:
        op(wl.warmup_item(args.workload, workdir))
    except Exception:  # a warm-up gives no result; the timed passes check every op
        pass
    return items, op


def probe_setup_seconds(args, cal) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter to its first timed op, per
    probe, raw and scaled.  Calibration kernel samples taken just before and
    just after each probe scale it by the machine's speed at that moment."""
    spans = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_KERNEL_SAMPLES):
            cal.sample()
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            dt = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line != "ready":
            sys.exit(f"bench: set-up probe failed (exit {rc}, said {line!r})")
        spans.append((t0, t0 + dt))
    for _ in range(SETUP_KERNEL_SAMPLES):
        cal.sample()
    return ([t1 - t0 for t0, t1 in spans],
            [(t1 - t0) * cal.factor(t0, t1) for t0, t1 in spans])


def run_passes(wl, op, items, passes, first, cal, tracer=None):
    """``passes`` passes over ``items``, sampling the calibration kernel
    between ops.  Returns records (item index, op start, op seconds, Outcome).
    ``first`` maps item index to the digest of its first op; every later op
    on the same input must reproduce it."""
    records = []
    for _ in range(passes):
        cal.sample()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.begin_op(len(records))
            t0 = perf_counter()
            try:
                out = op(item)
            except Exception as exc:  # a crash gives no answer: a failed op
                out = wl.Outcome({}, (item.kind, "raised"), repr(exc),
                                 [f"op raised {exc!r}"])
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            if first.setdefault(i, out.digest) != out.digest:
                out.problems.append("result differs from the first op on this input")
                out.wrong = True
            records.append((i, t0, dt, out))
            cal.maybe_sample()
    return records


# ---------------------------------------------------------------------------
# metrics


def _scaled_ms(records, cal, seconds_of) -> list[tuple[int, float]]:
    """(input index, ms) of every op for which ``seconds_of(dt, outcome)`` is
    not None, scaled to the reference machine's speed (see calibrate.py)."""
    out = []
    for i, t0, dt, o in records:
        s = seconds_of(dt, o)
        if s is not None:
            out.append((i, s * 1e3 * cal.factor(t0, t0 + dt)))
    return out


def _best_per_input(scaled) -> list[float]:
    """Per input, its fastest scaled op."""
    best: dict[int, float] = {}
    for i, ms in scaled:
        best[i] = min(ms, best.get(i, ms))
    return list(best.values())


def _p95(samples_ms: list[float]) -> float | None:
    """p95 of the samples when at least ten of them lie beyond it."""
    if len(samples_ms) < 20:
        return None
    p95 = statistics.quantiles(samples_ms, n=20)[-1]
    return p95 if sum(v > p95 for v in samples_ms) >= 10 else None


def end_to_end(workload, stage_names, records, cal, setup_s) -> tuple[dict, dict]:
    """(gated metrics, per-workload metrics), both name -> (value, unit).
    A p50 is the median of the inputs' fastest passes; a p95 is taken over
    every timed op, because a pool holds too few inputs for a tail of ten."""
    ops = _scaled_ms(records, cal, lambda dt, out: dt)
    op_ms = _best_per_input(ops)
    failed = sum(bool(out.problems) for *_, out in records)
    gated = {
        "setup_s": (setup_s, "s"),
        "alg_per_s": (1e3 * len(op_ms) / sum(op_ms), "1/s"),
        "alg_ms_p50": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    named = {"error_rate": (failed / len(records), "ratio"),
             "inputs": (len(op_ms), "count"), "ops": (len(ops), "count")}
    p95 = _p95([ms for _, ms in ops])
    if p95 is not None:
        named["alg_ms_p95"] = (p95, "ms")
    for stage in stage_names:
        scaled = _scaled_ms(records, cal, lambda dt, out: out.stages.get(stage))
        named[f"{stage}_ms_p50"] = (statistics.median(_best_per_input(scaled)), "ms")
        p95 = _p95([ms for _, ms in scaled])
        if p95 is not None:
            named[f"{stage}_ms_p95"] = (p95, "ms")
    if workload == "cli-dynamics":
        named["reports_per_s"] = (3e3 * len(op_ms) / sum(op_ms), "1/s")
    raw_ms = [dt * 1e3 for *_, dt, _ in records]
    named["unscaled_alg_ms_p50"] = (statistics.median(raw_ms), "ms")
    return gated, named


def per_layer(tr, tracer, records_t, cache_delta) -> dict:
    n = len(records_t)
    metrics = {}
    for layer, names in tr.TRACED.items():
        for fn in names:
            key = f"{layer}.{fn}"
            metrics[f"{key}.calls_per_op"] = (tracer.calls.get(key, 0) / n, "count")
            metrics[f"{key}.self_ms_per_op"] = (tracer.self_s.get(key, 0.0) * 1e3 / n, "ms")

    def ratio(key):
        calls = tracer.calls.get(key, 0)
        return tracer.outcome_sum.get(key, 0.0) / calls if calls else 0.0

    def hit_ratio(delta):
        hits, misses = delta
        return hits / (hits + misses) if hits + misses else 0.0

    metrics["derivations.find_real_ssnd.hit_ratio"] = (
        ratio("derivations.find_real_ssnd"), "ratio")
    metrics["classify.fingerprint.cache_hit_ratio"] = (
        hit_ratio(cache_delta["fingerprint"]), "ratio")
    metrics["classify.cone_cache.hit_ratio"] = (hit_ratio(cache_delta["cone"]), "ratio")
    metrics["classify.certificate_residual.accept_ratio"] = (
        ratio("classify.certificate_residual"), "ratio")
    metrics["classify.classify_via_derivation.fallback_ratio"] = (
        ratio("classify.classify_via_derivation"), "ratio")
    metrics["dynamics.integrate.samples_per_call"] = (ratio("dynamics.integrate"), "count")
    metrics["cli.bytes_out_per_op"] = (
        sum(out.bytes_out for *_, out in records_t) / n, "bytes")
    return metrics


def tracing_overhead(records_t, records_u, cal) -> dict:
    """Mean scaled op time of the traced and the untraced pass over the same
    inputs, and their difference.  One pass each, so it carries the
    machine's noise: it is reported, not compared across commits."""
    untraced, traced = (
        statistics.fmean(ms for _, ms in _scaled_ms(recs, cal, lambda dt, out: dt))
        for recs in (records_u, records_t))
    return {"untraced_ms_per_op": untraced, "traced_ms_per_op": traced,
            "overhead_ms_per_op": traced - untraced,
            "overhead_share": (traced - untraced) / untraced}


# ---------------------------------------------------------------------------
# reproducibility record


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, otherwise None."""
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(args, items, first_pass) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((SRC / "hqds3").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    inputs = hashlib.sha256()
    for it in items:
        inputs.update(f"{it.kind}|{it.truth}|{it.x0}|".encode())
        inputs.update(it.tensor.tobytes())
    verdicts = hashlib.sha256()
    for *_, out in first_pass:
        verdicts.update(repr(out.verdict).encode())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "inputs": len(items),
        "inputs_sha256": inputs.hexdigest(),
        "verdicts_sha256": verdicts.hexdigest(),
    }


def _problem_counts(records) -> dict:
    counts: dict[str, int] = {}
    for *_, out in records:
        for p in out.problems:
            key = f"{out.verdict[0]}: {p}"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: -kv[1]))


def _print_cone_calls_per_command(tracer, items, records_t) -> None:
    """algebra.nilpotent_cone calls per CLI command, by input kind."""
    commands = ("cli.cmd_classify", "cli.cmd_verify", "cli.cmd_simulate")
    counts = tracer.calls_under("algebra.nilpotent_cone", commands)
    ops_of_kind: dict[str, int] = {}
    for i, *_ in records_t:
        ops_of_kind[items[i].kind] = ops_of_kind.get(items[i].kind, 0) + 1
    per_kind: dict[str, dict[str, float]] = {}
    for (op, cmd), c in counts.items():
        kind = items[records_t[op][0]].kind
        row = per_kind.setdefault(kind, {})
        row[cmd] = row.get(cmd, 0.0) + c / ops_of_kind[kind]
    print("  algebra.nilpotent_cone calls per CLI command, by input:")
    for kind in sorted(ops_of_kind):
        row = per_kind.get(kind, {})
        print(f"    {kind:8s} " + ", ".join(
            f"{cmd.split('_', 1)[1]} {row.get(cmd, 0.0):g}" for cmd in commands))


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}")


def _print_problems(problems: dict) -> None:
    for p, c in list(problems.items())[:8]:
        print(f"  failed x{c}: {p}")


def _finish(args, result: dict, report: dict) -> int:
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------


def timed_run(args, wl, items, op, cal, setup_raw, setup_scaled) -> int:
    records = run_passes(wl, op, items, PASSES, {}, cal)
    setup_s = statistics.median(setup_scaled)
    gated, named = end_to_end(args.workload, op.stage_names, records, cal, setup_s)
    failed = sum(bool(out.problems) for *_, out in records)
    correct = not any(out.wrong for *_, out in records)
    kernel_ms = {"median": statistics.median(cal.ms), "min": min(cal.ms),
                 "max": max(cal.ms), "samples": len(cal.ms)}
    rec = record(args, items, records[: len(items)])
    problems = _problem_counts(records)

    print(f"hqds3 benchmark  workload={args.workload}  seed={args.seed}  "
          f"{PASSES} passes x {len(items)} inputs; per-input time = fastest pass, "
          f"scaled to the reference machine")
    _print_metrics("end-to-end (gated):", gated)
    _print_metrics("end-to-end (this workload):", named)
    print(f"  setup probes (s), unscaled: {', '.join(f'{t:.4f}' for t in setup_raw)}; "
          f"scaled: {', '.join(f'{t:.4f}' for t in setup_scaled)}")
    print(f"  calibration kernel (ms; {cal.reference_ms} at rest): "
          + ", ".join(f"{k} {v:.4g}" for k, v in kernel_ms.items()))
    _print_problems(problems)
    print("record: " + json.dumps(rec))
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": _as_json(gated)}
    report = {"result": result, "this_workload": _as_json(named),
              "setup_probes_s": {"unscaled": setup_raw, "scaled": setup_scaled}, "kernel_ms": kernel_ms, "problems": problems,
              "record": rec}
    return _finish(args, result, report)


def traced_run(args, wl, tr, items, op, cal) -> int:
    """One untraced pass, then one traced pass over the same inputs; the
    verdicts and certificates must match op for op."""
    cls = sys.modules["hqds3.classify"]
    first: dict[int, str] = {}
    records_u = run_passes(wl, op, items, 1, first, cal)
    tracer = tr.Tracer(outcomes={
        "derivations.find_real_ssnd": lambda r: r is not None,
        "classify.certificate_residual": lambda r: r <= wl.TAU_CERT,
        "classify.classify_via_derivation": lambda r: r.method == "derivation-fallback",
        "dynamics.integrate": lambda r: len(r.times),
    })
    caches = {"fingerprint": cls.fingerprint, "cone": cls._cone_cached}
    before = {k: c.cache_info() for k, c in caches.items()}
    tracer.install()
    try:
        # run_passes marks a traced op whose digest differs from the untraced one
        records_t = run_passes(wl, op, items, 1, first, cal, tracer=tracer)
    finally:
        tracer.uninstall()
    after = {k: c.cache_info() for k, c in caches.items()}
    cache_delta = {k: (after[k].hits - before[k].hits, after[k].misses - before[k].misses)
                   for k in caches}

    mismatched = sum(u[3].digest != t[3].digest for u, t in zip(records_u, records_t))
    metrics = per_layer(tr, tracer, records_t, cache_delta)
    overhead = tracing_overhead(records_t, records_u, cal)
    records = records_u + records_t
    failed = sum(bool(out.problems) for *_, out in records)
    correct = not any(out.wrong for *_, out in records)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans)
    rec = record(args, items, records_u)
    problems = _problem_counts(records)

    print(f"hqds3 benchmark (traced)  workload={args.workload}  seed={args.seed}  "
          f"{len(items)} inputs, one untraced pass then one traced pass")
    _print_metrics("per-layer (traced pass, per op):", metrics)
    if args.workload == "cli-dynamics":
        _print_cone_calls_per_command(tracer, items, records_t)
    print("  tracing overhead (scaled, mean per op): " + ", ".join(
        f"{k} {v:.4g}" for k, v in overhead.items()))
    print(f"  traced ops whose verdict or certificate differs from untraced: {mismatched}")
    _print_problems(problems)
    print(f"  spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    print("record: " + json.dumps(rec))
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": _as_json(metrics)}
    report = {"result": result, "traced_mismatches": mismatched,
              "tracing_overhead": overhead, "problems": problems, "record": rec}
    return _finish(args, result, report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25,
                    help="sizes the input pool so the run takes about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (how setup_s is timed)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    wl, tr, calibrate = _import_program()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_probe:
            setup(wl, args, workdir)
            print("ready", flush=True)
            return 0
        cal = calibrate.Calibrator()
        if args.trace:
            items, op = setup(wl, args, workdir)
            return traced_run(args, wl, tr, items, op, cal)
        setup_raw, setup_scaled = probe_setup_seconds(args, cal)
        items, op = setup(wl, args, workdir)
        return timed_run(args, wl, items, op, cal, setup_raw, setup_scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
