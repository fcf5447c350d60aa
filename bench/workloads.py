"""Seeded inputs, the timed op and its correctness oracle for each workload.

Why each workload exists and which layer it should move is written down in
README.md next to this file.  In short:

* ``sweep-recipe``: two-route cross-check on conjugates of A2, A3 and A4;
  the nilpotent cone is never computed.
* ``sweep-cone``: the same op on A1 conjugates, random tensors and
  ill-conditioned conjugates of every tag; the sampled cone dominates.
* ``cli-dynamics``: ``classify``, ``verify`` and ``simulate`` through
  ``hqds3.cli.main`` on seeded input files; the integrator dominates.

Every op builds a fresh ``Algebra`` (sweeps) or reloads its file (CLI), so
the identity-keyed ``lru_cache``s in ``hqds3.classify`` never serve a result
from an earlier op.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import zlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import hqds3
import hqds3.cli  # not imported by the package itself
from hqds3 import catalog
from hqds3.tolerances import TAU_CERT

# the package attribute hqds3.classify is the function, not the submodule
DEFINITE_TAGS = sys.modules["hqds3.classify"].DEFINITE_TAGS
TAGS = ("A1", "A2", "A3", "A4")
# rounds of the input pool per second of --seconds.  A round is one input of
# each tag (sweep-recipe), of each slice (sweep-cone) or one file per tag plus
# a random one (cli-dynamics).  On a 2-core x86 VM at rest the run's passes
# (see run.py) take about half of --seconds on sweep-recipe, and about 1.5x
# and 1.2x of it on sweep-cone and cli-dynamics.  Those two pools are larger
# because their per-input costs are heavy-tailed (a few inputs cost 0.5-1.3
# s), so the mean of a smaller pool moves with the seed.
ROUNDS_PER_SECOND = {"sweep-recipe": 15.0, "sweep-cone": 1.6, "cli-dynamics": 0.2}
# the ill-conditioned slice draws cond(m) log-uniformly from this range;
# catalog.conjugated_canonical never exceeds 16
ILL_COND_RANGE = (1e2, 1e4)
# the first-integral drift simulate may show
DRIFT_LIMIT = 1e-8


@dataclass
class Item:
    """One generated input and the truth the oracle checks against."""

    kind: str           # slice label, e.g. 'A1', 'random', 'ill-A3'
    truth: str          # 'A1'..'A4' or 'NotInFamily'
    tensor: np.ndarray  # structure constants handed to the program
    path: str = ""      # CLI input file (cli-dynamics only)
    x0: str = ""        # simulate start point, comma-separated


@dataclass
class Outcome:
    """What one op did and what the oracle found."""

    stages: dict                 # stage name -> seconds
    verdict: tuple               # tags and methods, digested per run
    digest: str                  # verdict plus certificates / report bytes
    problems: list = field(default_factory=list)  # non-empty: the op failed
    wrong: bool = False          # the op returned an answer that is false
    bytes_out: int = 0


# ---------------------------------------------------------------------------
# input generation (set-up only)


def _ill_conditioned(tag: str, rng: np.random.Generator, cond: float) -> np.ndarray:
    """Canonical table conjugated by q1 diag(s) q2 with cond exactly ``cond``;
    singular values are centred on 1 so the constants stay of moderate size."""
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    sv = cond ** (np.array([0.0, rng.uniform(), 1.0]) - 0.5)
    m = q1 @ np.diag(sv) @ q2
    return hqds3.change_of_basis(hqds3.canonical_algebra(tag), m).c


def _sweep_recipe_items(rng, n):
    return [
        Item(tag, tag, catalog.conjugated_canonical(tag, rng)[0].c)
        for _ in range(n)
        for tag in ("A2", "A3", "A4")
    ]


def _sweep_cone_items(rng, n):
    lo, hi = np.log10(ILL_COND_RANGE[0]), np.log10(ILL_COND_RANGE[1])
    items = []
    for i in range(n):
        items.append(Item("A1", "A1", catalog.conjugated_canonical("A1", rng)[0].c))
        items.append(Item("random", "NotInFamily", catalog.random_symmetric_algebra(rng).c))
        # stratified log-uniform draw: one condition number per 1/n of the range
        cond = 10.0 ** (lo + (hi - lo) * (i + rng.uniform()) / n)
        tag = TAGS[i % 4]
        items.append(Item(f"ill-{tag}", tag, _ill_conditioned(tag, rng, cond)))
    return items


def _cli_items(rng, n, workdir: str):
    items = []
    for g in range(n):
        for tag in TAGS + ("random",):
            if tag == "random":
                alg, truth = catalog.random_symmetric_algebra(rng), "NotInFamily"
            else:
                alg, truth = catalog.conjugated_canonical(tag, rng)[0], tag
            path = os.path.join(workdir, f"g{g}-{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"structure_constants": alg.c.tolist(), "label": f"{tag} #{g}"}, fh)
            x0 = rng.standard_normal(3)
            x0 /= max(1.0, float(np.linalg.norm(x0)))
            items.append(Item(tag, truth, alg.c, path, ",".join(repr(float(v)) for v in x0)))
    return items


def warmup_item(workload: str, workdir: str) -> Item:
    """The set-up's warm-up input: the canonical A1 table, unconjugated, the
    same for every seed, so the set-up does the same work on every seed."""
    c = catalog.canonical_algebra("A1").c
    if workload != "cli-dynamics":
        return Item("warm-up", "A1", c)
    path = os.path.join(workdir, "warm-up-A1.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"structure_constants": c.tolist(), "label": "A1 warm-up"}, fh)
    return Item("warm-up", "A1", c, path, "0.3,0.2,0.1")


def make_items(workload: str, seed: int, seconds: float, workdir: str) -> list[Item]:
    """The input pool: ``seconds`` sets its size, ``seed`` its contents."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND[workload]))
    if workload == "sweep-recipe":
        return _sweep_recipe_items(rng, rounds)
    if workload == "sweep-cone":
        return _sweep_cone_items(rng, rounds)
    return _cli_items(rng, rounds, workdir)


# ---------------------------------------------------------------------------
# oracle helpers (numpy only, so checks add no calls to traced layers)


def cert_residual(c: np.ndarray, table: np.ndarray, m) -> float:
    """Entrywise distance of the tensor rewritten in basis m from ``table``."""
    m = np.asarray(m, dtype=float)
    try:
        t = np.einsum("ai,bj,abk->ijk", m, m, c)
        got = np.linalg.solve(m, t.reshape(9, 3).T).T.reshape(3, 3, 3)
    except np.linalg.LinAlgError:
        return float("inf")
    return float(np.max(np.abs(got - table)))


def _sha(*parts) -> str:
    sha = hashlib.sha256()
    for p in parts:
        sha.update(p if isinstance(p, bytes) else repr(p).encode())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# ops


class SweepOp:
    """Build an Algebra from the raw tensor, classify it by both routes and
    cross-check the tags (the unit of work of acceptance criterion 9)."""

    stage_names = ("invariant", "derivation")

    def __init__(self):
        self.tables = {t: catalog.canonical_algebra(t).c for t in TAGS}

    def __call__(self, item: Item) -> Outcome:
        # package attributes are read per call, so the traced run's
        # wrappers are the ones called
        t0 = perf_counter()
        alg = hqds3.Algebra(item.tensor)
        inv = hqds3.classify(alg)
        t1 = perf_counter()
        via = hqds3.classify_via_derivation(alg)
        t2 = perf_counter()
        return self.check(item, inv, via, {"invariant": t1 - t0, "derivation": t2 - t1})

    def check(self, item: Item, inv, via, stages) -> Outcome:
        problems, wrong = [], False
        if inv.tag != item.truth:
            problems.append(f"invariant route says {inv.tag}, input is {item.truth}")
        for route, res in (("invariant", inv), ("derivation", via)):
            if res.tag in DEFINITE_TAGS and res.tag != item.truth:
                wrong = True
                if route == "derivation":
                    problems.append(f"derivation route says {res.tag}, input is {item.truth}")
            if res.tag in self.tables:
                r = cert_residual(item.tensor, self.tables[res.tag], res.certificate)
                if not r <= TAU_CERT:
                    wrong = True
                    problems.append(f"{route} certificate residual {r:.2e} > TAU_CERT")
        if inv.tag in DEFINITE_TAGS and via.tag in DEFINITE_TAGS and inv.tag != via.tag:
            wrong = True
            problems.append(f"routes disagree: {inv.tag} vs {via.tag}")
        if item.truth == "NotInFamily" and inv.tag == "NotInFamily" and via.method != "no-ssnd-found":
            wrong = True
            problems.append("SSND found on a NotInFamily input")
        verdict = (item.kind, inv.tag, inv.method, via.tag, via.method)
        certs = [
            np.ascontiguousarray(r.certificate).tobytes() if r.certificate is not None else b""
            for r in (inv, via)
        ]
        return Outcome(stages, verdict, _sha(verdict, *certs), problems, wrong)


class CliOp:
    """``classify``, ``verify`` and ``simulate`` on one input file through
    ``hqds3.cli.main`` in process, with stdout and stderr captured."""

    stage_names = ("classify", "verify", "simulate")

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        main = hqds3.cli.main
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    def __call__(self, item: Item) -> Outcome:
        # classify and verify run with the CLI's default --seed, as users do
        runs = {
            "classify": self._run(["classify", item.path]),
            "verify": self._run(["verify", item.path]),
            "simulate": self._run(["simulate", item.path, f"--x0={item.x0}", "--t-end", "1"]),
        }
        return self.check(item, runs)

    def check(self, item: Item, runs) -> Outcome:
        problems, wrong = [], False
        stages = {name: r[0] for name, r in runs.items()}

        def expect_exit(cmd, rc, want):
            if rc != want:
                problems.append(f"{cmd} exit code {rc}, expected {want}")

        _, rc, out, _ = runs["classify"]
        expect_exit("classify", rc, 0 if item.truth in TAGS else 2)
        tag = via = "?"
        try:
            report = json.loads(out)
            tag = report["classification"]["tag"]
            via = report["via_derivation"]["tag"]
            warnings = report["warnings"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"classify report does not parse: {exc!r}")
            wrong = wrong or rc in (0, 2, 3)  # a verdict code with no report
        else:
            if tag != item.truth:
                problems.append(f"classify says {tag}, input is {item.truth}")
            if warnings:
                problems.append(f"classify warnings: {warnings}")
                wrong = True
            wrong = wrong or any(t in DEFINITE_TAGS and t != item.truth for t in (tag, via))

        _, rc, out, _ = runs["verify"]
        lines = out.splitlines()
        expect_exit("verify", rc, 0)
        problems += [f"verify: {ln}" for ln in lines if ln.startswith("FAIL")]
        statuses = tuple(ln.split()[0] for ln in lines[1:] if ln.strip())
        vtag = lines[0].split()[1] if lines and lines[0].startswith("class: ") else "?"
        if vtag != item.truth:
            problems.append(f"verify says class {vtag}, input is {item.truth}")
            wrong = wrong or vtag in DEFINITE_TAGS

        _, rc, out, err = runs["simulate"]
        expect_exit("simulate", rc, 0)
        n_rows = _csv_rows(out)
        drift = _drift(err)
        if n_rows is None or drift is None:
            problems.append("simulate output does not parse")
            wrong = wrong or rc == 0
        elif not drift <= DRIFT_LIMIT:
            problems.append(f"simulate first-integral drift {drift:.2e} > {DRIFT_LIMIT}")

        verdict = (item.kind, tag, via, statuses, n_rows)
        outs = [r[2].encode() for r in runs.values()]
        return Outcome(
            stages,
            verdict,
            _sha(verdict, *outs),
            problems,
            wrong=wrong,
            bytes_out=sum(len(o) for o in outs),
        )


def _csv_rows(text: str) -> int | None:
    """Data rows of simulate's CSV, or None when a row is malformed."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("t,"):
        return None
    try:
        for ln in lines[1:]:
            float(ln.split(",", 1)[0])
    except ValueError:
        return None
    return len(lines) - 1


def _drift(summary: str) -> float | None:
    """The 'max drift' figure from simulate's stderr summary line."""
    marker = "max drift "
    at = summary.rfind(marker)
    if at < 0:
        return None
    try:
        return float(summary[at + len(marker):].split()[0])
    except (ValueError, IndexError):
        return None


def make_op(workload: str):
    return CliOp() if workload == "cli-dynamics" else SweepOp()
