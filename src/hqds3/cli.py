"""Command-line front end.

Subcommands: classify | simulate | verify | spectrum | derivations.
Input is a JSON document {"structure_constants": [[[...]]], "label": "..."}
holding the 3x3x3 tensor c[i][j][k] (row-major, the product of basis vectors
i and j read off along k).  Asymmetric tensors are rejected, never silently
symmetrized.  Reports go to standard output as JSON; diagnostics to stderr.

Exit codes: 0 success (classify: tag A1..A4), 1 parse/IO/flag error,
2 NotInFamily or NullAlgebra, 3 cross-path disagreement, 4 verify failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Algebra, NonIsolatedIdempotents, idempotents, is_solvable
from .algebra import left_mult_matrix, nilpotent_cone, square_map
from .catalog import CANONICAL_TAGS
from .classify import classify, classify_via_derivation, fingerprint
from .derivations import (
    ALWAYS_ZERO_LETTERS,
    MASK_LINES,
    SingularSpectrum,
    SpectralReport,
    admissible_mask,
    arrangement_lines,
    derivation_space,
    find_real_ssnd,
    normalize_spectrum,
)
from .dynamics import (
    CellId,
    affine_flow,
    affine_flow_applies,
    cells,
    curve_geometry,
    integrate,
    integrate_batch,
    linear_first_integrals,
    ray_solution,
    save_csv,
    trajectory_to_csv,
)
from .linalg import nullspace
from .tolerances import TAU_RES


class _Parser(argparse.ArgumentParser):
    """argparse, but every usage error exits with code 1, and every token
    that starts with '-' and then a digit or '.digit' is a value, such as
    --x0 -0.5,1,0 or --mu -2.5e-1, never an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):  # noqa: D401
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc: dict) -> None:
    # json calls the hook only on what it cannot write itself: arrays and
    # numpy scalars other than np.float64, which is a float
    json.dump(
        doc,
        sys.stdout,
        indent=2,
        allow_nan=False,
        default=lambda o: o.tolist() if isinstance(o, np.ndarray) else o.item(),
    )
    sys.stdout.write("\n")


def _require_numbers(raw, where: str = "") -> None:
    """Raise ValueError at the first leaf of nested lists that is not a JSON
    number: numpy would read the string "1" and true as 1.0."""
    if isinstance(raw, list):
        for i, entry in enumerate(raw, start=1):
            _require_numbers(entry, f"{where}[{i}]")
    elif isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"structure constant c{where} must be a JSON number, got {json.dumps(raw)}")


def load_algebra(path: str) -> tuple[Algebra, str | None]:
    """Parse an input document; raises ValueError on bad input.

    Only the JSON layout is checked here, and that every entry is a JSON
    number; ``Algebra`` validates the tensor.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "structure_constants" not in doc:
        raise ValueError("document must be an object with 'structure_constants'")
    raw = doc["structure_constants"]
    _require_numbers(raw)
    try:
        c = np.array(raw, dtype=float)
    except OverflowError as exc:  # an integer beyond float range, as 1e400 reads inf
        raise ValueError(f"structure constants must be finite: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"structure_constants must be numeric: {exc}") from exc
    return Algebra(c), doc.get("label")


# ---------------------------------------------------------------------------
# classify / derivations


def _derivation_report(alg: Algebra, ssnd: SpectralReport | None) -> dict:
    """The derivation space and the report of the SSND found in it, if any."""
    space = derivation_space(alg)
    found: dict = {"present": ssnd is not None}
    if ssnd is not None:
        found["matrix"] = ssnd.matrix
        found["spectrum"] = sorted(float(v.real) for v in ssnd.eigenvalues)
    return {"dim": len(space), "basis": space, "ssnd": found}


def cmd_classify(args, alg: Algebra, label: str | None) -> int:
    fp = fingerprint(alg)
    res = classify(alg)
    via = classify_via_derivation(alg)
    der = _derivation_report(alg, via.ssnd)

    warnings = []
    disagree = res.is_definite and via.is_definite and res.tag != via.tag
    if disagree:
        warnings.append(
            f"cross-path disagreement: invariant route says {res.tag}, "
            f"derivation route says {via.tag}"
        )
    if res.tag == "NotInFamily" and der["ssnd"]["present"]:
        warnings.append(
            "invertible real-diagonalizable derivation found on a NotInFamily "
            "input; the four tables do not cover every such algebra (spectrum "
            "families 2 and 5 hold two more), so either this is one of those "
            "or a route missed its class"
        )

    classification = {"tag": res.tag, "residual": res.residual, "method": res.method}
    if res.tag in CANONICAL_TAGS:
        classification["basis_change"] = res.certificate

    report = {
        "label": label,
        "fingerprint": vars(fp).copy(),
        "classification": classification,
        "via_derivation": {"tag": via.tag, "method": via.method},
        "derivation_space": der,
        "first_integrals": linear_first_integrals(alg),
        "warnings": warnings,
    }
    _emit(report)
    if disagree:
        return 3
    return 0 if res.tag in CANONICAL_TAGS else 2


def cmd_derivations(args, alg: Algebra, label: str | None) -> int:
    report = {"label": label}
    report.update(_derivation_report(alg, find_real_ssnd(alg)))
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# simulate


def canonical_cells(tag: str, certificate: np.ndarray, states: np.ndarray) -> list[CellId]:
    """The partition cell of each row of ``states`` for an algebra of canonical
    class ``tag``.  States stay in the input frame; cells are decided in the
    canonical one, reached through the inverse of the classification
    certificate.  ``simulate`` and verify's cell check both decide cells here.
    """
    return cells(tag, states @ np.linalg.inv(certificate).T)


def _parse_vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    x = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(x)):
        raise ValueError(f"expected three finite numbers, got {text!r}")
    return x


def _require_finite_positive(flag: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {value!r}")


def cmd_simulate(args, alg: Algebra, label: str | None) -> int:
    try:
        x0 = _parse_vec3(args.x0)
        _require_finite_positive("--t-end", args.t_end)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    res = classify(alg)
    traj = integrate(alg, x0, args.t_end)
    cells = None
    if res.tag in CANONICAL_TAGS:
        cells = canonical_cells(res.tag, res.certificate, traj.states)

    ints = linear_first_integrals(alg)
    drift = 0.0
    if ints.shape[0]:
        vals = traj.states @ ints.T
        drift = float(np.max(np.abs(vals - vals[0])))

    summary = (
        f"terminated: {traj.terminated} at t={traj.times[-1]:.9g} "
        f"({len(traj.times)} samples); "
        f"steps: {traj.accepted_steps}; "
        f"first integrals: {ints.shape[0]}, max drift {drift:.3e}"
    )
    if args.out:
        try:
            save_csv(alg, traj, cells, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(summary)
    else:
        sys.stdout.write(trajectory_to_csv(alg, traj, cells))
        print(summary, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify


# Each check takes (alg, rng, res), with rng a fresh default_rng(0) per check
# and res the ClassificationResult.  It returns its (status, detail) at once
# when it needs no trajectory, and an _Integrate request otherwise;
# ``cmd_verify`` runs every distinct start of every request in one
# ``integrate_batch`` call.


@dataclass(frozen=True)
class _Integrate:
    """Integrate each (x0, t_end) in ``starts``; ``judge`` maps their
    trajectories, in the same order, to (status, detail)."""

    starts: list
    judge: Callable


def _unit_ball_start(rng):
    x0 = rng.standard_normal(3)
    return x0 / max(1.0, float(np.linalg.norm(x0)))


def _check_steady_states(alg, rng, res):
    norm, _ = alg.normalized()
    cone = nilpotent_cone(alg)
    if cone.samples.shape[0]:
        on_res = float(np.max(np.abs(square_map(norm, cone.samples))))
    else:
        on_res = 0.0
    if on_res > TAU_RES:
        return "FAIL", f"point on an exact cone line or plane has residual {on_res:.2e}"
    if cone.kind == "whole-space":
        return "PASS", f"cone samples steady (residual {on_res:.2e}); cone is everything"
    off = rng.standard_normal((50, 3))
    off /= np.linalg.norm(off, axis=1, keepdims=True)
    off_res = np.max(np.abs(square_map(norm, off)), axis=1)
    clear = off_res[off_res > 10.0 * TAU_RES]
    if clear.shape[0] < 40:
        return "FAIL", "random sphere points look steady too often"
    return "PASS", f"cone residual {on_res:.2e}; off-cone points clearly non-steady"


def _check_first_integrals(alg, rng, res):
    ints = linear_first_integrals(alg)
    if ints.shape[0] == 0:
        return "SKIP", "no linear first integrals (A*A spans everything)"

    def judge(trajs):
        # every Taylor coefficient past the state lies in A*A, so the only
        # drift is roundoff, which grows with the state: judge it relative to
        # the trajectory's largest entry (trajectories may run to the blow-up
        # guard)
        worst = 0.0
        for traj in trajs:
            vals = traj.states @ ints.T
            size = max(1.0, float(np.abs(traj.states).max()))
            worst = max(worst, float(np.abs(vals - vals[0]).max()) / size)
        if worst < 1e-8:
            return "PASS", f"{ints.shape[0]} integrals, max relative drift {worst:.2e}"
        return "FAIL", f"first-integral relative drift {worst:.2e} exceeds 1e-8"

    return _Integrate([(_unit_ball_start(rng), 1.0) for _ in range(10)], judge)


def _check_cell_invariance(alg, rng, res):
    if res.tag not in CANONICAL_TAGS:
        return "SKIP", "no cell partition without a canonical class"

    def judge(trajs):
        # one inverse of the certificate for the states of every trajectory
        cells = canonical_cells(res.tag, res.certificate, np.vstack([traj.states for traj in trajs]))
        start = 0
        for traj in trajs:
            own = cells[start:start + len(traj.states)]
            start += len(traj.states)
            if not all(c.same_cell(own[0]) for c in own):
                return "FAIL", "trajectory changed cell"
        return "PASS", "cell id constant on all sampled trajectories"

    return _Integrate([(_unit_ball_start(rng), 1.0) for _ in range(5)], judge)


def _check_curvature(alg, rng, res):
    if res.tag not in ("A2", "A3", "A4"):
        return "SKIP", "straight-line claim applies to classes A2-A4"

    def judge(trajs):
        _, kappa, _ = curve_geometry(alg, np.vstack([traj.states for traj in trajs]))
        worst = float(np.max(kappa[~np.isnan(kappa)], initial=0.0))
        if worst < 1e-9:
            return "PASS", f"max curvature {worst:.2e}"
        return "FAIL", f"curvature {worst:.2e} exceeds 1e-9"

    return _Integrate([(rng.standard_normal(3), 1.0) for _ in range(5)], judge)


def _check_torsion(alg, rng, res):
    if res.tag not in CANONICAL_TAGS:
        return "SKIP", "torsion-free claim needs a classified algebra"

    def judge(trajs):
        _, _, tau = curve_geometry(alg, np.vstack([traj.states for traj in trajs]))
        defined = np.abs(tau[~np.isnan(tau)])
        worst = float(np.max(defined, initial=0.0))
        if worst < 1e-6:
            return "PASS", f"|torsion| <= {worst:.2e} on {len(defined)} defined samples"
        return "FAIL", f"torsion {worst:.2e} exceeds 1e-6"

    return _Integrate([(_unit_ball_start(rng), 1.0) for _ in range(5)], judge)


def _check_affine_form(alg, rng, res):
    if not affine_flow_applies(alg):
        return "SKIP", "A*A not inside the annihilator; solutions are not affine"
    starts = [(rng.standard_normal(3), 2.0) for _ in range(5)]

    def judge(trajs):
        worst = 0.0
        for (x0, _), traj in zip(starts, trajs):
            expect = affine_flow(alg, x0, traj.times)
            worst = max(worst, float(np.max(np.abs(traj.states - expect))))
        # the flow is integrated in the input frame, whose deviations grow
        # with the table's scale
        if worst < 1e-9 * max(1.0, alg.scale):
            return "PASS", f"affine closed form matched, max deviation {worst:.2e}"
        return "FAIL", f"deviation from affine form {worst:.2e}"

    return _Integrate(starts, judge)


def _transverse_eigenvalue(alg, v):
    """Largest real part mu of the eigenvalues of 2L_v off the ray direction:
    near the ray solution v/(1-t), roundoff grows like (1-t)^(-mu)."""
    q = nullspace(v[None, :])
    return float(np.max(np.linalg.eigvals(q @ (2.0 * left_mult_matrix(alg, v)) @ q.T).real))


def _ray_horizon(mu):
    """The end time t* <= 0.9 of a ray check: the largest t at which the
    integrator's 1e-10 roundoff, amplified by (1-t)^(-mu), stays at most
    1e-7, so that a 1e-6 mismatch is the check's and not roundoff's.  For
    mu <= 3 this is 0.9."""
    return 0.9 if mu <= 3.0 else 1.0 - 1000.0 ** (-1.0 / mu)


def _check_ray_solutions(alg, rng, res):
    try:
        ids = idempotents(alg)
    except NonIsolatedIdempotents as exc:
        return "SKIP", str(exc)
    if not ids:
        if is_solvable(alg):
            return "SKIP", "solvable: no nonzero idempotent exists"
        kind = nilpotent_cone(alg).kind
        if kind == "origin-only":  # Kaplan-Yorke: a nonzero idempotent or a nonzero v*v = 0
            return "FAIL", "no real idempotent and an origin-only cone contradict Kaplan-Yorke"
        return "SKIP", f"no real idempotent; the cone is {kind}"
    for v in ids:
        if not np.isfinite(v).all():
            return "SKIP", f"idempotent {tuple(v.tolist())} lies beyond the float range"
    rays = ids[:3]
    mus = [_transverse_eigenvalue(alg, v) for v in rays]
    starts = [(v, _ray_horizon(mu)) for v, mu in zip(rays, mus)]

    def judge(trajs):
        worst = 0.0
        for v, traj in zip(rays, trajs):
            expect = ray_solution(v, traj.times)
            denom = np.maximum(1.0, np.abs(expect))
            worst = max(worst, float(np.max(np.abs(traj.states - expect) / denom)))
        horizon = (
            f"largest transverse eigenvalue of 2L_v mu = {max(mus):.1f}, "
            f"shortest horizon t* = {min(t for _, t in starts):.2f}"
        )
        if worst < 1e-6:
            return "PASS", f"{len(rays)} idempotent rays matched, rel err {worst:.2e}; {horizon}"
        return "FAIL", f"ray solution mismatch {worst:.2e}; {horizon}"

    return _Integrate(starts, judge)


_VERIFY_CHECKS = {
    "affine-form": _check_affine_form,
    "cell-invariance": _check_cell_invariance,
    "curvature": _check_curvature,
    "first-integral-drift": _check_first_integrals,
    "ray-solutions": _check_ray_solutions,
    "steady-states": _check_steady_states,
    "torsion": _check_torsion,
}


def cmd_verify(args, alg: Algebra, label: str | None) -> int:
    res = classify(alg)
    print(f"class: {res.tag}" + (f"  label: {label}" if label else ""))
    plans = {
        name: check(alg, np.random.default_rng(0), res)
        for name, check in sorted(_VERIFY_CHECKS.items())
    }
    # every check draws from the same fresh generator, so several draw the
    # same starts
    distinct = {}
    for plan in plans.values():
        for x0, t_end in plan.starts if isinstance(plan, _Integrate) else ():
            distinct.setdefault((x0.tobytes(), t_end), (x0, t_end))
    trajs = integrate_batch(
        alg,
        np.array([x0 for x0, _ in distinct.values()]).reshape(-1, 3),
        [t_end for _, t_end in distinct.values()],
    )
    by_start = dict(zip(distinct, trajs))
    failed = False
    for name, plan in plans.items():
        if isinstance(plan, _Integrate):
            plan = plan.judge([by_start[x0.tobytes(), t_end] for x0, t_end in plan.starts])
        status, detail = plan
        failed = failed or status == "FAIL"
        print(f"{status:4s} {name}: {detail}")
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    for flag, value in (("--lambda", args.lam), ("--mu", args.mu)):
        if not np.isfinite(value):
            print(f"error: {flag} must be finite, got {value!r}", file=sys.stderr)
            return 1
    try:
        allowed = admissible_mask(args.lam, args.mu)
    except SingularSpectrum as exc:
        print(f"error: no invertible diagonal derivation: {exc}", file=sys.stderr)
        return 1
    case = normalize_spectrum(np.array([1.0, args.lam, args.mu]))
    report = {
        "lambda": args.lam,
        "mu": args.mu,
        "mask": {
            "allowed": list(allowed),
            "forbidden": sorted(set(MASK_LINES).difference(allowed)),
            "always_zero": list(ALWAYS_ZERO_LETTERS),
        },
        "arrangement_lines": arrangement_lines(args.lam, args.mu),
        "representative": {
            "family": case.family,
            "triple": case.representative,
            "scale": case.scale,
            "permutation": list(case.permutation),
        },
    }
    _emit(report)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="hqds3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="classify an algebra and print the report")
    p.add_argument("input", help="JSON document with structure_constants")

    p = sub.add_parser("simulate", help="integrate x' = x*x and export CSV")
    p.add_argument("input")
    p.add_argument("--x0", required=True, help="initial state, e.g. 1,0.5,0")
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    p = sub.add_parser("verify", help="run the qualitative-dictionary battery")
    p.add_argument("input")

    p = sub.add_parser("spectrum", help="constant mask for diag(1, lambda, mu)")
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--mu", type=float, required=True)

    p = sub.add_parser("derivations", help="derivation space and SSND search")
    p.add_argument("input")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "spectrum":
        return cmd_spectrum(args)
    # every other command reads one input file, loaded here
    try:
        alg, label = load_algebra(args.input)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # looked up per call, not bound into the cached parser, so that a wrapper
    # installed on a command after the first call still sees it
    command = {
        "classify": cmd_classify,
        "derivations": cmd_derivations,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
    }[args.command]
    return command(args, alg, label)


if __name__ == "__main__":
    sys.exit(main())
