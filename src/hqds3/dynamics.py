"""Integration and geometric diagnostics of the quadratic system x' = x * x.

The right-hand side is the square map of an algebra, so solution features
mirror algebraic ones: square-zero vectors are steady states, idempotents
ride blow-up rays, covectors vanishing on A*A are linear first integrals,
and when A*A lies in the annihilator every solution is an affine line.

The integrator is a classic RK4 with step doubling, whose full step and
first half step share their first stage.  It runs an ensemble: every row
of an (n, 3) array of starts keeps its own time, step size and stop, and
``verify`` integrates all of its starts in one ``integrate_batch`` call;
``integrate`` is the one-row case.  Derivatives for curvature and torsion
come from differentiating the field analytically rather than from finite
differences, and are computed for all samples of all rows in one pass over
their state array; ``curvature_torsion`` is the one-sample case of the
same code.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, ideal_structure, square_ideal, square_map
from .linalg import orthonormal_complement, unit
from .tolerances import BLOWUP_GUARD, INT_H_MIN, INT_RTOL, TAU_GEO


class DegenerateVelocity(ValueError):
    """Curvature is requested at a point where the velocity vanishes."""


class PreconditionFailed(RuntimeError):
    """A closed-form solution family was requested outside its hypothesis."""


# ---------------------------------------------------------------------------
# analytic derivatives and curve geometry


def _derivatives(alg: Algebra, xs: np.ndarray) -> np.ndarray:
    """x', x'', x''' at every row of the (n, 3) stack xs, as shape (3, n, 3)."""

    def prod(u, v):
        return np.einsum("ni,nj,ijk->nk", u, v, alg.c)

    d1 = prod(xs, xs)
    d2 = 2.0 * prod(xs, d1)
    d3 = 2.0 * (prod(d1, d1) + prod(xs, d2))
    return np.stack([d1, d2, d3])


def _geometry(alg: Algebra, xs: np.ndarray):
    """(speed, curvature, torsion, curvature_defined, torsion_defined) at
    every row of the (n, 3) stack xs; curvature and torsion are NaN where
    undefined.

    Curvature is undefined where |x'| <= TAU_GEO (steady states).  Torsion is
    also undefined where the osculating plane degenerates: |x' x x''| <=
    TAU_GEO relative to its roundoff scale |x'| * |c| |x| |x'|, since where
    x'' = 0 exactly (A*A in Ann) the computed x'' is rounding error and the
    torsion noise.
    """
    d = _derivatives(alg, xs)
    d1, d2 = d[0], d[1]
    speed = np.linalg.norm(d1, axis=1)
    ncr = np.linalg.norm(np.cross(d1, d2), axis=1)
    c_def = speed > TAU_GEO
    roundoff = alg.scale * np.linalg.norm(xs, axis=1) * speed ** 2
    t_def = c_def & (ncr > TAU_GEO * np.maximum(1.0, roundoff))
    curvature = np.full(len(xs), np.nan)
    curvature[c_def] = ncr[c_def] / speed[c_def] ** 3
    torsion = np.full(len(xs), np.nan)
    frames = d.transpose(1, 0, 2)[t_def]  # rows x', x'', x''' of each sample
    torsion[t_def] = np.linalg.det(frames) / ncr[t_def] ** 2
    return speed, curvature, torsion, c_def, t_def


def analytic_derivatives(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """Rows are x', x'', x''' of the solution through x, at x.

    Differentiating x' = x * x along the flow:
        x''  = 2 x * x'
        x''' = 2 (x' * x' + x * x'')
    """
    return _derivatives(alg, np.asarray(x, dtype=float)[None, :])[:, 0]


def curvature_torsion(alg: Algebra, x: np.ndarray) -> tuple[float, float | None]:
    """(curvature, torsion) of the trajectory arc through x.

    The one-sample case of the geometry ``integrate_batch`` computes for
    every sample.  Raises DegenerateVelocity on steady states; torsion is None
    when the osculating plane degenerates (both guards: ``_geometry``).
    """
    _, kappa, tau, c_def, t_def = _geometry(alg, np.asarray(x, dtype=float)[None, :])
    if not c_def[0]:
        raise DegenerateVelocity("velocity vanishes; curvature undefined")
    return float(kappa[0]), float(tau[0]) if t_def[0] else None


# ---------------------------------------------------------------------------
# closed-form solution families


def steady_state_residual(alg: Algebra, v: np.ndarray) -> float:
    return float(np.max(np.abs(square_map(alg, v))))


def ray_solution(v: np.ndarray, ts: np.ndarray, alpha0: float = 1.0) -> np.ndarray:
    """Blow-up ray alpha0/(1 - alpha0 t) * v carried by an idempotent v."""
    ts = np.asarray(ts, dtype=float)
    return (alpha0 / (1.0 - alpha0 * ts))[:, None] * np.asarray(v, dtype=float)[None, :]


def affine_flow_applies(alg: Algebra) -> bool:
    """Whether A*A lies in the annihilator, so every solution is affine."""
    _, sq, sq_in_ann = ideal_structure(alg)
    return sq.dim == 0 or sq_in_ann


def affine_flow(alg: Algebra, x0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """x0 + t * (x0 * x0), valid exactly when A*A lies in the annihilator."""
    if not affine_flow_applies(alg):
        raise PreconditionFailed("A*A is not contained in the annihilator")
    x0 = np.asarray(x0, dtype=float)
    ts = np.asarray(ts, dtype=float)
    return x0[None, :] + ts[:, None] * square_map(alg, x0)[None, :]


def linear_first_integrals(alg: Algebra) -> np.ndarray:
    """Orthonormal rows spanning {L : L(x * x) = 0 for all x}.

    Each row is a covector whose pairing with the state is constant along
    every solution; they exist exactly when A*A is a proper subspace, and
    they span its orthogonal complement.
    """
    return orthonormal_complement(square_ideal(alg).basis)


# ---------------------------------------------------------------------------
# partition cells


@dataclass(frozen=True)
class CellId:
    """One cell of the canonical-class partition of the ground space.

    ``params`` pins the individual cell inside its labeled family (the
    point itself for singleton cells, a side or a direction otherwise).
    """

    tag: str
    label: str
    params: tuple

    def same_cell(self, other: "CellId", tol: float = 1e-6) -> bool:
        if self.tag != other.tag or self.label != other.label:
            return False
        if len(self.params) != len(other.params):
            return False
        return all(abs(a - b) <= tol for a, b in zip(self.params, other.params))

    def compact(self) -> str:
        bits = ":".join(f"{p:.6g}" for p in self.params)
        return f"{self.label}:{bits}" if bits else self.label


def cell_of(tag: str, x: np.ndarray, tol: float = TAU_GEO) -> CellId:
    """Assign a point to its partition cell for a canonical class.

    Lower-dimensional cells win ties: points within ``tol`` of an axis or
    coordinate plane belong to it.  Signs and directions parameterize the
    open half-plane / half-space cells.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = (float(v) for v in x)

    if tag == "A1":
        if abs(x1) <= tol and abs(x3) <= tol:
            return CellId(tag, "axis-x2", (x2,))
        if abs(x1) <= tol and abs(x2) <= tol:
            return CellId(tag, "axis-x3", (x3,))
        if abs(x2) <= tol:
            return CellId(tag, "halfplane-x1ox3", (float(np.sign(x1)),))
        return CellId(tag, "halfspace", (float(np.sign(x2)),))
    if tag == "A2":
        if abs(x3) <= tol:
            return CellId(tag, "plane-x1ox2", (x1, x2))
        d = unit(np.array([x1, x3]))
        return CellId(tag, "halfplane", (float(d[0]), float(d[1])))
    if tag == "A3":
        if abs(x2) <= tol:
            return CellId(tag, "plane-x1ox3", (x1, x3))
        if abs(x1) <= tol:
            return CellId(tag, "plane-x2ox3", (x2, x3))
        d = unit(np.array([x1, x2]))
        return CellId(tag, "halfplane", (float(d[0]), float(d[1])))
    if tag == "A4":
        if abs(x1) <= tol and abs(x2) <= tol:
            return CellId(tag, "axis-x3", (x3,))
        d = unit(np.array([x1, x2]))
        return CellId(tag, "halfplane", (float(d[0]), float(d[1])))
    raise ValueError(f"cells are defined for canonical classes only, got {tag!r}")


# ---------------------------------------------------------------------------
# integration


@dataclass
class IntegratorConfig:
    h0: float = 1e-3
    rtol: float = INT_RTOL
    h_min: float = INT_H_MIN
    blowup: float = BLOWUP_GUARD
    max_steps: int = 200000


@dataclass
class Trajectory:
    times: np.ndarray              # (n,)
    states: np.ndarray             # (n, 3)
    terminated: str                # t_end_reached | blowup_guard | step_underflow
    speed: np.ndarray              # (n,)
    curvature: np.ndarray          # (n,), NaN where undefined
    torsion: np.ndarray            # (n,), NaN where undefined
    curvature_defined: np.ndarray  # (n,) bool
    torsion_defined: np.ndarray    # (n,) bool
    accepted_steps: int            # n - 1: every accepted step adds a sample
    rejected_steps: int            # attempts halved for failing the tolerance
    cells: list | None = None      # list[CellId] when a cell frame was given

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate_batch(
    alg: Algebra,
    x0s,
    t_ends,
    config: IntegratorConfig | None = None,
    cell_tag: str | None = None,
    cell_certificate: np.ndarray | None = None,
) -> list[Trajectory]:
    """One trajectory per row of the (n, 3) starts ``x0s``, row i run from
    t = 0 to ``t_ends[i]`` (a scalar applies to every row).

    RK4 with step doubling: a full step is accepted when it agrees with two
    half steps to relative tolerance, and the halved result is kept.  The
    full step and the first half step start from the same point, so they
    share their first stage k1 = f(x), which is also kept across rejected
    attempts.  The stages evaluate the field as x . (x . C) with C the
    (3, 9) matrix form of the tensor.

    All rows step together, but each keeps its own time, step size,
    acceptance and stop (t_end reached, blow-up guard, step underflow);
    a row that stops leaves the active arrays.  No row's arithmetic reads
    another row, so a row agrees with its one-row run; the tests ask for
    agreement to roundoff, since how a stacked matrix product rounds is up
    to the numpy build.  Speed, curvature and torsion of every accepted
    sample of every row are computed in one pass once the last row stops.

    When ``cell_tag`` names a canonical class, every accepted sample is
    stamped with its partition cell, after mapping through the inverse of
    ``cell_certificate`` when one is supplied (states stay in the input
    frame; only the cell decision uses canonical coordinates).
    """
    config = config or IntegratorConfig()
    c_mat = alg.c.reshape(3, 9)

    # rows are kept as (m, 1, 3) stacks of row vectors and per-row scalars as
    # (m, 1, 1), so the field is two stacked products of one row each
    def field(y):
        return y @ (y @ c_mat).reshape(-1, 3, 3)

    def rk4(x, k1, h):
        half_h = 0.5 * h
        k2 = field(x + half_h * k1)
        k3 = field(x + half_h * k2)
        k4 = field(x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    x = np.array(x0s, dtype=float).reshape(-1, 1, 3)
    n = len(x)
    t_end = np.broadcast_to(np.asarray(t_ends, dtype=float), (n,)).reshape(n, 1, 1)
    terminated = np.full(n, "t_end_reached", dtype=object)
    attempts = np.zeros(n, dtype=int)
    # samples as (rows, times, states, accepted mask) per attempt; the
    # arrays are never written in place, so they are kept by reference
    log = [(np.arange(n), np.zeros((n, 1, 1)), x, np.ones((n, 1, 1), dtype=bool))]

    live = (0.0 < t_end).ravel()  # rows with nothing to integrate stop at their start
    rows, x, t_end = np.flatnonzero(live), x[live], t_end[live]
    t = np.zeros_like(t_end)
    h = np.minimum(config.h0, np.maximum(t_end, INT_H_MIN))
    k1 = field(x)
    steps = 0
    while len(rows):
        if steps >= config.max_steps:
            raise RuntimeError("integrator exceeded max_steps")
        steps += 1
        m = len(rows)
        h = np.minimum(h, t_end - t)
        # the full step and the first half step, stacked as one RK4 step
        hs = np.concatenate([h, 0.5 * h])
        both = rk4(np.concatenate([x, x]), np.concatenate([k1, k1]), hs)
        full, mid = both[:m], both[m:]
        half = rk4(mid, field(mid), hs[m:])
        size = np.abs(half).max(axis=2, keepdims=True)
        err = np.abs(full - half).max(axis=2, keepdims=True) / np.maximum(1.0, size)
        ok = err <= config.rtol
        t = np.where(ok, t + h, t)
        x = np.where(ok, half, x)
        k1 = np.where(ok, field(x), k1)
        log.append((rows, t, x, ok))
        h = h * np.where(ok, np.where(err < config.rtol / 32.0, 2.0, 1.0), 0.5)
        stop = np.where(ok, (size > config.blowup) | (t >= t_end), h < config.h_min)[:, 0, 0]
        if stop.any():
            ok, size = ok[:, 0, 0], size[:, 0, 0]
            terminated[rows[stop & ~ok]] = "step_underflow"
            terminated[rows[stop & ok & (size > config.blowup)]] = "blowup_guard"
            attempts[rows[stop]] = steps
            keep = ~stop
            rows, x, t, t_end, h, k1 = rows[keep], x[keep], t[keep], t_end[keep], h[keep], k1[keep]

    owner, times, states, accepted = (np.concatenate(part) for part in zip(*log))
    accepted = accepted.ravel()
    # a stable sort keeps each row's samples in the order they were taken
    order = np.argsort(owner[accepted], kind="stable")
    times = times.ravel()[accepted][order]
    states = states.reshape(-1, 3)[accepted][order]
    counts = np.bincount(owner[accepted], minlength=n)
    geometry = _geometry(alg, states)

    cells = None
    if cell_tag is not None:
        canonical = states
        if cell_certificate is not None:
            to_canonical = np.linalg.inv(np.asarray(cell_certificate, dtype=float))
            canonical = states @ to_canonical.T
        cells = [cell_of(cell_tag, y) for y in canonical]

    trajectories = []
    ends = np.cumsum(counts)
    for i, (lo, hi) in enumerate(zip(ends - counts, ends)):
        speed, curvature, torsion, c_def, t_def = (g[lo:hi] for g in geometry)
        trajectories.append(Trajectory(
            times=times[lo:hi],
            states=states[lo:hi],
            terminated=terminated[i],
            speed=speed,
            curvature=curvature,
            torsion=torsion,
            curvature_defined=c_def,
            torsion_defined=t_def,
            accepted_steps=int(hi - lo - 1),
            rejected_steps=int(attempts[i] - (hi - lo - 1)),
            cells=None if cells is None else cells[lo:hi],
        ))
    return trajectories


def integrate(
    alg: Algebra,
    x0: np.ndarray,
    t_end: float,
    config: IntegratorConfig | None = None,
    cell_tag: str | None = None,
    cell_certificate: np.ndarray | None = None,
) -> Trajectory:
    """The trajectory from one start: the one-row case of ``integrate_batch``."""
    x0s = np.asarray(x0, dtype=float)[None, :]
    return integrate_batch(alg, x0s, t_end, config, cell_tag, cell_certificate)[0]


# ---------------------------------------------------------------------------
# CSV export


CSV_HEADER = ["t", "x1", "x2", "x3", "speed", "curvature", "torsion", "cell"]


def trajectory_to_csv(traj: Trajectory) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i in range(len(traj.times)):
        row = [
            f"{traj.times[i]:.12g}",
            f"{traj.states[i, 0]:.12g}",
            f"{traj.states[i, 1]:.12g}",
            f"{traj.states[i, 2]:.12g}",
            f"{traj.speed[i]:.12g}",
            f"{traj.curvature[i]:.12g}" if traj.curvature_defined[i] else "",
            f"{traj.torsion[i]:.12g}" if traj.torsion_defined[i] else "",
            traj.cells[i].compact() if traj.cells is not None else "",
        ]
        writer.writerow(row)
    return buf.getvalue()


def save_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trajectory_to_csv(traj))
