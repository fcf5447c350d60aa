"""Integration and geometric diagnostics of the quadratic system x' = x * x.

The right-hand side is the square map of an algebra, so solution features
mirror algebraic ones: square-zero vectors are steady states, idempotents
ride blow-up rays, covectors vanishing on A*A are linear first integrals,
and when A*A lies in the annihilator every solution is an affine line.

The integrator is a classic RK4 with step doubling, whose full step and
first half step share their first stage.  Derivatives for curvature and
torsion come from differentiating the field analytically rather than from
finite differences, and are computed for a whole trajectory in one pass
over its (n, 3) state array; ``curvature_torsion`` is the one-sample case
of the same code.
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

    The one-sample case of the geometry ``integrate`` computes for a whole
    trajectory.  Raises DegenerateVelocity on steady states; torsion is None
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
    cells: list | None = None      # list[CellId] when a cell frame was given

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _rk4_step(field, x: np.ndarray, k1: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of size h from x, given its first stage k1 = f(x)."""
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def integrate(
    alg: Algebra,
    x0: np.ndarray,
    t_end: float,
    config: IntegratorConfig | None = None,
    cell_tag: str | None = None,
    cell_certificate: np.ndarray | None = None,
) -> Trajectory:
    """RK4 with step doubling: a full step is accepted when it agrees with
    two half steps to relative tolerance, and the halved result is kept.

    The full step and the first half step start from the same point, so
    they share their first stage k1 = f(x), which is also kept across
    rejected attempts.  The stages evaluate the field as
    x . (x . C) with C the (3, 9) matrix form of the tensor, built once per
    call.  Speed, curvature and torsion of all accepted samples are computed
    in one pass over the state array once the integration stops.

    When ``cell_tag`` names a canonical class, every accepted sample is
    stamped with its partition cell, after mapping through the inverse of
    ``cell_certificate`` when one is supplied (states stay in the input
    frame; only the cell decision uses canonical coordinates).
    """
    config = config or IntegratorConfig()
    c_mat = alg.c.reshape(3, 9)

    def field(y):
        return np.dot(y, np.dot(y, c_mat).reshape(3, 3))

    x = np.asarray(x0, dtype=float).copy()
    k1 = field(x)
    t = 0.0
    h = min(config.h0, max(t_end, INT_H_MIN))

    times = [0.0]
    states = [x]
    terminated = "t_end_reached"
    steps = 0
    while t < t_end:
        if steps >= config.max_steps:
            raise RuntimeError("integrator exceeded max_steps")
        steps += 1
        h = min(h, t_end - t)
        full = _rk4_step(field, x, k1, h)
        mid = _rk4_step(field, x, k1, 0.5 * h)
        half = _rk4_step(field, mid, field(mid), 0.5 * h)
        size = float(np.abs(half).max())
        err = float(np.abs(full - half).max()) / max(1.0, size)
        if err <= config.rtol:
            t += h
            x = half
            k1 = field(x)
            times.append(t)
            states.append(x)
            if size > config.blowup:
                terminated = "blowup_guard"
                break
            if err < config.rtol / 32.0:
                h *= 2.0
        else:
            h *= 0.5
            if h < config.h_min:
                terminated = "step_underflow"
                break

    states_arr = np.array(states)
    speed, curvature, torsion, c_def, t_def = _geometry(alg, states_arr)

    cells = None
    if cell_tag is not None:
        canonical = states_arr
        if cell_certificate is not None:
            to_canonical = np.linalg.inv(np.asarray(cell_certificate, dtype=float))
            canonical = states_arr @ to_canonical.T
        cells = [cell_of(cell_tag, y) for y in canonical]

    return Trajectory(
        times=np.array(times),
        states=states_arr,
        terminated=terminated,
        speed=speed,
        curvature=curvature,
        torsion=torsion,
        curvature_defined=c_def,
        torsion_defined=t_def,
        cells=cells,
    )


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
