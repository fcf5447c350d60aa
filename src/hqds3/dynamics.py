"""Integration and geometric diagnostics of the quadratic system x' = x * x.

The right-hand side is the square map of an algebra, so solution features
mirror algebraic ones: square-zero vectors are steady states, idempotents
ride blow-up rays, covectors vanishing on A*A are linear first integrals,
and when A*A lies in the annihilator every solution is an affine line.

The integrator is the embedded Dormand-Prince 5(4) pair with FSAL ("first
same as last"): the last stage of an accepted step is the first stage of
the next, so each attempt makes six field evaluations.  It runs an
ensemble: every row of an (n, 3) array of starts keeps its own time, step
size and stop, and ``verify`` integrates all of its starts in one
``integrate_batch`` call; ``integrate`` is the one-row case.  Derivatives
for curvature and torsion come from differentiating the field analytically
rather than from finite differences, and are computed for all samples of
all rows in one pass over their state array; ``curvature_torsion`` is the
one-sample case of the same code.  Partition cells are likewise decided in
one pass over a state array (``_cells``), of which ``cell_of`` is the
one-sample case.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, ideal_structure, square_ideal, square_map
from .linalg import orthonormal_complement
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

    A trajectory may run up to a blow-up guard far beyond 1e100, where the
    derivatives overflow; such samples get infinite or NaN values, quietly.
    """
    with np.errstate(over="ignore", invalid="ignore"):
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


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v scaled to unit length; zero rows stay zero."""
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(norm > 0.0, norm, 1.0)


def _cells(tag: str, ys: np.ndarray, tol: float = TAU_GEO) -> list[CellId]:
    """The partition cell of every row of the (n, 3) stack ys for a canonical
    class, decided in one pass over the array.

    Each class lists its cells from the lowest-dimensional one up; a row
    belongs to the first cell whose test it meets, so lower-dimensional
    cells win ties, and the last cell takes every remaining row.  Rows a
    half-plane cell takes never have a zero direction, so the zero rows
    ``_unit_rows`` passes through are never read.
    """
    ys = np.asarray(ys, dtype=float).reshape(-1, 3)
    x1, x2, x3 = ys.T
    z1, z2, z3 = (np.abs(ys) <= tol).T
    rest = np.ones(len(ys), dtype=bool)
    # (label, rows it may take, its params as an (n, p) array)
    if tag == "A1":
        rules = [
            ("axis-x2", z1 & z3, x2[:, None]),
            ("axis-x3", z1 & z2, x3[:, None]),
            ("halfplane-x1ox3", z2, np.sign(x1)[:, None]),
            ("halfspace", rest, np.sign(x2)[:, None]),
        ]
    elif tag == "A2":
        rules = [
            ("plane-x1ox2", z3, ys[:, :2]),
            ("halfplane", rest, _unit_rows(ys[:, ::2])),
        ]
    elif tag == "A3":
        rules = [
            ("plane-x1ox3", z2, ys[:, ::2]),
            ("plane-x2ox3", z1, ys[:, 1:]),
            ("halfplane", rest, _unit_rows(ys[:, :2])),
        ]
    elif tag == "A4":
        rules = [
            ("axis-x3", z1 & z2, x3[:, None]),
            ("halfplane", rest, _unit_rows(ys[:, :2])),
        ]
    else:
        raise ValueError(f"cells are defined for canonical classes only, got {tag!r}")
    labels, takes, params = zip(*rules)
    first = np.argmax(np.stack(takes), axis=0).tolist()
    params = [p.tolist() for p in params]
    return [CellId(tag, labels[r], tuple(params[r][i])) for i, r in enumerate(first)]


def cell_of(tag: str, x: np.ndarray, tol: float = TAU_GEO) -> CellId:
    """Assign a point to its partition cell for a canonical class.

    Lower-dimensional cells win ties: points within ``tol`` of an axis or
    coordinate plane belong to it.  Signs and directions parameterize the
    open half-plane / half-space cells.  The one-sample case of ``_cells``.
    """
    return _cells(tag, np.asarray(x, dtype=float)[None, :], tol)[0]


# ---------------------------------------------------------------------------
# integration


# The Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math.
# 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I, 1993, Table II.5.2).
# Stage i evaluates the field at x + h * sum_j A[i, j] k_j; the field is
# autonomous, so the nodes are not needed.  The last row of A is the 5th-
# order weights B, so the last stage is the field at the new state (FSAL).
# E = B - B_HAT weighs the stages into the difference of the 5th- and
# 4th-order solutions.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B = _DP_A[-1]
_DP_B_HAT = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B - _DP_B_HAT


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
    rejected_steps: int            # attempts that failed the tolerance
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

    Dormand-Prince 5(4) with FSAL.  An attempt evaluates stages 2 to 7, the
    field as x . (x . C) with C the (3, 9) matrix form of the tensor.  It
    advances with the 5th-order weights, and is accepted when the error
    estimate h * sum_i E_i k_i, in the max norm relative to max(1, |x_new|),
    is at most ``rtol``.  Stage 7 is the field at the new state, so on
    acceptance it becomes the next step's first stage; a rejected attempt
    keeps its first stage.  The step size then scales by
    0.9 (rtol / err)^(1/5), clipped to [0.2, 5], which is below 0.9 after a
    rejection (Hairer, Norsett & Wanner, Solving ODEs I, II.4); a NaN error
    halves it.

    All rows step together, but each keeps its own time, step size,
    acceptance and stop (t_end reached, blow-up guard, step underflow);
    a row that stops leaves the active arrays.  No row's arithmetic reads
    another row, so a row agrees with its one-row run; the tests ask for
    agreement to roundoff, since how a stacked matrix product rounds is up
    to the numpy build.  Each step logs only its accepted samples, and
    speed, curvature and torsion of every sample of every row are computed
    in one pass once the last row stops.

    When ``cell_tag`` names a canonical class, every sample is stamped with
    its partition cell in one ``_cells`` pass, after mapping through the
    inverse of ``cell_certificate`` when one is supplied (states stay in
    the input frame; only the cell decision uses canonical coordinates).
    """
    config = config or IntegratorConfig()
    c_mat = alg.c.reshape(3, 9)

    # rows are kept as (m, 1, 3) stacks of row vectors and per-row scalars as
    # (m, 1, 1), so the field is two stacked products of one row each
    def field(y):
        return y @ (y @ c_mat).reshape(-1, 3, 3)

    x = np.array(x0s, dtype=float).reshape(-1, 1, 3)
    n = len(x)
    t_end = np.broadcast_to(np.asarray(t_ends, dtype=float), (n,)).reshape(n, 1, 1)
    terminated = np.full(n, "t_end_reached", dtype=object)
    attempts = np.zeros(n, dtype=int)
    # accepted samples as (rows, times, states), one entry per step
    log = [(np.arange(n), np.zeros(n), x[:, 0])]

    live = (0.0 < t_end).ravel()  # rows with nothing to integrate stop at their start
    rows, x, t_end = np.flatnonzero(live), x[live], t_end[live]
    t = np.zeros_like(t_end)
    h = np.minimum(config.h0, np.maximum(t_end, INT_H_MIN))
    # the seven stages of each row's current attempt; k[:, 0] = f(x)
    k = np.empty((len(rows), 7, 3))
    k[:, :1] = field(x)
    steps = 0
    # rows heading for a far blow-up guard may overflow: the error test
    # rejects non-finite attempts and the stop logic ends such rows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while len(rows):
            if steps >= config.max_steps:
                raise RuntimeError("integrator exceeded max_steps")
            steps += 1
            h = np.minimum(h, t_end - t)
            for i in range(1, 7):
                y = x + h * (_DP_A[i:i + 1, :i] @ k[:, :i])
                k[:, i:i + 1] = field(y)
            # y is now the 5th-order solution, and k[:, 6] the field there
            size = np.abs(y).max(axis=2, keepdims=True)
            err = np.abs(h * (_DP_E @ k)[:, None]).max(axis=2, keepdims=True)
            err = err / np.maximum(1.0, size)
            ok = err <= config.rtol
            t = np.where(ok, t + h, t)
            x = np.where(ok, y, x)
            k[:, :1] = np.where(ok, k[:, 6:], k[:, :1])
            accepted = ok.ravel()
            log.append((rows[accepted], t.ravel()[accepted], x[accepted, 0]))
            # a rejection has err > rtol, so its factor is below 0.9 unclipped
            factor = np.clip(0.9 * (config.rtol / err) ** 0.2, 0.2, 5.0)
            h = h * np.where(np.isnan(err), 0.5, factor)
            stop = np.where(ok, (size > config.blowup) | (t >= t_end), h < config.h_min)[:, 0, 0]
            if stop.any():
                ok, size = ok[:, 0, 0], size[:, 0, 0]
                terminated[rows[stop & ~ok]] = "step_underflow"
                terminated[rows[stop & ok & (size > config.blowup)]] = "blowup_guard"
                attempts[rows[stop]] = steps
                keep = ~stop
                rows, x, t, t_end, h, k = (a[keep] for a in (rows, x, t, t_end, h, k))

    owner, times, states = (np.concatenate(part) for part in zip(*log))
    # a stable sort keeps each row's samples in the order they were taken
    order = np.argsort(owner, kind="stable")
    times, states = times[order], states[order]
    counts = np.bincount(owner, minlength=n)
    geometry = _geometry(alg, states)

    cells = None
    if cell_tag is not None:
        canonical = states
        if cell_certificate is not None:
            to_canonical = np.linalg.inv(np.asarray(cell_certificate, dtype=float))
            canonical = states @ to_canonical.T
        cells = _cells(cell_tag, canonical)

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
