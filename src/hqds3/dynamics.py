"""Integration and geometric diagnostics of the quadratic system x' = x * x.

The right-hand side is the square map of an algebra, so solution features
mirror algebraic ones: square-zero vectors are steady states, idempotents
ride blow-up rays, covectors vanishing on A*A are linear first integrals,
and when A*A lies in the annihilator every solution is an affine line.

Every product of two states here is ``algebra.product``, or its square
case ``square_map``, called once on a whole stack of states; only the
integrator's Cauchy-product sums contract the tensor directly.  The
integrator is Taylor's method: the solution through a state is a
power series whose coefficients follow from the product by one exact
recurrence, so each step sums the series to order TAYLOR_ORDER over a step
read off its last coefficients, and no step is rejected.  It runs an
ensemble: every row of an (n, 3) array of starts keeps its own time, step
size and stop, and ``verify`` integrates all of its starts in one
``integrate_batch`` call; ``integrate`` is the one-row case.  A trajectory
holds only its times, states and stop; what is read off the states is
computed where it is read, in one pass over a state array.  Speed,
curvature and torsion come from ``curve_geometry``, which differentiates
the field analytically rather than by finite differences, and of which
``curvature_torsion`` is the one-sample case; the CSV writer and the
``verify`` checks that judge curvature and torsion call it.  Partition
cells come from ``_cells``, of which ``cell_of`` is the one-sample case,
and ``cli.canonical_cells`` decides them for ``simulate`` and ``verify``
alike.  The integrator computes neither.  It takes no settings: it reads
the module constants TAYLOR_ORDER, INT_RTOL, INT_H_MIN, BLOWUP_GUARD and
MAX_STEPS when it is called.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, ideal_structure, product, square_ideal, square_map
from .linalg import orthonormal_complement
from .tolerances import BLOWUP_GUARD, INT_H_MIN, INT_RTOL, TAU_GEO


class DegenerateVelocity(ValueError):
    """Curvature is requested at a point where the velocity vanishes."""


class PreconditionFailed(RuntimeError):
    """A closed-form solution family was requested outside its hypothesis."""


# ---------------------------------------------------------------------------
# analytic derivatives and curve geometry


def _derivatives(alg: Algebra, xs: np.ndarray) -> np.ndarray:
    """x', x'', x''' at every row of the (n, 3) stack xs, as shape (3, n, 3),
    from four stacked calls of ``product``; each row's derivatives have the
    same bits as those of that row alone."""
    d1 = product(alg, xs, xs)
    d2 = 2.0 * product(alg, xs, d1)
    d3 = 2.0 * (product(alg, d1, d1) + product(alg, xs, d2))
    return np.stack([d1, d2, d3])


def curve_geometry(alg: Algebra, xs: np.ndarray):
    """(speed, curvature, torsion) of the trajectory through each row of the
    (n, 3) stack xs, each of shape (n,); NaN marks a value that is undefined.

    Curvature is undefined where |x'| <= TAU_GEO (steady states).  Torsion is
    also undefined where the osculating plane degenerates: |x' x x''| <=
    TAU_GEO relative to its roundoff scale |x'| * |c| |x| |x'|, since where
    x'' = 0 exactly (A*A in Ann) the computed x'' is rounding error and the
    torsion noise.

    Derivatives of a state far out along a blow-up ray, or of a table with
    huge constants, may overflow; such samples get infinite or NaN values,
    quietly.
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
    return speed, curvature, torsion


def analytic_derivatives(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """Rows are x', x'', x''' of the solution through x, at x.

    Differentiating x' = x * x along the flow:
        x''  = 2 x * x'
        x''' = 2 (x' * x' + x * x'')
    """
    return _derivatives(alg, np.asarray(x, dtype=float)[None, :])[:, 0]


def curvature_torsion(alg: Algebra, x: np.ndarray) -> tuple[float, float | None]:
    """(curvature, torsion) of the trajectory arc through x.

    The one-sample case of ``curve_geometry``.  Raises DegenerateVelocity on
    steady states; torsion is None when the osculating plane degenerates
    (both guards: ``curve_geometry``).
    """
    _, (kappa,), (tau,) = curve_geometry(alg, np.asarray(x, dtype=float)[None, :])
    if np.isnan(kappa):
        raise DegenerateVelocity("velocity vanishes; curvature undefined")
    return float(kappa), None if np.isnan(tau) else float(tau)


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

    def same_cell(self, other: "CellId") -> bool:
        """Same tag and label, and params equal within 1e-6."""
        if self.tag != other.tag or self.label != other.label:
            return False
        if len(self.params) != len(other.params):
            return False
        return all(abs(a - b) <= 1e-6 for a, b in zip(self.params, other.params))

    def compact(self) -> str:
        bits = ":".join(f"{p:.6g}" for p in self.params)
        return f"{self.label}:{bits}" if bits else self.label


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v scaled to unit length; zero rows stay zero."""
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(norm > 0.0, norm, 1.0)


def _cells(tag: str, ys: np.ndarray) -> list[CellId]:
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
    z1, z2, z3 = (np.abs(ys) <= TAU_GEO).T
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


def cell_of(tag: str, x: np.ndarray) -> CellId:
    """Assign a point to its partition cell for a canonical class.

    Lower-dimensional cells win ties: points within TAU_GEO of an axis or
    coordinate plane belong to it.  Signs and directions parameterize the
    open half-plane / half-space cells.  The one-sample case of ``_cells``.
    """
    return _cells(tag, np.asarray(x, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# integration


# the order N of the Taylor integrator, the degree of the polynomial each
# step sums.  On the integrations of cli-dynamics, orders 20, 24 and 28 cost
# the same within noise, 16 about 20% more and 12 about 45% more; of 16, 20,
# 24 and 28, 20 was the most accurate at t = 1
TAYLOR_ORDER = 20

# a batch that takes more steps than this raises instead of looping on
MAX_STEPS = 200000


def _taylor_coefficients(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """The coefficients X_0..X_N, N = TAYLOR_ORDER, of the solutions through
    the rows of the (m, 3) stack x, as shape (m, N + 1, 3): x(t) = sum X_n t^n.

    Matching powers of t in x' = x * x gives the Cauchy-product recurrence
    X_{n+1} = (1/(n+1)) sum_{i=0..n} X_i * X_{n-i}.  The sum is one stacked
    contraction per order: the 3x3 matrix sum_i X_i (x) X_{n-i} of each row,
    flattened, times the tensor as a (9, 3) matrix scaled by 1/(n+1).  Every
    X_n with n >= 1 is a sum of products, so it lies in A*A.
    """
    m = len(x)
    scaled = alg.c.reshape(9, 3) / np.arange(1.0, TAYLOR_ORDER + 1)[:, None, None]
    coef = np.empty((m, TAYLOR_ORDER + 1, 3))
    coef[:, 0] = x
    for n in range(TAYLOR_ORDER):
        outer = coef[:, :n + 1].transpose(0, 2, 1) @ coef[:, n::-1]
        np.matmul(outer.reshape(m, 9), scaled[n], out=coef[:, n + 1])
    return coef


@dataclass
class Trajectory:
    times: np.ndarray   # (n,)
    states: np.ndarray  # (n, 3)
    terminated: str     # t_end_reached | blowup_guard | step_underflow

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def accepted_steps(self) -> int:
        """Every step adds a sample."""
        return len(self.times) - 1


def integrate_batch(alg: Algebra, x0s, t_ends) -> list[Trajectory]:
    """One trajectory per row of the (n, 3) starts ``x0s``, row i run from
    t = 0 to ``t_ends[i]`` (a scalar applies to every row).

    Taylor's method of order N = TAYLOR_ORDER (Jorba & Zou, Experimental
    Mathematics 14, 2005).  A step fills the coefficients X_0..X_N at the
    current state (``_taylor_coefficients``) and takes
    h = min_j (INT_RTOL max(1, |x|) / |X_j|)^(1/j) over j = N-1, N, in the
    max norm, so the last two terms of the series are at most INT_RTOL
    relative to the state; it cuts h to the time left, and evaluates the
    polynomial at h as one product of the powers of h with the coefficients.
    No step is rejected.  Where A*A lies in the annihilator, X_2 = 0, so
    every later coefficient vanishes too and the row reaches t_end in one
    step.  Every X_n with n >= 1 lies in A*A, so linear first integrals are
    conserved to roundoff.

    All rows step together, but each keeps its own time, step and stop:
    t_end reached, |x| above BLOWUP_GUARD after a step, or a step below
    INT_H_MIN, which includes coefficients that are not finite.  A row that
    stops leaves the active arrays, and a batch that takes MAX_STEPS steps
    raises RuntimeError.  No row's arithmetic reads another row, so a row
    agrees with its one-row run; the tests ask for agreement to roundoff,
    since how a stacked matrix product rounds is up to the numpy build.
    Each step logs one sample per row it advanced.  States stay in the
    input frame; the integrator computes no curve geometry and decides no
    partition cells.
    """
    x = np.array(x0s, dtype=float).reshape(-1, 3)
    n = len(x)
    t_end = np.broadcast_to(np.asarray(t_ends, dtype=float), (n,))
    terminated = np.full(n, "t_end_reached", dtype=object)
    # samples as (rows, times, states), one entry per step
    log = [(np.arange(n), np.zeros(n), x)]

    live = 0.0 < t_end  # rows with nothing to integrate stop at their start
    rows, x, t_end = np.flatnonzero(live), x[live], t_end[live]
    t = np.zeros_like(t_end)
    powers = 1.0 / np.array([TAYLOR_ORDER - 1, TAYLOR_ORDER])
    steps = 0
    # rows heading for a far blow-up guard may overflow; the step rule stops
    # a row whose coefficients are not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while len(rows):
            if steps >= MAX_STEPS:
                raise RuntimeError("integrator exceeded MAX_STEPS")
            steps += 1
            coef = _taylor_coefficients(alg, x)
            size = np.maximum(1.0, np.abs(x).max(axis=1))
            tail = np.abs(coef[:, -2:]).max(axis=2)
            h = ((INT_RTOL * size[:, None] / tail) ** powers).min(axis=1)
            # NaN compares false, so non-finite coefficients fail this too
            moved = h >= INT_H_MIN
            left = t_end - t
            reach = h >= left
            h = np.minimum(h, left)
            y = ((h[:, None] ** np.arange(TAYLOR_ORDER + 1))[:, None] @ coef)[:, 0]
            t = np.where(moved, np.where(reach, t_end, t + h), t)
            x = np.where(moved[:, None], y, x)
            log.append((rows[moved], t[moved], x[moved]))
            blown = moved & (np.abs(x).max(axis=1) > BLOWUP_GUARD)
            stop = ~moved | blown | reach
            if stop.any():
                terminated[rows[~moved]] = "step_underflow"
                terminated[rows[blown]] = "blowup_guard"
                keep = ~stop
                rows, x, t, t_end = (a[keep] for a in (rows, x, t, t_end))

    owner, times, states = (np.concatenate(part) for part in zip(*log))
    # a stable sort keeps each row's samples in the order they were taken
    order = np.argsort(owner, kind="stable")
    bounds = np.cumsum(np.bincount(owner, minlength=n))[:-1]
    times, states = np.split(times[order], bounds), np.split(states[order], bounds)
    return [Trajectory(*row) for row in zip(times, states, terminated)]


def integrate(alg: Algebra, x0: np.ndarray, t_end: float) -> Trajectory:
    """The trajectory from one start: the one-row case of ``integrate_batch``."""
    return integrate_batch(alg, np.asarray(x0, dtype=float)[None, :], t_end)[0]


# ---------------------------------------------------------------------------
# CSV export


CSV_HEADER = ["t", "x1", "x2", "x3", "speed", "curvature", "torsion", "cell"]


def trajectory_to_csv(alg: Algebra, traj: Trajectory, cells: list[CellId] | None) -> str:
    """The CSV rows of a trajectory of ``alg``; ``cells`` holds each sample's
    partition cell, or is None when the algebra has no canonical class.
    Curvature and torsion are left empty where ``curve_geometry`` leaves
    them undefined."""
    speed, curvature, torsion = curve_geometry(alg, traj.states)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i in range(len(traj.times)):
        row = [f"{v:.12g}" for v in (traj.times[i], *traj.states[i], speed[i])]
        row += ["" if np.isnan(v) else f"{v:.12g}" for v in (curvature[i], torsion[i])]
        row.append(cells[i].compact() if cells is not None else "")
        writer.writerow(row)
    return buf.getvalue()


def save_csv(alg: Algebra, traj: Trajectory, cells: list[CellId] | None, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trajectory_to_csv(alg, traj, cells))
