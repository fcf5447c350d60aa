"""Commutative 3-dimensional algebras given by structure constants.

An algebra is a symmetric tensor c[i, j, k]: the product of basis vectors
e_i * e_j = sum_k c[i, j, k] e_k.  The same tensor read as a quadratic map
x -> x * x is the right-hand side of the associated differential system,
so everything downstream (derivations, classification, dynamics) consumes
the ``Algebra`` defined here.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    contains_vector,
    fibonacci_sphere,
    nullspace,
    project_onto,
    rank_and_rowspace,
    sign_canonical,
    sign_canonical_rows,
    unit,
)
from .tolerances import TAU_DEDUP, TAU_RANK, TAU_RES


class SingularBasis(ValueError):
    """Raised when a change-of-basis matrix is numerically singular."""


# Conventional one-letter names for the 18 independent constants of a
# commutative product, keyed to 0-based tensor slots (i, j, k) with i <= j.
NAMED_SLOTS: dict[str, tuple[int, int, int]] = {
    "a": (0, 0, 0), "b": (0, 0, 1), "c": (0, 0, 2),
    "d": (1, 1, 0), "e": (1, 1, 1), "f": (1, 1, 2),
    "g": (2, 2, 0), "h": (2, 2, 1), "j": (2, 2, 2),
    "k": (0, 1, 0), "m": (0, 1, 1), "n": (0, 1, 2),
    "p": (0, 2, 0), "q": (0, 2, 1), "r": (0, 2, 2),
    "s": (1, 2, 0), "t": (1, 2, 1), "v": (1, 2, 2),
}


@dataclass(frozen=True, eq=False)
class Algebra:
    """Structure constants of a commutative algebra on R^3.

    The tensor must satisfy c[i, j, k] == c[j, i, k] exactly; builders that
    start from one-sided data are responsible for writing both slots.  All
    validation (shape, finiteness, symmetry) lives in this constructor.
    Immutability is enforced: the instance holds a read-only private copy of
    the tensor, so its scale and normalized form are computed once.
    """

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.c, dtype=float)
        if c.shape != (3, 3, 3):
            raise ValueError(f"structure constants must be 3x3x3, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        asym = c != c.transpose(1, 0, 2)
        if asym.any():
            i, j, k = (int(v) + 1 for v in np.argwhere(asym)[0])
            raise ValueError(
                f"asymmetric constants: c[{i}][{j}][{k}] != c[{j}][{i}][{k}] "
                "(commutativity requires symmetry in the first two indices; fix the input, "
                "it is not symmetrized automatically)"
            )
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @functools.cached_property
    def scale(self) -> float:
        return float(np.max(np.abs(self.c)))

    def normalized(self) -> tuple["Algebra", float]:
        """Rescale constants to unit max magnitude; returns (algebra, factor).

        Scaling constants by t is the change of basis by (1/t) * Id, so it
        preserves every structural invariant used here.  Every call returns
        the same object.
        """
        return self._normalized

    @functools.cached_property
    def _normalized(self) -> tuple["Algebra", float]:
        s = self.scale
        if s == 0.0 or s == 1.0:
            return self, 1.0
        return Algebra(self.c / s), s


def zero_algebra() -> Algebra:
    return Algebra(np.zeros((3, 3, 3)))


def from_products(products: dict[tuple[int, int], object]) -> Algebra:
    """Build an algebra from 1-based basis products, e.g. {(2, 3): (1, 0, 0)}."""
    c = np.zeros((3, 3, 3))
    for (i, j), vec in products.items():
        v = np.asarray(vec, dtype=float)
        c[i - 1, j - 1] = v
        c[j - 1, i - 1] = v
    return Algebra(c)


def from_named(**constants: float) -> Algebra:
    """Build an algebra from the 18 conventional letter names (see NAMED_SLOTS)."""
    c = np.zeros((3, 3, 3))
    for name, value in constants.items():
        if name not in NAMED_SLOTS:
            raise ValueError(f"unknown constant name {name!r}")
        i, j, k = NAMED_SLOTS[name]
        c[i, j, k] = value
        c[j, i, k] = value
    return Algebra(c)


def product(alg: Algebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear product u * v.

    The outer product is symmetrized before contraction so that
    product(alg, u, v) and product(alg, v, u) are bit-identical.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = 0.5 * (np.outer(u, v) + np.outer(v, u))
    return np.einsum("ij,ijk->k", s, alg.c)


def square_map(alg: Algebra, x: np.ndarray) -> np.ndarray:
    """x * x, the quadratic vector field of the associated system."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,j,ijk->k", x, x, alg.c)


def squares_batch(alg: Algebra, xs: np.ndarray) -> np.ndarray:
    """Row-wise x * x for a stack of vectors."""
    return np.einsum("ni,nj,ijk->nk", xs, xs, alg.c)


def left_mult_matrix(alg: Algebra, v: np.ndarray) -> np.ndarray:
    """Matrix of w -> v * w in the standard basis."""
    return np.einsum("i,ijk->kj", np.asarray(v, dtype=float), alg.c)


def change_of_basis(alg: Algebra, m: np.ndarray) -> Algebra:
    """Structure constants in the basis whose vectors are the columns of m.

    Composes functorially: change_of_basis(alg, m @ n) equals
    change_of_basis(change_of_basis(alg, m), n) up to roundoff.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("basis change must be a 3x3 matrix")
    if abs(np.linalg.det(m)) <= TAU_RANK:
        raise SingularBasis("basis change matrix is singular")
    t = np.einsum("ai,bj,abk->ijk", m, m, alg.c)
    new = np.linalg.solve(m, t.reshape(9, 3).T).T.reshape(3, 3, 3)
    # kill last-ulp asymmetry introduced by summation order
    new = 0.5 * (new + new.transpose(1, 0, 2))
    return Algebra(new)


# ---------------------------------------------------------------------------
# subspaces


@dataclass
class Subspace:
    """A linear subspace of R^3 stored as orthonormal rows."""

    basis: np.ndarray  # (dim, 3)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def contains(self, v: np.ndarray, rtol: float = 1e-7) -> bool:
        return contains_vector(self.basis, v, rtol)

    def project(self, v: np.ndarray) -> np.ndarray:
        return project_onto(self.basis, v)


def span_of(vectors: np.ndarray, rtol: float = TAU_RANK) -> Subspace:
    _, rows = rank_and_rowspace(np.atleast_2d(vectors), rtol)
    return Subspace(rows)


def annihilator(alg: Algebra) -> Subspace:
    """Ann = {v : v * w = 0 for all w}, the kernel of v -> L_v."""
    norm, _ = alg.normalized()
    # stack the nine linear conditions (v * e_i)_k = 0 over i, k
    rows = norm.c.transpose(1, 2, 0).reshape(9, 3)  # row (i, k): coeffs of v_j
    return Subspace(nullspace(rows))


def square_ideal(alg: Algebra) -> Subspace:
    """A * A, the span of all basis products."""
    norm, _ = alg.normalized()
    prods = [norm.c[i, j] for i in range(3) for j in range(i, 3)]
    return span_of(np.array(prods))


def ideal_structure(alg: Algebra) -> tuple[Subspace, Subspace, bool]:
    """(Ann, A*A, whether A*A is a nonzero subspace of Ann).

    The one place that decides the ideal structure both classification
    routes, the fingerprint and the affine closed form dispatch on.
    """
    ann = annihilator(alg)
    sq = square_ideal(alg)
    return ann, sq, sq.dim > 0 and all(ann.contains(row) for row in sq.basis)


@dataclass
class SubspaceCheck:
    closed: bool
    ideal: bool
    max_closure_residual: float
    max_ideal_residual: float


def subspace_check(alg: Algebra, sub: Subspace, rtol: float = TAU_RES) -> SubspaceCheck:
    """Test whether a subspace is a subalgebra (S*S in S) and an ideal (A*S in S)."""
    norm, _ = alg.normalized()
    closure = 0.0
    for u in sub.basis:
        for v in sub.basis:
            p = product(norm, u, v)
            closure = max(closure, float(np.linalg.norm(p - sub.project(p))))
    ideal = closure
    eye = np.eye(3)
    for e in eye:
        for v in sub.basis:
            p = product(norm, e, v)
            ideal = max(ideal, float(np.linalg.norm(p - sub.project(p))))
    return SubspaceCheck(
        closed=closure <= rtol,
        ideal=ideal <= rtol,
        max_closure_residual=closure,
        max_ideal_residual=ideal,
    )


# ---------------------------------------------------------------------------
# structural flags


@dataclass
class StructureFlags:
    solvable: bool
    nilpotent: bool
    associative: bool
    power_associative: bool


def _span_products(alg: Algebra, left: Subspace, right: Subspace) -> Subspace:
    prods = [product(alg, u, v) for u in left.basis for v in right.basis]
    if not prods:
        return Subspace(np.zeros((0, 3)))
    return span_of(np.array(prods))


def structure_flags(alg: Algebra, rtol: float = TAU_RES) -> StructureFlags:
    """Solvability, nilpotency (series cut off at depth 4), associativity and
    the degree-4 power identity (x*x)*(x*x) == ((x*x)*x)*x on sampled points."""
    norm, _ = alg.normalized()
    whole = Subspace(np.eye(3))

    term = sq = square_ideal(norm)
    solvable = term.dim == 0
    for _ in range(4):
        if term.dim == 0:
            solvable = True
            break
        term = _span_products(norm, term, term)

    term = sq
    nilpotent = term.dim == 0
    for _ in range(4):
        if term.dim == 0:
            nilpotent = True
            break
        term = _span_products(norm, whole, term)

    assoc = 0.0
    eye = np.eye(3)
    for i, j, k in itertools.product(range(3), repeat=3):
        lhs = product(norm, product(norm, eye[i], eye[j]), eye[k])
        rhs = product(norm, eye[i], product(norm, eye[j], eye[k]))
        assoc = max(assoc, float(np.max(np.abs(lhs - rhs))))

    rng = np.random.default_rng(0)
    pts = rng.standard_normal((24, 3))
    pa = 0.0
    for x in pts:
        sq = square_map(norm, x)
        lhs = product(norm, sq, sq)
        rhs = product(norm, product(norm, sq, x), x)
        scale = max(1.0, float(np.linalg.norm(x))) ** 4
        pa = max(pa, float(np.max(np.abs(lhs - rhs))) / scale)

    return StructureFlags(
        solvable=solvable,
        nilpotent=nilpotent,
        associative=assoc <= rtol,
        power_associative=pa <= rtol,
    )


# ---------------------------------------------------------------------------
# nilpotent cone


NILCONE_KINDS = (
    "origin-only",
    "one-line",
    "two-lines",
    "plane",
    "two-planes",
    "whole-space",
    "other",
)


@dataclass
class NilconeConfig:
    n_samples: int = 3000
    newton_iters: int = 30
    seed: int = 0


@dataclass
class NilconeDescriptor:
    kind: str
    lines: list = field(default_factory=list)     # list[Subspace], dim 1
    planes: list = field(default_factory=list)    # list[Subspace], dim 2
    samples: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))


def _newton_polish(alg: Algebra, pts: np.ndarray, iters: int) -> np.ndarray:
    """Damped Gauss-Newton for x*x = 0, batched with an active-set mask.

    Points that have already converged drop out of the einsum/solve work;
    only the stragglers (typically ones near second-order degenerate strata)
    keep iterating.
    """
    v = pts.copy()
    lam = 1e-12
    active = np.arange(v.shape[0])
    for _ in range(iters):
        f = squares_batch(alg, v[active])
        still = np.max(np.abs(f), axis=1) > 1e-14
        active = active[still]
        if active.size == 0:
            break
        f = f[still]
        va = v[active]
        jac = 2.0 * np.einsum("ni,ijk->nkj", va, alg.c)
        jjt = jac @ jac.transpose(0, 2, 1)
        jjt += lam * np.eye(3)
        y = np.linalg.solve(jjt, f[:, :, None])
        v[active] = va - (jac.transpose(0, 2, 1) @ y)[:, :, 0]
    return v


def _cluster_lines(units: np.ndarray, tol: float = 2e-3) -> list[np.ndarray]:
    """Greedy direction clustering.

    The tolerance is loose on purpose: where the square map degenerates to
    second order, polished points sit up to ~sqrt(residual tol) off the true
    line, and the cluster representative is only a seed for _refine_line.
    """
    reps: list[np.ndarray] = []
    members: list[list[np.ndarray]] = []
    for u in units:
        placed = False
        for idx, r in enumerate(reps):
            if np.linalg.norm(u - r) <= tol:
                members[idx].append(u)
                placed = True
                break
        if not placed:
            reps.append(u)
            members.append([u])
    out = []
    for group in members:
        if len(group) >= 5:
            _, rows = rank_and_rowspace(np.array(group), rtol=0.5)
            out.append(rows[0])
    return out


def _refine_line(alg: Algebra, u0: np.ndarray, iters: int = 60) -> np.ndarray:
    """Polish a single nilcone line direction by min-norm Gauss-Newton.

    An extra residual row pins the representative against sliding along the
    line; lstsq keeps convergence even where the Jacobian loses rank.
    """
    u0 = unit(u0)
    u = u0.copy()
    for _ in range(iters):
        f = np.concatenate([square_map(alg, u), [u @ u0 - 1.0]])
        if float(np.max(np.abs(f[:3]))) <= 1e-15 and abs(f[3]) <= 1e-12:
            break
        jac = np.vstack([2.0 * left_mult_matrix(alg, u), u0[None, :]])
        step, *_ = np.linalg.lstsq(jac, f, rcond=1e-10)
        u = u - step
        if float(np.linalg.norm(step)) <= 1e-15:
            break
    return sign_canonical(unit(u))


def _refine_plane(alg: Algebra, rows: np.ndarray, iters: int = 60) -> np.ndarray:
    """Polish a candidate nilcone plane: drive u*u, u*v, v*v to zero jointly."""
    u, v = rows[0].copy(), rows[1].copy()
    for _ in range(iters):
        f = np.concatenate(
            [square_map(alg, u), product(alg, u, v), square_map(alg, v)]
        )
        if float(np.max(np.abs(f))) <= 1e-15:
            break
        lu = left_mult_matrix(alg, u)
        lv = left_mult_matrix(alg, v)
        zero = np.zeros((3, 3))
        jac = np.block([[2.0 * lu, zero], [lv, lu], [zero, 2.0 * lv]])
        step, *_ = np.linalg.lstsq(jac, f, rcond=1e-10)
        u = u - step[:3]
        v = v - step[3:]
        if float(np.linalg.norm(step)) <= 1e-15:
            break
    _, out = rank_and_rowspace(np.array([u, v]), rtol=1e-6)
    return out


def _component_ok(
    alg: Algebra, basis: np.ndarray, rng: np.random.Generator, tol: float = 1e-7
) -> bool:
    """Re-verify a candidate line/plane: random points on it must square to ~0."""
    coeffs = rng.standard_normal((10, basis.shape[0]))
    pts = coeffs @ basis
    res = squares_batch(alg, pts)
    bound = tol * np.maximum(1.0, np.sum(pts * pts, axis=1))
    return bool(np.all(np.max(np.abs(res), axis=1) <= bound))


def _component_samples(alg: Algebra, lines: list, planes: list, cap: int = 200) -> np.ndarray:
    """Steady-state samples generated from verified cone components."""
    pts: list[np.ndarray] = []
    ts = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    for line in lines:
        pts.extend(t * line.basis[0] for t in ts)
    grid = np.linspace(-1.5, 1.5, 5)
    for plane in planes:
        for a in grid:
            for b in grid:
                if abs(a) + abs(b) < 1e-12:
                    continue
                pts.append(a * plane.basis[0] + b * plane.basis[1])
    if not pts:
        return np.zeros((0, 3))
    return np.array(pts[:cap])


def nilpotent_cone(alg: Algebra, config: NilconeConfig | None = None) -> NilconeDescriptor:
    """Describe {v : v*v = 0} by polished sphere samples and clustering.

    The set is a homogeneous variety; the kinds recognized here are the ones
    a 3-dimensional commutative product can produce in the classified family,
    with "other" as the honest fallback.
    """
    config = config or NilconeConfig()
    norm, _ = alg.normalized()
    rng = np.random.default_rng(config.seed)

    sphere = fibonacci_sphere(max(config.n_samples, 1))
    raw_res = np.max(np.abs(squares_batch(norm, sphere)), axis=1)
    if norm.scale == 0.0 or float(np.mean(raw_res <= TAU_RES)) >= 0.99:
        return NilconeDescriptor(kind="whole-space", samples=sphere[:100])

    polished = _newton_polish(norm, sphere, config.newton_iters)
    norms = np.linalg.norm(polished, axis=1)
    keep = norms >= 0.3
    polished, norms = polished[keep], norms[keep]
    units = polished / norms[:, None]
    res = np.max(np.abs(squares_batch(norm, units)), axis=1)
    # loose cut: where the square map degenerates to second order, the batch
    # polish stalls at ~sqrt(tau) distance; refinement tightens this later
    units = units[res <= 1e-7]
    if units.shape[0] == 0:
        return NilconeDescriptor(kind="origin-only")

    units = sign_canonical_rows(units)
    if units.shape[0] > 1200:
        units = units[:: units.shape[0] // 1200 + 1]
    rank, rows = rank_and_rowspace(units, rtol=1e-3)

    lines: list[Subspace] = []
    planes: list[Subspace] = []

    def add_line(seed: np.ndarray) -> None:
        d = _refine_line(norm, seed)
        for existing in lines:
            if np.linalg.norm(existing.basis[0] - d) <= 1e-6:
                return
        if _component_ok(norm, d[None, :], rng):
            lines.append(Subspace(d[None, :]))

    def add_plane(seed_rows: np.ndarray) -> bool:
        basis = _refine_plane(norm, seed_rows)
        if basis.shape[0] != 2:
            return False
        if _component_ok(norm, basis, rng):
            planes.append(Subspace(basis))
            return True
        return False

    if rank == 1:
        add_line(rows[0])
    elif rank == 2:
        if not add_plane(rows):
            for d in _cluster_lines(units):
                add_line(d)
    else:
        # try to peel up to two planes, then collect leftover lines
        remaining = units
        for _ in range(2):
            if remaining.shape[0] < 10:
                break
            best_inliers = None
            n_pairs = min(200, remaining.shape[0])
            idx = rng.integers(0, remaining.shape[0], size=(n_pairs, 2))
            for a, b in idx:
                cr = np.cross(remaining[a], remaining[b])
                ncr = np.linalg.norm(cr)
                if ncr < 0.1:
                    continue
                normal = cr / ncr
                inliers = np.abs(remaining @ normal) <= 1e-4
                if best_inliers is None or inliers.sum() > best_inliers.sum():
                    best_inliers = inliers
            if best_inliers is None or best_inliers.sum() < max(10, 0.05 * units.shape[0]):
                break
            _, prows = rank_and_rowspace(remaining[best_inliers], rtol=1e-3)
            if prows.shape[0] == 2 and add_plane(prows):
                remaining = remaining[~best_inliers]
            else:
                break
        if remaining.shape[0] >= 5:
            for d in _cluster_lines(remaining):
                add_line(d)

    if not lines and not planes:
        kind = "other" if units.shape[0] else "origin-only"
    elif len(planes) == 0 and len(lines) == 1:
        kind = "one-line"
    elif len(planes) == 0 and len(lines) == 2:
        kind = "two-lines"
    elif len(planes) == 1 and len(lines) == 0:
        kind = "plane"
    elif len(planes) == 2 and len(lines) == 0:
        kind = "two-planes"
    else:
        kind = "other"

    samples = _component_samples(norm, lines, planes)
    if samples.shape[0] == 0:
        tight = np.max(np.abs(squares_batch(norm, units)), axis=1) <= TAU_RES
        samples = units[tight][:200]
    return NilconeDescriptor(kind=kind, lines=lines, planes=planes, samples=samples)


# ---------------------------------------------------------------------------
# idempotents


def idempotents(alg: Algebra, n_grid: int = 11, max_iter: int = 40) -> list[np.ndarray]:
    """All isolated solutions of v*v = v found by Newton from a lattice.

    The lattice spans [-2, 2]^3 scaled to the magnitude of the constants
    (idempotents scale inversely with the constants).  The zero solution is
    excluded; results are deduplicated and sorted lexicographically.
    """
    norm, factor = alg.normalized()
    if norm.scale == 0.0:
        return []
    axis = np.linspace(-2.0, 2.0, n_grid)
    pts = np.array(list(itertools.product(axis, axis, axis)))

    v = pts.copy()
    eye = np.eye(3)
    for _ in range(max_iter):
        f = squares_batch(norm, v) - v
        if float(np.max(np.abs(f))) <= 1e-14:
            break
        jac = 2.0 * np.einsum("ni,ijk->nkj", v, norm.c) - eye
        # damp singular Jacobians relative to J^T J, which reaches ~1e6 near
        # the reset radius where an absolute 1e-12 would be lost to roundoff
        jtj = jac.transpose(0, 2, 1) @ jac
        damp = 1e-12 * np.maximum(1.0, np.trace(jtj, axis1=1, axis2=2))
        jtj = jtj + damp[:, None, None] * eye
        rhs = (jac.transpose(0, 2, 1) @ f[:, :, None])
        step = np.linalg.solve(jtj, rhs)[:, :, 0]
        v = v - step
        big = np.linalg.norm(v, axis=1) > 1e3
        v[big] = 0.0

    res = np.max(np.abs(squares_batch(norm, v) - v), axis=1)
    ok = (res <= TAU_RES) & (np.linalg.norm(v, axis=1) > TAU_DEDUP)
    found: list[np.ndarray] = []
    for cand in v[ok]:
        if all(np.linalg.norm(cand - w) > TAU_DEDUP for w in found):
            found.append(cand)
    found = [w / factor for w in found]
    return sorted(found, key=lambda w: tuple(np.round(w, 9)))


# ---------------------------------------------------------------------------
# residuals


def automorphism_residual(alg: Algebra, m: np.ndarray) -> float:
    """max over basis pairs of |phi(u*v) - phi(u)*phi(v)|, relative."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m)))) ** 2 * max(1.0, alg.scale)
    worst = 0.0
    for i in range(3):
        for j in range(i, 3):
            lhs = m @ alg.c[i, j]
            rhs = product(alg, m[:, i], m[:, j])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst / scale
