"""Small dense linear-algebra helpers shared across modules.

Everything here is a thin, tolerance-aware wrapper around numpy's SVD; the
callers only ever deal with 3-vectors, 3x3 matrices and stacks thereof.
"""
from __future__ import annotations

import numpy as np

from .tolerances import TAU_RANK


def rank_and_rowspace(rows: np.ndarray) -> tuple[int, np.ndarray]:
    """Numerical rank and an orthonormal basis (rows) of the row space; the
    rank counts singular values above TAU_RANK * max(1, s_max)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        return 0, np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0))
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, np.zeros((0, rows.shape[1]))
    r = int(np.count_nonzero(s > TAU_RANK * max(1.0, s[0])))
    return r, vh[:r]


def nullspace(mat: np.ndarray, rtol: float = TAU_RANK) -> np.ndarray:
    """Orthonormal basis (rows) of the right nullspace of ``mat``."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    n = mat.shape[1]
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n)
    cut = rtol * max(1.0, s[0])
    nz = int(np.count_nonzero(s > cut))
    return vh[nz:]


def project_onto(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of v onto the row space of an orthonormal basis."""
    if rows.size == 0:
        return np.zeros_like(v)
    return rows.T @ (rows @ v)


def contains_vector(rows: np.ndarray, v: np.ndarray, rtol: float = 1e-7) -> bool:
    """Whether v lies in the span of the orthonormal rows, up to rtol * |v|."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return True
    return float(np.linalg.norm(v - project_onto(rows, v))) <= rtol * max(1.0, nv)


def unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def sign_canonical(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude entry is positive (stable line label)."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v.copy()


def random_well_conditioned(rng: np.random.Generator) -> np.ndarray:
    """Random invertible 3x3 with condition number below 100."""
    while True:
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sv = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=3))
        m = q1 @ np.diag(sv) @ q2
        if np.linalg.cond(m) < 100.0:
            return m
