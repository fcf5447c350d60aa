"""Derivations of a commutative algebra and their spectral structure.

A derivation is a matrix D with D(u*v) = (Du)*v + u*(Dv).  The key objects
are the full derivation space, the closed-form eigenvalue analysis of a 3x3
matrix, the Jordan-Chevalley split, the search for a real-diagonalizable
invertible derivation, and the bookkeeping for diagonal derivations
diag(1, lambda, mu): which structure constants they allow and how a spectrum
normalizes to a standard representative.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import NAMED_SLOTS, Algebra
from .linalg import nullspace
from .tolerances import ILL_CONDITIONED_LIMIT, TAU_RANK, TAU_RES


class SingularSpectrum(ValueError):
    """A diagonal derivation needs all three eigenvalues nonzero."""


class IllConditioned(ArithmeticError):
    """Spectral projectors could not be assembled at acceptable accuracy."""


# ---------------------------------------------------------------------------
# Leibniz residual and the derivation space


def derivation_residual(alg: Algebra, m: np.ndarray) -> float:
    """max over basis pairs of |D(e_i e_j) - (De_i)e_j - e_i(De_j)|, relative."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m)))) * max(1.0, alg.scale)
    lhs = np.einsum("kl,ijl->ijk", m, alg.c)  # D(e_i e_j)
    # (De_i) e_j; with c symmetric, e_i (De_j) is the same array with i, j swapped
    left = np.einsum("ai,ajk->ijk", m, alg.c)
    return float(np.max(np.abs(lhs - (left + left.transpose(1, 0, 2))))) / scale


@dataclass
class DerivationSpace:
    dim: int
    basis: list  # list[np.ndarray (3,3)], orthonormal as 9-vectors


_PAIRS = np.array([(i, j) for i in range(3) for j in range(i, 3)])


def leibniz_operator(t: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """(18, 9) matrix of X -> X t[i, j] - L_j X e_i - L_i X e_j in the entries of X.

    Rows run over pairs i <= j and then the output index k; ls[a] is a 3x3
    matrix L_a.  With t = c and L_a = left multiplication by e_a this is the
    Leibniz rule, whose kernel is the derivation space; with L_a = L_{m e_a}
    it is the Jacobian of the conjugation residual m t[i, j] - m_i * m_j.
    Each entry is accumulated as ((0 + t) - L_j) - L_i.
    """
    i, j = _PAIRS.T
    ar = np.arange(3)
    rows = np.zeros((6, 3, 3, 3))  # (pair, k, a, b): coefficient of X[a, b]
    rows[:, ar, ar, :] += t[i, j][:, None, :]
    rows[np.arange(6), :, :, i] -= ls[j]
    rows[np.arange(6), :, :, j] -= ls[i]
    return rows.reshape(18, 9)


def _leibniz_matrix(c: np.ndarray) -> np.ndarray:
    """(18, 9) coefficient matrix of the Leibniz conditions in the entries of D."""
    return leibniz_operator(c, c.transpose(0, 2, 1))


def derivation_space(alg: Algebra) -> DerivationSpace:
    """Orthonormal basis of all derivations, by SVD of the Leibniz conditions."""
    norm, _ = alg.normalized()
    null = nullspace(_leibniz_matrix(norm.c), rtol=TAU_RANK)
    basis = [row.reshape(3, 3) for row in null]
    return DerivationSpace(dim=len(basis), basis=basis)


# ---------------------------------------------------------------------------
# closed-form spectral analysis


@dataclass
class SpectralReport:
    char_poly: np.ndarray          # monic [1, a2, a1, a0] of det(tI - M)
    eigenvalues: np.ndarray        # complex, length 3
    all_real: bool
    semisimple: bool
    nonsingular: bool
    spectrum: np.ndarray | None    # real eigenvalues sorted ascending
    multiplicity: str              # 'distinct' | 'double' | 'triple' | 'complex-pair'


def _cubic_roots(a2: float, a1: float, a0: float) -> tuple[np.ndarray, str]:
    """Roots of t^3 + a2 t^2 + a1 t + a0 via the discriminant split.

    Returns the roots and a multiplicity tag.  For 'double' the repeated
    root occupies the first two slots.
    """
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2 ** 3 / 27.0 - a2 * a1 / 3.0 + a0
    shift = a2 / 3.0
    s0 = max(1.0, abs(p) ** 0.5, abs(q) ** (1.0 / 3.0))
    disc = -4.0 * p ** 3 - 27.0 * q * q
    disc_n = disc / s0 ** 6

    if disc_n > TAU_RES:
        # three distinct real roots; p < 0 in this branch
        m = 2.0 * np.sqrt(-p / 3.0)
        arg = np.clip(3.0 * q / (p * m), -1.0, 1.0)
        theta = np.arccos(arg) / 3.0
        ks = np.array([0.0, 1.0, 2.0])
        roots = m * np.cos(theta - 2.0 * np.pi * ks / 3.0) - shift
        return roots.astype(complex), "distinct"
    if disc_n < -TAU_RES:
        rad = np.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        u = np.cbrt(-q / 2.0 + rad)
        v = np.cbrt(-q / 2.0 - rad)
        real = u + v - shift
        re = -(u + v) / 2.0 - shift
        im = (np.sqrt(3.0) / 2.0) * (u - v)
        return np.array([real, re + 1j * im, re - 1j * im]), "complex-pair"
    # boundary: repeated real roots
    if abs(p) <= 1e-6 * s0 ** 2:
        r = np.cbrt(-q) - shift
        return np.array([r, r, r], dtype=complex), "triple"
    u = -3.0 * q / (2.0 * p)
    return np.array([u, u, -2.0 * u], dtype=complex) - shift, "double"


def _rank3(m: np.ndarray) -> int:
    """Numerical rank of a 3x3 matrix, singular values above 1e-7 * max(1, s_max)."""
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-7 * max(1.0, s[0])))


def analyze_spectrum(m: np.ndarray) -> SpectralReport:
    """Eigenvalues of a real 3x3 matrix by the closed-form cubic, plus the
    all-real / semisimple / nonsingular verdicts used by the classifier."""
    m = np.asarray(m, dtype=float)
    tr = float(np.trace(m))
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    det = float(np.linalg.det(m))
    char = np.array([1.0, -tr, minors, -det])

    sigma = max(1.0, float(np.max(np.abs(m))))
    mn = m / sigma
    a2 = -float(np.trace(mn))
    a1 = (
        mn[1, 1] * mn[2, 2] - mn[1, 2] * mn[2, 1]
        + mn[0, 0] * mn[2, 2] - mn[0, 2] * mn[2, 0]
        + mn[0, 0] * mn[1, 1] - mn[0, 1] * mn[1, 0]
    )
    a0 = -float(np.linalg.det(mn))
    roots, kind = _cubic_roots(a2, float(a1), a0)
    roots = roots * sigma

    all_real = kind != "complex-pair"
    if kind == "distinct" or kind == "complex-pair":
        semisimple = True
    elif kind == "double":
        lam = roots[0].real
        semisimple = _rank3(m - lam * np.eye(3)) <= 1
    else:  # triple
        lam = roots[0].real
        semisimple = float(np.max(np.abs(m - lam * np.eye(3)))) <= 1e-7 * sigma

    nonsingular = abs(det) > TAU_RANK
    spectrum = np.sort(roots.real) if all_real else None
    return SpectralReport(
        char_poly=char,
        eigenvalues=roots,
        all_real=all_real,
        semisimple=semisimple,
        nonsingular=nonsingular,
        spectrum=spectrum,
        multiplicity=kind,
    )


def jordan_chevalley(
    m: np.ndarray, rep: SpectralReport | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Split m = S + N with S semisimple, N nilpotent, [S, N] = 0.

    S is assembled from spectral projectors, so it is a polynomial in m and
    the commutator vanishes identically.  A complex conjugate pair in 3x3 is
    automatically simple, hence m itself is semisimple in that branch.
    ``rep``, when given, is analyze_spectrum(m).
    """
    m = np.asarray(m, dtype=float)
    rep = rep or analyze_spectrum(m)
    eye = np.eye(3)
    if rep.multiplicity in ("distinct", "complex-pair"):
        return m.copy(), np.zeros((3, 3))
    if rep.multiplicity == "triple":
        lam = float(rep.eigenvalues[0].real)
        s = lam * eye
        return s, m - s
    lam = float(rep.eigenvalues[0].real)
    gamma = float(rep.eigenvalues[2].real)
    denom = (gamma - lam) ** 2
    sq = (m - lam * eye) @ (m - lam * eye)
    cond = float(np.linalg.norm(sq)) / abs(denom) if denom != 0.0 else np.inf
    if cond > ILL_CONDITIONED_LIMIT:
        raise IllConditioned(f"projector condition estimate {cond:.2e}")
    proj = sq / denom
    s = lam * (eye - proj) + gamma * proj
    return s, m - s


def real_part_matrix(m: np.ndarray, rep: SpectralReport | None = None) -> np.ndarray | None:
    """For a semisimple matrix with one complex pair, the commuting matrix
    acting by Re(eigenvalue) on each eigenspace; None when not applicable."""
    rep = rep or analyze_spectrum(m)
    if rep.all_real or rep.multiplicity != "complex-pair":
        return None
    gamma = float(rep.eigenvalues[0].real)
    alpha = float(rep.eigenvalues[1].real)
    beta = float(rep.eigenvalues[1].imag)
    denom = (gamma - alpha) ** 2 + beta ** 2
    if denom <= TAU_RANK:
        return None
    eye = np.eye(3)
    proj = ((m - alpha * eye) @ (m - alpha * eye) + beta ** 2 * eye) / denom
    return gamma * proj + alpha * (eye - proj)


def real_eigenbasis(m: np.ndarray, rep: SpectralReport | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of an all-real semisimple matrix.

    Repeated eigenvalues are clustered and served by orthonormal bases of
    their eigenspaces; raises IllConditioned when the numerical eigenspace
    dimensions disagree with the root multiplicities.
    """
    m = np.asarray(m, dtype=float)
    rep = rep or analyze_spectrum(m)
    if not (rep.all_real and rep.semisimple):
        raise IllConditioned("matrix is not real-diagonalizable")
    roots = np.sort(rep.eigenvalues.real)
    scale = max(1.0, float(np.max(np.abs(roots))))
    clusters: list[list[float]] = []
    for r in roots:
        if clusters and abs(r - clusters[-1][-1]) <= 1e-6 * scale:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    values = []
    columns = []
    for cl in clusters:
        lam = float(np.mean(cl))
        basis = nullspace(m - lam * np.eye(3), rtol=1e-7)
        if basis.shape[0] != len(cl):
            raise IllConditioned("eigenspace dimension does not match multiplicity")
        for row in basis:
            values.append(lam)
            columns.append(row)
    return np.array(values), np.array(columns).T


# ---------------------------------------------------------------------------
# search for a real-diagonalizable invertible derivation


# random candidates drawn before the sign patterns
SSND_RANDOM_CANDIDATES = 200


def find_real_ssnd(alg: Algebra, seed: int = 0) -> tuple[np.ndarray, SpectralReport] | None:
    """Look for a derivation that is semisimple with real nonzero eigenvalues.

    Candidates: the generator (and its negative) when the space is a line;
    otherwise SSND_RANDOM_CANDIDATES random coefficient vectors drawn from
    ``seed``, followed by all +-1/0 sign patterns of the basis.  A
    candidate with a repeated root is also replaced by its semisimple part,
    and one with a complex pair by the commuting real-spectrum component;
    both are again derivations, and each is kept only when its Leibniz
    residual is at most 1e-8.  The first candidate passing all three
    spectral tests wins; the search is not exhaustive and may miss.
    """
    space = derivation_space(alg)
    if space.dim == 0:
        return None
    flat = np.array([b.reshape(9) for b in space.basis])

    def vectors() -> "itertools.chain":
        if space.dim == 1:
            return itertools.chain([np.array([1.0]), np.array([-1.0])])
        rng = np.random.default_rng(seed)
        randoms = (rng.standard_normal(space.dim) for _ in range(SSND_RANDOM_CANDIDATES))
        patterns = (
            np.array(p, dtype=float)
            for p in itertools.product((0.0, 1.0, -1.0), repeat=space.dim)
            if any(p)
        )
        return itertools.chain(randoms, patterns)

    def attempt(cand: np.ndarray) -> tuple[np.ndarray, SpectralReport] | None:
        top = float(np.max(np.abs(cand)))
        if top <= TAU_RANK:
            return None
        cand = cand / top
        rep = analyze_spectrum(cand)
        if rep.all_real and rep.semisimple and rep.nonsingular:
            return cand, rep
        return None

    for coeffs in vectors():
        raw = (coeffs @ flat).reshape(3, 3)
        hit = attempt(raw)
        if hit:
            return hit
        rep = analyze_spectrum(raw)
        if rep.multiplicity in ("double", "triple"):
            # a repeated root may be defective: try the semisimple part
            try:
                sem, nil = jordan_chevalley(raw, rep)
            except IllConditioned:
                continue
            big = float(np.max(np.abs(nil))) > TAU_RES * max(1.0, float(np.max(np.abs(raw))))
            part = sem if big else None
        else:
            # None unless there is a complex pair
            part = real_part_matrix(raw, rep)
        # either part is a derivation in exact arithmetic, but its projectors
        # lose accuracy near a repeated root, so it is checked
        if part is not None and derivation_residual(alg, part) <= 1e-8:
            hit = attempt(part)
            if hit:
                return hit
    return None


# ---------------------------------------------------------------------------
# diagonal derivations diag(1, lambda, mu)


# diag(d) with d = (1, lam, mu) is a derivation of an algebra exactly when
# every constant c[i, j, k] with d_k - d_i - d_j != 0 vanishes.  Where k is
# i or j that difference is minus the weight of the other index, never zero
# for an invertible spectrum; each of the other nine constants survives on
# one line of the (lam, mu) plane, named here.
MASK_LINES: dict[str, str] = {
    "b": "lambda=2",
    "c": "mu=2",
    "d": "lambda=1/2",
    "g": "mu=1/2",
    "f": "mu=2*lambda",
    "h": "lambda=2*mu",
    "n": "mu=lambda+1",
    "q": "lambda=mu+1",
    "s": "lambda+mu=1",
}

# the conditional constants, letter -> tensor slot, in NAMED_SLOTS order
MASK_SLOTS = {letter: slot for letter, slot in NAMED_SLOTS.items() if letter in MASK_LINES}

# constants that vanish for every diagonal derivation with nonzero spectrum
ALWAYS_ZERO_LETTERS = tuple(letter for letter in NAMED_SLOTS if letter not in MASK_LINES)


def slot_defects(lam: float, mu: float) -> dict[str, float]:
    """d_k - (d_i + d_j) at d = (1, lam, mu) for each conditional letter; its
    constant survives diag(d) where this is zero."""
    d = (1.0, lam, mu)
    return {letter: d[k] - (d[i] + d[j]) for letter, (i, j, k) in MASK_SLOTS.items()}


@dataclass
class ConstantMask:
    lam: float
    mu: float
    allowed: dict  # letter -> bool for the nine conditional constants

    def allowed_letters(self) -> tuple[str, ...]:
        return tuple(sorted(k for k, v in self.allowed.items() if v))

    def allowed_slots(self) -> list[tuple[int, int, int]]:
        return [MASK_SLOTS[k] for k in self.allowed_letters()]

    def forbidden_letters(self) -> tuple[str, ...]:
        return tuple(sorted(k for k, v in self.allowed.items() if not v))


def admissible_mask(lam: float, mu: float) -> ConstantMask:
    """Which structure constants diag(1, lam, mu) permits to be nonzero.

    A constant c[i, j, k] survives the Leibniz condition exactly when
    d_k = d_i + d_j for the diagonal weights d = (1, lam, mu) (see
    MASK_LINES); each equality is decided up to TAU_RES (1 + |lam| + |mu|).
    """
    if abs(lam * mu) <= TAU_RANK * max(1.0, lam * lam + mu * mu):
        raise SingularSpectrum("diagonal derivation requires lambda * mu != 0")
    tol = TAU_RES * (1.0 + abs(lam) + abs(mu))
    allowed = {letter: abs(v) <= tol for letter, v in slot_defects(lam, mu).items()}
    return ConstantMask(lam=lam, mu=mu, allowed=allowed)


def mask_residual(alg: Algebra, mask: ConstantMask) -> float:
    """Largest forbidden constant, relative to the overall magnitude."""
    scale = max(1.0, alg.scale)
    worst = 0.0
    allowed = set(mask.allowed_slots())
    for letter, slot in NAMED_SLOTS.items():
        if slot in allowed:
            continue
        worst = max(worst, abs(float(alg.c[slot])))
    return worst / scale


def arrangement_lines(lam: float, mu: float) -> list[str]:
    """Names of the spectrum-constraint lines passing through (lam, mu), in
    MASK_LINES order."""
    tol = TAU_RES * (1.0 + abs(lam) + abs(mu))
    defects = slot_defects(lam, mu)
    return [name for letter, name in MASK_LINES.items() if abs(defects[letter]) <= tol]


@dataclass
class SpectrumCase:
    lam: float
    mu: float
    family: object                 # 1..9 or 'off-arrangement'
    representative: np.ndarray     # (1, lam, mu)
    scale: float                   # representative = scale * spec[permutation]
    permutation: tuple
    lines: list                    # arrangement lines through (lam, mu)


# 1/3 appears in only one direction of the doubling-line catalogue entry,
# but (1, 1/3, 2/3) rescales to (1, 2, 3), which the special list owns;
# the union of both directions keeps the special families unambiguous
_EXCL_RATIO2 = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
_EXCL_DOUBLING = (-1.0, 0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0)
_EXCL_SHIFT = (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0)
_EXCL_SUM1 = (-1.0, 0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 2.0)


def _match_family(lam: float, mu: float) -> int | None:
    """Prop-family of a sorted normalized spectrum (1, lam, mu), or None."""
    tol = 1e-9 * (1.0 + abs(lam) + abs(mu))

    def eq(x: float, y: float) -> bool:
        return abs(x - y) <= tol

    def excluded(x: float, vals: tuple) -> bool:
        return any(abs(x - v) <= tol for v in vals)

    specials = {(-1.0, 2.0): 1, (2.0, 4.0): 2, (1.0, 2.0): 3, (2.0, 2.0): 4, (2.0, 3.0): 5}
    for (sl, sm), fam in specials.items():
        if eq(lam, sl) and eq(mu, sm):
            return fam
    if eq(lam, 2.0) and not excluded(mu, _EXCL_RATIO2):
        return 6
    if eq(mu, 2.0) and not excluded(lam, _EXCL_RATIO2):
        return 6
    if eq(mu, 2.0 * lam) and not excluded(lam, _EXCL_DOUBLING):
        return 7
    if eq(lam, 2.0 * mu) and not excluded(mu, _EXCL_DOUBLING):
        return 7
    if eq(mu, lam + 1.0) and not excluded(lam, _EXCL_SHIFT):
        return 8
    if eq(lam + mu, 1.0) and not excluded(lam, _EXCL_SUM1):
        return 9
    return None


def normalize_spectrum(spec) -> SpectrumCase:
    """Scale a nonzero real triple into a standard representative (1, lam, mu).

    Each entry is tried as the divisor, the remaining pair is sorted
    ascending, and candidates falling in the representative catalogue are
    kept; ties break to the lexicographically smallest (lam, mu).  When no
    candidate is in the catalogue the spectrum is off the arrangement and
    the smallest normalization is reported.
    """
    spec = np.asarray(spec, dtype=float)
    if spec.shape != (3,):
        raise ValueError("spectrum must be a real triple")
    top = float(np.max(np.abs(spec)))
    if top == 0.0 or float(np.min(np.abs(spec))) <= TAU_RANK * max(1.0, top):
        raise SingularSpectrum("spectrum entries must all be nonzero")

    candidates = []
    for i in range(3):
        d = spec[i]
        rest = [j for j in range(3) if j != i]
        vals = [(spec[j] / d, j) for j in rest]
        vals.sort(key=lambda t: t[0])
        lam, jl = vals[0]
        mu, jm = vals[1]
        fam = _match_family(lam, mu)
        candidates.append(
            SpectrumCase(
                lam=lam,
                mu=mu,
                family=fam if fam is not None else "off-arrangement",
                representative=np.array([1.0, lam, mu]),
                scale=1.0 / d,
                permutation=(i, jl, jm),
                lines=arrangement_lines(lam, mu),
            )
        )

    in_list = [c for c in candidates if c.family != "off-arrangement"]
    pool = in_list if in_list else candidates
    best = min(pool, key=lambda c: (c.lam, c.mu))
    return best
