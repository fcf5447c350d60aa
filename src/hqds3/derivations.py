"""Derivations of a commutative algebra and their spectral structure.

A derivation is a matrix D with D(u*v) = (Du)*v + u*(Dv).  The key objects
are the full derivation space; the spectral report of a 3x3 matrix, which
holds the matrix, its eigenvalues from one eigvals call and, for a real
spectrum, its eigenbasis from one stacked SVD, whose ranks alone decide
semisimplicity; one spectral projector for its Jordan-Chevalley split and
real part; the search for a real-diagonalizable invertible derivation,
which returns that derivation's report; and the bookkeeping for diagonal
derivations diag(1, lambda, mu): which structure constants they allow and
how a spectrum normalizes to a standard representative.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import NAMED_SLOTS, Algebra, invariant
from .linalg import nullspace
from .tolerances import ILL_CONDITIONED_LIMIT, TAU_RANK, TAU_RES


class SingularSpectrum(ValueError):
    """A diagonal derivation needs all three eigenvalues nonzero."""


def _require_nonsingular(d) -> None:
    """Raise SingularSpectrum, stating the rule and the values, when the real
    spectrum d has min |d| <= TAU_RANK max(1, max |d|); nothing overflows."""
    d = np.asarray(d, dtype=float)
    low, cut = float(np.min(np.abs(d))), TAU_RANK * max(1.0, float(np.abs(d).max()))
    if low <= cut:
        raise SingularSpectrum(
            f"spectrum d = {tuple(d.tolist())} is singular: "
            f"min |d| = {low!r} <= TAU_RANK * max(1, max |d|) = {cut!r}"
        )


class IllConditioned(ArithmeticError):
    """Spectral projectors could not be assembled at acceptable accuracy."""


# ---------------------------------------------------------------------------
# the Leibniz conditions, their residual and the derivation space


# the six basis pairs i <= j, the row order of every per-pair stack
PAIRS = np.array([(i, j) for i in range(3) for j in range(i, 3)])


def _leibniz_index() -> np.ndarray:
    """(3, 18, 9) positions, in [0, t.ravel(), ls.ravel()], of the t, L_j and
    L_i term of each entry of leibniz_operator; position 0 holds the 0 of an
    entry without that term.  Row (pair, k), column (a, b): the coefficient
    of X[a, b]."""
    i, j = PAIRS.T
    ar, pairs = np.arange(3), np.arange(6)
    t_at = 1 + np.arange(27).reshape(3, 3, 3)
    ls_at = 28 + np.arange(27).reshape(3, 3, 3)
    index = np.zeros((3, 6, 3, 3, 3), dtype=np.intp)  # (term, pair, k, a, b)
    index[0][:, ar, ar, :] = t_at[i, j][:, None, :]
    index[1][pairs, :, :, i] = ls_at[j]
    index[2][pairs, :, :, j] = ls_at[i]
    return index.reshape(3, 18, 9)


_LEIBNIZ_INDEX = _leibniz_index()
_ZERO = np.zeros(1)


def leibniz_operator(t: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """(18, 9) matrix of X -> X t[i, j] - L_j X e_i - L_i X e_j in the entries of X.

    Rows run over pairs i <= j and then the output index k; ls[a] is a 3x3
    matrix L_a.  With t = c and L_a = left multiplication by e_a this is the
    Leibniz rule, whose kernel is the derivation space; with L_a = L_{m e_a}
    it is the Jacobian of the conjugation residual m t[i, j] - m_i * m_j.
    Each entry is accumulated as ((0 + t) - L_j) - L_i, from one gather of
    its three terms (_LEIBNIZ_INDEX).
    """
    terms = np.concatenate((_ZERO, t.ravel(), ls.ravel()))[_LEIBNIZ_INDEX]
    return 0.0 + terms[0] - terms[1] - terms[2]


@invariant
def leibniz_matrix(alg: Algebra) -> np.ndarray:
    """Read-only (18, 9) coefficient matrix of the Leibniz conditions in the
    entries of D, for the normalized table."""
    lm = leibniz_operator(alg.c, alg.c.transpose(0, 2, 1))
    lm.setflags(write=False)
    return lm


def derivation_residual(alg: Algebra, m: np.ndarray) -> float:
    """max over pairs i <= j of |D(e_i e_j) - (De_i)e_j - e_i(De_j)| on the
    normalized table, read off leibniz_matrix(alg) @ vec(D), over
    max(1, max |m_ij|)."""
    m = np.asarray(m, dtype=float)
    return float(np.abs(leibniz_matrix(alg) @ m.ravel()).max()) / max(1.0, float(np.abs(m).max()))


@invariant
def derivation_space(alg: Algebra) -> np.ndarray:
    """Basis of all derivations, by SVD of the Leibniz conditions: a
    read-only (dim, 3, 3) array, orthonormal as 9-vectors."""
    null = nullspace(leibniz_matrix(alg))
    null.setflags(write=False)  # so is the basis, a view of it
    return null.reshape(-1, 3, 3)


# ---------------------------------------------------------------------------
# spectral analysis from one eigenvalue call


_EYE = np.eye(3)


@dataclass
class SpectralReport:
    matrix: np.ndarray             # the matrix analysed
    eigenvalues: np.ndarray        # real ascending, or complex: real root, pair
    eigenvectors: np.ndarray | None  # column i for eigenvalue i; real, semisimple
    all_real: bool
    semisimple: bool
    nonsingular: bool
    multiplicity: str              # 'distinct' | 'double' | 'triple' | 'complex-pair'


def analyze_spectrum(m: np.ndarray) -> SpectralReport:
    """Eigenvalues of a real 3x3 matrix, its eigenbasis when it has one, and
    the all-real / semisimple / nonsingular verdicts used by the classifier.

    The roots come from one ``np.linalg.eigvals`` call in units of
    sigma = max(1, max |m_ij|), centred at their mean: y = roots - mean,
    p = e2(y), q = -e3(y) and s0 = max(1, |p|^(1/2), |q|^(1/3)).  A root is
    repeated when the discriminant prod (y_i - y_j)^2 is within TAU_RES * s0^6
    of zero, and triple when also |p| <= 1e-6 * s0^2; otherwise a negative
    discriminant is a complex pair.  A repeated root is reported as its
    cluster's mean.  A real spectrum is semisimple when, for each distinct
    root lam of multiplicity k, m - lam I has rank 3 - k, the singular
    values of one stacked SVD cut at 1e-7 * max(1, s_max); the right
    singular vectors past each rank are then orthonormal bases of the
    eigenspaces, and their columns the eigenvectors.  A complex pair is
    simple, so semisimple, with no real eigenbasis.  nonsingular is
    |det m| = |r0 r1 r2| sigma^3 > TAU_RANK, on the roots r in units of sigma.
    """
    m = np.asarray(m, dtype=float)
    sigma = max(1.0, float(np.abs(m).max()))
    roots = np.linalg.eigvals(m / sigma).tolist()
    nonsingular = abs(roots[0] * roots[1] * roots[2]) * sigma * sigma * sigma > TAU_RANK
    centre = sum(roots) / 3.0
    y = [r - centre for r in roots]
    p = (y[0] * y[1] + y[0] * y[2] + y[1] * y[2]).real
    q = -(y[0] * y[1] * y[2]).real
    s0 = max(1.0, abs(p) ** 0.5, abs(q) ** (1.0 / 3.0))
    disc = (((y[0] - y[1]) * (y[0] - y[2]) * (y[1] - y[2])) ** 2).real / s0 ** 6

    # a real spectrum as (root, multiplicity) pairs, in units of sigma
    if abs(disc) > TAU_RES:
        kind = "distinct" if disc > 0.0 else "complex-pair"
        roots.sort(key=lambda r: abs(r.imag))  # a complex pair's real root first
        groups = [(r.real, 1) for r in roots]
    elif abs(p) <= 1e-6 * s0 ** 2:
        kind = "triple"
        groups = [(centre.real, 3)]
    else:
        kind = "double"
        # the simple root lies twice as far from the centre as the pair
        odd = max(range(3), key=lambda i: abs(y[i]))
        lam = sum(roots[k] for k in range(3) if k != odd).real / 2.0
        groups = [(roots[odd].real, 1), (lam, 2)]

    vectors = None
    if kind == "complex-pair":
        roots = sigma * np.array(roots, dtype=complex)
    else:
        groups = sorted((sigma * root, k) for root, k in groups)
        values = np.array([root for root, _ in groups])
        roots = np.array([root for root, k in groups for _ in range(k)])
        _, sv, vh = np.linalg.svd(m - values[:, None, None] * _EYE)
        # the singular values above each row's cut
        ranks = [sum(map((1e-7 * max(row[0], 1.0)).__lt__, row)) for row in sv.tolist()]
        if all(rank == 3 - k for rank, (_, k) in zip(ranks, groups)):
            vectors = np.concatenate([basis[rank:] for basis, rank in zip(vh, ranks)]).T

    return SpectralReport(
        matrix=m,
        eigenvalues=roots,
        eigenvectors=vectors,
        all_real=kind != "complex-pair",
        semisimple=kind == "complex-pair" or vectors is not None,
        nonsingular=nonsingular,
        multiplicity=kind,
    )


def real_semisimple_part(rep: SpectralReport) -> np.ndarray:
    """The matrix acting by Re(lambda) on each generalized eigenspace of
    m = rep.matrix, read off its report.

    With a real spectrum this is the semisimple part of m, and with a
    complex pair its real part.  Either is a polynomial in m, so it commutes
    with m and is a derivation whenever m is one.  For a simple real root
    gamma whose two companions are the roots of the monic quadratic
    q(t) = (t - alpha)^2 + beta^2 (a repeated root alpha, or alpha +- i beta),
    q(m) / q(gamma) projects onto gamma's line.  Raises IllConditioned when
    |q(m)| / q(gamma) exceeds ILL_CONDITIONED_LIMIT.
    """
    m, ev = rep.matrix, rep.eigenvalues
    if rep.multiplicity == "distinct":
        return m.copy()
    # ascending real roots put a repeated one in the middle, and a complex
    # pair follows its real root
    gamma = float((ev[2] if ev[0] == ev[1] else ev[0]).real)
    if rep.multiplicity == "triple":
        return gamma * np.eye(3)
    alpha, beta = float(ev[1].real), float(ev[1].imag)
    eye = np.eye(3)
    qm = (m - alpha * eye) @ (m - alpha * eye) + beta ** 2 * eye
    qg = (gamma - alpha) ** 2 + beta ** 2
    cond = float(np.linalg.norm(qm)) / qg if qg != 0.0 else np.inf
    if cond > ILL_CONDITIONED_LIMIT:
        raise IllConditioned(f"projector condition estimate {cond:.2e}")
    proj = qm / qg
    return gamma * proj + alpha * (eye - proj)


def jordan_chevalley(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split m = S + N with S semisimple, N nilpotent, [S, N] = 0.

    S is real_semisimple_part of m's report, a polynomial in m, so the
    commutator vanishes identically.  A complex conjugate pair in 3x3 is
    automatically simple, hence m itself is semisimple in that branch.
    """
    rep = analyze_spectrum(m)
    if rep.multiplicity == "complex-pair":
        return rep.matrix.copy(), np.zeros((3, 3))
    s = real_semisimple_part(rep)
    return s, rep.matrix - s


# ---------------------------------------------------------------------------
# search for a real-diagonalizable invertible derivation


def find_real_ssnd(alg: Algebra) -> SpectralReport | None:
    """Look for a derivation that is semisimple with real nonzero
    eigenvalues, and return its report: the SSND is the report's matrix.

    Candidates: the 3^dim - 1 nonzero +-1/0 sign patterns of the basis, in
    itertools.product order over (0, 1, -1), so a line's generator comes
    before its negative.  Each candidate is scaled to largest entry 1 and
    analysed once.  One that misses with a defective or complex spectrum is
    replaced by its real_semisimple_part, again a derivation, kept only when
    its Leibniz residual, judged on the normalized table as every Leibniz
    residual is, is at most 1e-8.  The first candidate passing all three
    spectral tests is returned; the search is not exhaustive, so None is a
    miss, not a proof of absence.
    """
    flat = derivation_space(alg).reshape(-1, 9)

    def analysed(cand: np.ndarray) -> SpectralReport | None:
        top = float(np.abs(cand).max())
        return analyze_spectrum(cand / top) if top > TAU_RANK else None

    for coeffs in itertools.product((0.0, 1.0, -1.0), repeat=len(flat)):
        rep = analysed(np.dot(coeffs, flat).reshape(3, 3))
        if rep is not None and not (rep.all_real and rep.semisimple):
            # the part is a derivation in exact arithmetic, but its projector
            # loses accuracy near a repeated root, so it is checked
            try:
                part = real_semisimple_part(rep)
            except IllConditioned:
                continue
            rep = analysed(part) if derivation_residual(alg, part) <= 1e-8 else None
        if rep is not None and rep.all_real and rep.semisimple and rep.nonsingular:
            return rep
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

# constants that vanish for every diagonal derivation with nonzero spectrum
ALWAYS_ZERO_LETTERS = tuple(letter for letter in NAMED_SLOTS if letter not in MASK_LINES)

# the slots (i, j, k) of the 18 named constants, in NAMED_SLOTS order, and
# the row d_k - d_i - d_j of each one's spectrum relation
SLOT_ARRAY = np.array(list(NAMED_SLOTS.values()))
RELATIONS = (
    np.eye(3)[SLOT_ARRAY[:, 2]] - np.eye(3)[SLOT_ARRAY[:, 0]] - np.eye(3)[SLOT_ARRAY[:, 1]]
)
_CONDITIONAL = np.array([letter in MASK_LINES for letter in NAMED_SLOTS])


def spectrum_admits(w) -> np.ndarray:
    """Which of the 18 named constants, in NAMED_SLOTS order, diag(w) lets
    survive: the conditional ones whose relation d_k = d_i + d_j the
    spectrum w meets up to TAU_RES * sum |w|."""
    w = np.asarray(w, dtype=float)
    return _CONDITIONAL & (np.abs(RELATIONS @ w) <= TAU_RES * float(np.abs(w).sum()))


def _letters_on(lam: float, mu: float) -> tuple[str, ...]:
    """The conditional letters whose line passes through (lam, mu), in
    NAMED_SLOTS order, which is alphabetical."""
    return tuple(itertools.compress(NAMED_SLOTS, spectrum_admits((1.0, lam, mu))))


def admissible_mask(lam: float, mu: float) -> tuple[str, ...]:
    """The letters of the structure constants diag(1, lam, mu) permits to be
    nonzero, in NAMED_SLOTS order, which is alphabetical.

    A constant c[i, j, k] survives the Leibniz condition exactly when
    d_k = d_i + d_j for the diagonal weights d = (1, lam, mu) (see
    MASK_LINES); each equality is decided up to TAU_RES (1 + |lam| + |mu|).
    Raises SingularSpectrum when d is singular (_require_nonsingular).
    """
    _require_nonsingular((1.0, lam, mu))
    return _letters_on(lam, mu)


def arrangement_lines(lam: float, mu: float) -> list[str]:
    """Names of the spectrum-constraint lines passing through (lam, mu), in
    MASK_LINES order."""
    on = _letters_on(lam, mu)
    return [name for letter, name in MASK_LINES.items() if letter in on]


@dataclass
class SpectrumCase:
    lam: float
    mu: float
    family: object                 # 1..9 or 'off-arrangement'
    representative: np.ndarray     # (1, lam, mu)
    scale: float                   # representative = scale * spec[permutation]
    permutation: tuple


# the family of a point on one line only; the lines d, g and q are the same
# spectra seen from another divisor, which normalize_spectrum prefers
_LINE_FAMILY = {"b": 6, "c": 6, "f": 7, "h": 7, "n": 8, "s": 9}

# the five special spectra (1, lam, mu), keyed by the letters of the lines
# through them: (-1, 2), (2, 4), (1, 2), (2, 2) and (2, 3)
_POINT_FAMILY = {("c", "s"): 1, ("b", "f"): 2, ("c", "f", "n"): 3, ("b", "c"): 4, ("b", "n"): 5}


def _match_family(lam: float, mu: float) -> int | None:
    """Prop-family of a sorted normalized spectrum (1, lam, mu) with
    lam * mu != 0, or None, read off the lines through it: one line gives
    its own family, two or more one of the five special points."""
    on = _letters_on(lam, mu)
    if len(on) == 1:
        return _LINE_FAMILY.get(on[0])
    return _POINT_FAMILY.get(on)


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
    _require_nonsingular(spec)

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
            )
        )

    in_list = [c for c in candidates if c.family != "off-arrangement"]
    pool = in_list if in_list else candidates
    best = min(pool, key=lambda c: (c.lam, c.mu))
    return best
