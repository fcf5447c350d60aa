"""Structure-constant plumbing: products, subspaces, flags, cone, idempotents."""
import dataclasses
import inspect
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqds3 import algebra, cli
from hqds3.algebra import (
    NAMED_SLOTS,
    Algebra,
    NilconeDescriptor,
    NonIsolatedIdempotents,
    SingularBasis,
    StructureFlags,
    annihilator,
    automorphism_residual,
    change_of_basis,
    from_named,
    from_products,
    _first_come_distinct,
    idempotents,
    left_mult_matrix,
    nilpotent_cone,
    product,
    square_ideal,
    square_map,
    structure_flags,
    subspace_check,
)
from hqds3.catalog import canonical_algebra, conjugated_canonical, random_symmetric_algebra
from hqds3.classify import classify, classify_via_derivation
from hqds3.derivations import derivation_space, leibniz_matrix
from hqds3.dynamics import linear_first_integrals
from hqds3.linalg import contains_vector, rank_and_rowspace, random_well_conditioned, sign_canonical, unit
from hqds3.tolerances import TAU_DEDUP, TAU_RANK, TAU_RES

from corpora import random_mask_algebra, random_mask_spectrum

ATOL = 1e-12
RES_TOL = 1e-9
# line directions on a doubled line are sqrt(residual)-accurate transversally
CONE_DIR_TOL = 1e-7

TAGS = ("A1", "A2", "A3", "A4")
CONE_KIND = {"A1": "two-lines", "A2": "plane", "A3": "two-planes", "A4": "one-line"}


def test_named_slots_cover_upper_triangle():
    assert len(NAMED_SLOTS) == 18
    assert len(set(NAMED_SLOTS.values())) == 18
    for i, j, k in NAMED_SLOTS.values():
        assert i <= j


def test_from_named_sets_both_symmetric_slots():
    alg = from_named(n=2.5)
    assert alg.c[0, 1, 2] == 2.5
    assert alg.c[1, 0, 2] == 2.5
    assert np.count_nonzero(alg.c) == 2


def test_from_named_rejects_unknown_letter():
    with pytest.raises(ValueError):
        from_named(w=1.0)


def test_asymmetric_tensor_rejected():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # mirror slot left unset on purpose
    with pytest.raises(ValueError):
        Algebra(c)


def test_nonfinite_tensor_rejected():
    c = np.zeros((3, 3, 3))
    c[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Algebra(c)


def test_algebra_owns_a_read_only_copy():
    c = np.array(canonical_algebra("A1").c)
    alg = Algebra(c)
    assert c.flags.writeable
    assert not alg.c.flags.writeable
    with pytest.raises(ValueError):
        alg.c[0, 0, 0] = 5.0
    c[0, 0, 0] = 5.0
    assert alg.c[0, 0, 0] == 0.0
    with pytest.raises(AttributeError):
        alg.c = c


# constants, the exponent of their normalization, and the tag of both routes
NORMALIZATION_CASES = [
    ({"a": 4.0, "n": 2.0}, 2, None),
    ({"c": 1.5e308, "s": 1.5e308}, 1024, "A1"),
    ({"c": 1e-320, "s": 1e-320}, -1063, "NotInFamily"),
]


def test_normalized_is_one_object_per_algebra():
    # the power of two 2^e puts the max magnitude in (1/2, 1] exactly: an
    # exact power of two divides to 1, and neither 2^1024, which is no
    # float, nor a subnormal table overflows.  The A1 shape e1 e1 = s e3,
    # e2 e3 = s e1 keeps its tag with a finite certificate at 1.5e308; at
    # 1e-320 its certificate is beyond the float range, so it is NotInFamily
    for constants, e, tag in NORMALIZATION_CASES:
        alg = from_named(**constants)
        norm, got = alg.normalized()
        assert got == e
        assert np.array_equal(norm.c, np.ldexp(alg.c, -e))
        assert 0.5 < norm.scale <= 1.0
        assert alg.normalized()[0] is norm
        assert norm.normalized()[0] is norm
        assert norm.normalized()[1] == 0
        for res in (classify(alg), classify_via_derivation(alg)) if tag else ():
            assert res.tag == tag
            assert tag == "NotInFamily" or np.isfinite(res.certificate).all()
    alg = from_named(a=4.0, n=2.0)
    assert np.array_equal(alg.normalized()[0].c, alg.c / 4.0)


def test_asymmetric_tensor_message_is_one_based():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    with pytest.raises(ValueError, match=r"c\[1\]\[2\]\[3\] != c\[2\]\[1\]\[3\]") as info:
        Algebra(c)
    assert "not symmetrized automatically" in str(info.value)


def test_product_oracle_a3():
    # e1*e2 = e3, so (e1 + e2)^2 = 2 e3
    alg = canonical_algebra("A3")
    x = np.array([1.0, 1.0, 0.0])
    np.testing.assert_allclose(product(alg, x, x), [0.0, 0.0, 2.0], atol=ATOL)
    np.testing.assert_allclose(square_map(alg, x), [0.0, 0.0, 2.0], atol=ATOL)


def test_squares_batch_matches_square_map():
    # square_map on an (n, 3) stack squares each row as it would alone
    rng = np.random.default_rng(0)
    alg = random_symmetric_algebra(rng)
    xs = rng.standard_normal((7, 3))
    batch = square_map(alg, xs)
    assert batch.shape == (7, 3)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(batch[i], square_map(alg, x), atol=ATOL)


def test_left_mult_matrix_oracle_a1():
    # in A1 the only products through e2 are e2*e3 = e1
    alg = canonical_algebra("A1")
    l2 = left_mult_matrix(alg, np.array([0.0, 1.0, 0.0]))
    expect = np.zeros((3, 3))
    expect[0, 2] = 1.0
    np.testing.assert_allclose(l2, expect, atol=ATOL)


def test_change_of_basis_diagonal_oracle():
    # columns (2e1, 3e2, 4e3) on e1*e2 = e3: product 6 e3 = 1.5 * (4 e3)
    alg = canonical_algebra("A3")
    new = change_of_basis(alg, np.diag([2.0, 3.0, 4.0]))
    assert abs(new.c[0, 1, 2] - 1.5) < ATOL
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[0, 1, 2] = mask[1, 0, 2] = False
    assert np.max(np.abs(new.c[mask])) < ATOL


def test_change_of_basis_functorial():
    rng = np.random.default_rng(1)
    alg = random_symmetric_algebra(rng)
    m = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    n = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    once = change_of_basis(alg, m @ n)
    twice = change_of_basis(change_of_basis(alg, m), n)
    np.testing.assert_allclose(once.c, twice.c, atol=1e-10)


def test_change_of_basis_singular_raises():
    alg = canonical_algebra("A2")
    with pytest.raises(SingularBasis):
        change_of_basis(alg, np.zeros((3, 3)))


def test_scaling_is_inverse_identity_basis_change():
    alg = canonical_algebra("A1")
    scaled = Algebra(4.0 * alg.c)
    back = change_of_basis(scaled, 0.25 * np.eye(3))
    np.testing.assert_allclose(back.c, alg.c, atol=ATOL)


def test_annihilator_dims_canonical():
    dims = {tag: len(annihilator(canonical_algebra(tag))) for tag in TAGS}
    assert dims == {"A1": 0, "A2": 2, "A3": 1, "A4": 1}


def test_square_ideal_dims_canonical():
    dims = {tag: len(square_ideal(canonical_algebra(tag))) for tag in TAGS}
    assert dims == {"A1": 2, "A2": 1, "A3": 1, "A4": 1}


def test_square_ideal_matches_the_list_build():
    # the six product rows c[i, j], i <= j, built by a list comprehension
    # before one triu_indices gather replaced it
    rng = np.random.default_rng(16)
    algs = [canonical_algebra(tag) for tag in TAGS] + [Algebra(np.zeros((3, 3, 3)))]
    algs += [conjugated_canonical(tag, rng)[0] for tag in TAGS for _ in range(10)]
    algs += [random_symmetric_algebra(rng) for _ in range(40)]
    algs += [from_named(b=1.0), from_named(a=2.0, e=-1.0), from_named(k=1.0, q=3.0)]
    for alg in algs:
        c = alg.normalized()[0].c
        rows = np.array([c[i, j] for i in range(3) for j in range(i, 3)])
        assert np.array_equal(square_ideal(alg), rank_and_rowspace(rows)[1])


@pytest.mark.parametrize("shape, rows_shape", [((0, 3), (0, 3)), ((1, 0), (0, 0))])
def test_rank_and_rowspace_of_an_empty_stack(shape, rows_shape):
    # the SVD returns no singular values for an empty input, which reads as
    # rank 0 with no rows of the input's width
    r, rows = rank_and_rowspace(np.zeros(shape))
    assert r == 0
    assert rows.shape == rows_shape


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "random", "zero"])
def test_memoized_subspaces_are_read_only_contiguous_rows(kind):
    # every memoized subspace is a C-contiguous (k, 3) array of orthonormal
    # rows that refuses writes; the cone keeps private copies of the rows
    # it is given, so freezing them leaves the caller's arrays writable
    rng = np.random.default_rng(9)
    if kind == "random":
        alg = random_symmetric_algebra(rng)
    elif kind == "zero":
        alg = Algebra(np.zeros((3, 3, 3)))
    else:
        alg = conjugated_canonical(kind, rng)[0]
    cone = nilpotent_cone(alg)
    subspaces = [annihilator(alg), square_ideal(alg), *cone.lines, *cone.planes]
    for rows in subspaces:
        assert rows.ndim == 2 and rows.shape[1] == 3
        assert rows.flags.c_contiguous and not rows.flags.writeable
        np.testing.assert_allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-12)
        if len(rows):
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0
    assert all(len(line) == 1 for line in cone.lines)
    assert all(len(plane) == 2 for plane in cone.planes)
    space = derivation_space(alg)
    assert space.shape[1:] == (3, 3) and not space.flags.writeable
    line = np.array([[1.0, 0.0, 0.0]])
    NilconeDescriptor("one-line", (line,))
    line[0, 0] = -1.0


def test_a2_annihilator_content():
    ann = annihilator(canonical_algebra("A2"))
    assert contains_vector(ann, np.array([1.0, 0.0, 0.0]))
    assert contains_vector(ann, np.array([0.0, 1.0, 0.0]))
    assert not contains_vector(ann, np.array([0.0, 0.0, 1.0]))


def test_a1_power_associativity_witness():
    # x = e2 + e3: x^2 = 2 e1, x^2 * x^2 = 4 e3, but ((x^2) x) x = 0
    alg = canonical_algebra("A1")
    x = np.array([0.0, 1.0, 1.0])
    sq = square_map(alg, x)
    np.testing.assert_allclose(sq, [2.0, 0.0, 0.0], atol=ATOL)
    np.testing.assert_allclose(product(alg, sq, sq), [0.0, 0.0, 4.0], atol=ATOL)
    np.testing.assert_allclose(product(alg, product(alg, sq, x), x), np.zeros(3), atol=ATOL)


def test_structure_flags_canonical():
    flags = {tag: structure_flags(canonical_algebra(tag)) for tag in TAGS}
    assert not flags["A1"].associative
    assert not flags["A1"].power_associative
    assert flags["A1"].solvable
    assert not flags["A1"].nilpotent
    for tag in ("A2", "A3", "A4"):
        f = flags[tag]
        assert f.solvable and f.nilpotent and f.associative and f.power_associative


def test_subspace_check_a1():
    alg = canonical_algebra("A1")
    sq = square_ideal(alg)  # span(e1, e3)
    chk = subspace_check(alg, sq)
    assert chk.closed and chk.ideal
    ann_like = square_ideal(canonical_algebra("A2"))  # span(e2), not an ideal of A1
    chk2 = subspace_check(alg, ann_like)
    assert chk2.closed
    assert not chk2.ideal


def test_nilcone_kinds_canonical():
    expected = {"A1": "two-lines", "A2": "plane", "A3": "two-planes", "A4": "one-line"}
    for tag, kind in expected.items():
        assert nilpotent_cone(canonical_algebra(tag)).kind == kind


def test_nilcone_whole_space_and_plane():
    assert nilpotent_cone(Algebra(np.zeros((3, 3, 3)))).kind == "whole-space"
    # x*x = x1^2 e1 vanishes exactly on the plane x1 = 0
    assert nilpotent_cone(from_named(a=1.0)).kind == "plane"


def test_nilcone_a1_line_directions():
    cone = nilpotent_cone(canonical_algebra("A1"))
    dirs = sorted(tuple(np.round(line[0], 9)) for line in cone.lines)
    np.testing.assert_allclose(dirs[0], [0.0, 0.0, 1.0], atol=CONE_DIR_TOL)
    np.testing.assert_allclose(dirs[1], [0.0, 1.0, 0.0], atol=CONE_DIR_TOL)


def test_nilcone_samples_are_steady():
    for tag in TAGS:
        alg = canonical_algebra(tag)
        cone = nilpotent_cone(alg)
        assert cone.samples.shape[0] > 0
        res = np.max(np.abs(square_map(alg, cone.samples)))
        assert res < 1e-12


def test_nilcone_takes_no_seed_or_sample_count():
    assert list(inspect.signature(nilpotent_cone).parameters) == ["alg"]


@pytest.mark.parametrize("tag, axes", [("A1", (1, 2)), ("A4", (2,))])
def test_nilcone_lines_match_the_conjugation(tag, axes):
    # the canonical cone lines e_k are the lines of m^-1 e_k in the
    # coordinates of change_of_basis(table, m)
    for seed in range(300):
        alg, m = conjugated_canonical(tag, np.random.default_rng(seed))
        lines = [line[0] for line in nilpotent_cone(alg).lines]
        assert len(lines) == len(axes)
        for k in axes:
            w = np.linalg.solve(m, np.eye(3)[k])
            w /= np.linalg.norm(w)
            gap = min(min(np.linalg.norm(u - w), np.linalg.norm(u + w)) for u in lines)
            assert gap <= 1e-12, (seed, k, gap)


def test_nilcone_a4_line_is_not_doubled():
    # A4 conjugates 43 and 83 of criterion 9's stream once came out as
    # "two-lines": the one true line twice, 1e-6 apart
    rng = np.random.default_rng(109)
    kinds = {}
    for i in range(84):
        alg, _ = conjugated_canonical(TAGS[i % 4], rng)
        if i in (43, 83):
            kinds[i] = nilpotent_cone(alg).kind
    assert kinds == {43: "one-line", 83: "one-line"}


@pytest.mark.parametrize("seed", [474, 1529, 2560])
def test_nilcone_pencil_double_root_at_infinity(seed):
    # in the affine chart det(F1 + t F2), these A1 pencils have their double
    # root, the rank-1 member, at t = infinity
    alg, _ = conjugated_canonical("A1", np.random.default_rng(seed))
    assert nilpotent_cone(alg).kind == "two-lines"


def test_nilcone_kind_sweep():
    misses = {
        tag: [
            seed
            for seed in range(2000)
            if nilpotent_cone(conjugated_canonical(tag, np.random.default_rng(seed))[0]).kind
            != CONE_KIND[tag]
        ]
        for tag in TAGS
    }
    assert misses == {tag: [] for tag in TAGS}


NAMED_CONE_TABLES = [
    ({"c": 1.0, "f": 1.0, "j": -1.0}, "other"),  # one indefinite form: a quadric cone
    ({"c": 1.0, "f": 1.0, "j": 1.0}, "origin-only"),  # one definite form
    ({"a": 1.0, "m": 1.0}, "plane"),  # x1^2 and x1 x2 share the plane x1 = 0
    ({"r": 2.0, "k": -0.5, "t": -0.5}, "other"),  # the three coordinate axes
    ({"s": 2.0, "m": -1.0, "h": -1.0, "t": 1.0}, "two-lines"),  # e1 is a triple zero
    ({"b": -1.0, "t": 2.0, "g": -1.0}, "one-line"),  # det of the pencil has a triple root
]


@pytest.mark.parametrize("constants, kind", NAMED_CONE_TABLES)
def test_nilcone_kinds_are_basis_free(constants, kind):
    alg = from_named(**constants)
    rng = np.random.default_rng(7)
    for conj in [alg] + [change_of_basis(alg, random_well_conditioned(rng)) for _ in range(20)]:
        cone = nilpotent_cone(conj)
        assert cone.kind == kind
        assert (cone.samples.shape[0] > 0) == (kind != "origin-only")
        norm, _ = conj.normalized()
        assert np.max(np.abs(square_map(norm, cone.samples)), initial=0.0) < 1e-12


# The cone helpers as they stood before the closed-form rewrite of their
# glue, kept verbatim as the reference arithmetic: the library's helpers are
# not called, so a change in any of them shows.


def _ref_zero_set(w, v):
    zero = np.abs(w) <= TAU_RANK * max(1.0, float(np.abs(w).max()))
    kernel = v[:, zero].T
    pos = np.flatnonzero((w > 0.0) & ~zero)
    neg = np.flatnonzero((w < 0.0) & ~zero)
    if pos.size == 0 or neg.size == 0:
        return [kernel] if kernel.shape[0] else []
    if pos.size + neg.size > 2:
        return None
    p, n = pos[0], neg[0]
    return [
        np.vstack([kernel, unit(np.sqrt(-w[n]) * v[:, p] + s * np.sqrt(w[p]) * v[:, n])])
        for s in (1.0, -1.0)
    ]


def _ref_degenerate_member(f1, f2):
    th = np.arange(8) * (np.pi / 8)
    members = np.cos(th)[:, None, None] * f1 + np.sin(th)[:, None, None] * f2
    dets = np.abs(np.linalg.det(members))
    if np.max(dets) <= 1e-14:
        return members[np.argmax(np.sort(np.abs(np.linalg.eigvalsh(members)))[:, 1])]
    j = int(np.argmax(dets))
    a, b = -np.sin(th[j]) * f1 + np.cos(th[j]) * f2, members[j]
    roots = -np.linalg.eigvals(np.linalg.solve(b, a))
    hyp = np.sqrt(1.0 + np.abs(roots) ** 2)
    chord = np.abs(roots[:, None] - roots[None, :]) / np.outer(hyp, hyp)
    np.fill_diagonal(chord, np.inf)
    sep = np.where(roots.imag == 0.0, chord.min(axis=1), -1.0)
    best = int(np.argmax(sep))
    t = float(roots[best].real) if sep[best] > 1e-4 else float(np.mean(roots).real)
    return (a + t * b) / np.sqrt(1.0 + t * t)


def _ref_restricted_zeros(forms, plane):
    res = np.einsum("ai,kij,bj->kab", plane, forms, plane)
    sizes = np.linalg.norm(res, axis=(1, 2))
    k = int(np.argmax(sizes))
    if sizes[k] <= TAU_RANK:
        return None
    return [sub[0] @ plane for sub in _ref_zero_set(*np.linalg.eigh(res[k]))]


def _cone_loop_reference(alg: Algebra) -> NilconeDescriptor:
    """nilpotent_cone on the reference helpers above, with one residual call
    per vector and the samples built point by point."""
    norm, _ = alg.normalized()

    def residual(u):
        return float(np.max(np.abs(square_map(norm, u))))

    r, rows = rank_and_rowspace(norm.c.transpose(2, 0, 1).reshape(3, 9))
    if r == 0:
        return nilpotent_cone(alg)
    forms = rows.reshape(r, 3, 3)
    if r == 1:
        w, v = np.linalg.eigh(forms[0])
        parts = _ref_zero_set(w, v)
        if parts is None:
            return NilconeDescriptor("other", samples=algebra._quadric_cone_samples(w, v))
    else:
        w, v = np.linalg.eigh(_ref_degenerate_member(forms[0], forms[1]))
        w[np.argmin(np.abs(w))] = 0.0
        parts = []
        for sub in _ref_zero_set(w, v):
            zeros = [sub[0]] if sub.shape[0] == 1 else _ref_restricted_zeros(forms, sub)
            if zeros is None:
                parts.append(sub)
                continue
            parts.extend(u[None, :] for u in zeros if residual(u) <= TAU_RES)
    planes = [s for s in parts if s.shape[0] == 2]
    lines = []

    def near_copy(line, u):
        # within 1e-3 of a kept line, with a midpoint of at most half the
        # residual of u, the larger of the two
        k = line[0]
        mid = u + (1.0 if float(k @ u) >= 0.0 else -1.0) * k
        return contains_vector(line, u, 1e-3) and residual(mid / np.linalg.norm(mid)) <= 0.5 * residual(u)

    for u in sorted((s[0] for s in parts if s.shape[0] == 1), key=residual):
        if not any(contains_vector(k, u, 1e-5) for k in planes + lines) and not any(
            near_copy(k, u) for k in lines
        ):
            lines.append(sign_canonical(u)[None, :])
    pts = []
    for line in lines:
        pts.extend(t * line[0] for t in np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]))
    grid = np.linspace(-1.5, 1.5, 5)
    for plane in planes:
        for a in grid:
            for b in grid:
                if abs(a) + abs(b) >= 1e-12:
                    pts.append(a * plane[0] + b * plane[1])
    kind = algebra._KIND_BY_PARTS.get((len(lines), len(planes)), "other")
    return NilconeDescriptor(kind, lines, planes, np.array(pts) if pts else np.zeros((0, 3)))


def test_nilcone_matches_the_loop_reference_bit_for_bit():
    # the descriptor equals the reference's, lines, planes and samples bit
    # for bit: the named tables, the canonical ones, conjugates of both,
    # three A1 pencils with a root at infinity, and from a fixed seed 40 A1
    # conjugates and 90 random tensors
    rng = np.random.default_rng(21)
    tables = [from_named(**constants) for constants, _ in NAMED_CONE_TABLES]
    tables += [canonical_algebra(tag) for tag in TAGS]
    algs = tables + [change_of_basis(t, random_well_conditioned(rng)) for t in tables for _ in range(3)]
    algs += [conjugated_canonical("A1", np.random.default_rng(seed))[0] for seed in (474, 1529, 2560)]
    algs += [random_symmetric_algebra(rng) for _ in range(50)]
    algs += [conjugated_canonical("A1", rng)[0] for _ in range(40)]
    algs += [random_symmetric_algebra(rng) for _ in range(40)]
    for alg in algs:
        got, want = nilpotent_cone(alg), _cone_loop_reference(alg)
        assert got.kind == want.kind
        for ours, theirs in ((got.lines, want.lines), (got.planes, want.planes)):
            assert len(ours) == len(theirs)
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        assert got.samples.shape == want.samples.shape
        assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("draw", [343, 1328])
def test_nilcone_merges_the_spread_copies_of_a_triple_zero(draw):
    # e1 is a triple zero of x*x = (2 x2 x3, 0, -x3^2 - x1 x2); under these
    # two conjugations (cond < 100) its candidate copies land 2.35e-5 and
    # 2.72e-5 apart, beyond _SAME_LINE, and the cone read "other" with three
    # lines; one copy is exact to 1e-16, the other has residual 9e-12 and
    # 4e-11, and their midpoint a quarter of that, while the midpoint of the
    # two true lines is off the cone by 3e-2 and 6e-2
    rng = np.random.default_rng(0)
    m = [random_well_conditioned(rng) for _ in range(draw + 1)][draw]
    alg = change_of_basis(from_named(s=1.0, j=-1.0, n=-0.5), m)
    cone = nilpotent_cone(alg)
    assert cone.kind == "two-lines"
    norm, _ = alg.normalized()
    assert np.abs(square_map(norm, cone.samples)).max() <= TAU_RES
    # the two lines are the images of the table's own lines e1 and e2
    for k in (0, 1):
        w = np.linalg.solve(m, np.eye(3)[k])
        w /= np.linalg.norm(w)
        assert min(min(np.linalg.norm(line[0] - s * w) for s in (1.0, -1.0))
                   for line in cone.lines) <= 1e-4


def _flags_reference(alg: Algebra) -> StructureFlags:
    """structure_flags with every series run to its fourth term and the
    quartic symmetrized as the mean of its 24 transposes."""
    norm, _ = alg.normalized()
    whole = np.eye(3)

    def span_products(left, right):
        return rank_and_rowspace(product(norm, left[:, None], right[None, :]).reshape(-1, 3))[1]

    def vanishes(start, step):
        term = start
        for _ in range(3):
            if len(term) == 0:
                return True
            term = step(term)
        return len(term) == 0

    sq = rank_and_rowspace(norm.c[np.triu_indices(3)])[1]
    c = norm.c
    assoc = float(np.abs(np.einsum("ijn,nkm->ijkm", c, c) - np.einsum("jkn,inm->ijkm", c, c)).max())
    quartic = np.einsum("abk,cdl,klm->abcdm", c, c, c) - np.einsum("abk,kcn,ndm->abcdm", c, c, c)
    sym = sum(quartic.transpose(*p, 4) for p in itertools.permutations(range(4))) / 24.0
    return StructureFlags(
        solvable=vanishes(sq, lambda t: span_products(t, t)),
        nilpotent=vanishes(sq, lambda t: span_products(whole, t)),
        associative=assoc <= TAU_RES,
        power_associative=float(np.abs(sym).max()) <= TAU_RES,
    )


def test_structure_flags_match_the_reference():
    # the stationary-series stop and the orbit-mean symmetrization decide
    # every flag as the depth-4 series and the 24 transposes do: on the
    # seeded corpora of masked algebras, the canonical tables and their
    # conjugates, the named cone tables, and 200 random tensors
    rng = np.random.default_rng(22)
    algs = [canonical_algebra(tag) for tag in TAGS]
    algs += [conjugated_canonical(tag, rng)[0] for tag in TAGS for _ in range(10)]
    algs += [from_named(**constants) for constants, _ in NAMED_CONE_TABLES]
    masked = [random_mask_algebra(*random_mask_spectrum(rng), rng) for _ in range(200)]
    algs += masked + [change_of_basis(alg, random_well_conditioned(rng)) for alg in masked[:50]]
    algs += [random_symmetric_algebra(rng) for _ in range(200)]
    seen = set()
    for alg in algs:
        want = _flags_reference(alg)
        assert structure_flags(alg) == want
        seen.add(dataclasses.astuple(want))
    # (solvable, nilpotent, associative, power-associative): FFFF, FFTT, TFFF, TTTT
    assert len(seen) == 4


def test_structure_flags_are_basis_free():
    rng = np.random.default_rng(3)
    for tag in TAGS:
        want = structure_flags(canonical_algebra(tag))
        for _ in range(25):
            assert structure_flags(conjugated_canonical(tag, rng)[0]) == want


def test_idempotents_two_axis_algebra():
    # e1^2 = e1, e2^2 = e2: nonzero idempotents are e1, e2 and e1 + e2
    alg = from_products({(1, 1): (1.0, 0.0, 0.0), (2, 2): (0.0, 1.0, 0.0)})
    found = idempotents(alg)
    assert len(found) == 3
    expect = [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)]
    for got, want in zip(found, expect):
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_idempotents_scale_inversely():
    # e1^2 = 2 e1 has the idempotent e1 / 2
    alg = from_named(a=2.0)
    found = idempotents(alg)
    assert len(found) == 1
    np.testing.assert_allclose(found[0], [0.5, 0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("a", [1e-300, 1e-308])
def test_idempotents_of_a_tiny_table_sort_without_overflow(a):
    # e1 e1 = a e1 has the one idempotent e1 / a, near the top of the float
    # range; the sort key once rounded by multiplying it by 1e9, which
    # overflowed (RuntimeWarning, an error under this suite's settings).  It
    # is the normalized table's idempotent, leaving that frame exactly
    alg = from_named(a=a)
    norm, e = alg.normalized()
    found = idempotents(alg)
    assert len(found) == 1
    assert np.array_equal(found[0], np.ldexp(idempotents(norm)[0], -e))


def test_idempotents_survive_large_jacobians():
    # lattice points near the |v| > 1e3 reset make J^T J ~ 1e6, where an
    # absolute damping of 1e-12 rounded away and the solve raised
    alg, _ = conjugated_canonical("A1", np.random.default_rng(32))
    assert idempotents(alg) == []


def _full_batch_idempotents(alg):
    # the lattice search that came before the exact solve: damped Newton
    # from 1331 lattice points, each stepping until all residuals are below
    # 1e-14 at once
    norm, e = alg.normalized()
    if norm.scale == 0.0:
        return []
    axis = np.linspace(-2.0, 2.0, 11)
    v = np.array(list(itertools.product(axis, axis, axis)))
    eye = np.eye(3)
    for _ in range(40):
        f = square_map(norm, v) - v
        if float(np.max(np.abs(f))) <= 1e-14:
            break
        jac = 2.0 * np.einsum("ni,ijk->nkj", v, norm.c) - eye
        jtj = jac.transpose(0, 2, 1) @ jac
        damp = 1e-12 * np.maximum(1.0, np.trace(jtj, axis1=1, axis2=2))
        jtj = jtj + damp[:, None, None] * eye
        rhs = jac.transpose(0, 2, 1) @ f[:, :, None]
        v = v - np.linalg.solve(jtj, rhs)[:, :, 0]
        v[np.linalg.norm(v, axis=1) > 1e3] = 0.0
    res = np.max(np.abs(square_map(norm, v) - v), axis=1)
    ok = (res <= TAU_RES) & (np.linalg.norm(v, axis=1) > TAU_DEDUP)
    found = []
    for cand in v[ok]:
        if all(np.linalg.norm(cand - w) > TAU_DEDUP for w in found):
            found.append(cand)
    return [np.ldexp(w, -e) for w in found]


def test_idempotents_match_the_full_batch_search():
    # the exact solve finds every root the lattice reached, and more: the
    # lattice misses one idempotent on 9 of these 100 tensors
    rng = np.random.default_rng(11)
    more = 0
    for _ in range(100):
        alg = random_symmetric_algebra(rng)
        got, want = idempotents(alg), _full_batch_idempotents(alg)
        for w in want:
            assert min(np.linalg.norm(g - w) for g in got) <= 1e-10 * np.linalg.norm(w)
        more += len(got) - len(want)
    assert more > 0


def test_idempotents_are_roots_to_roundoff_and_odd_in_number():
    # 8 roots in P^3, none at infinity for a random tensor: complex ones come
    # in conjugate pairs, so the real ones, the origin among them, are even
    rng = np.random.default_rng(11)
    for _ in range(150):
        alg = random_symmetric_algebra(rng)
        found = idempotents(alg)
        assert (len(found) + 1) % 2 == 0
        for v in found:
            res = np.max(np.abs(square_map(alg, v) - v))
            assert res <= 1e-12 * max(1.0, np.linalg.norm(v)) ** 2 * max(1.0, alg.scale)


def test_idempotents_of_solvable_classes_need_no_search(monkeypatch):
    # v = v*v puts v in every term of the derived series, which vanishes on A1-A4
    calls = []
    original = algebra._projective_roots

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(algebra, "_projective_roots", counted)
    rng = np.random.default_rng(9)
    for tag in TAGS:
        for _ in range(50):
            assert idempotents(conjugated_canonical(tag, rng)[0]) == []
    assert calls == []


def test_idempotents_through_a_singular_jacobian():
    # e1 e1 = e1, e2 e2 = 0.625 e2: the entry J22 = 1.25 x2 - 1 of the
    # Jacobian vanishes at x2 = 0.8, midway between the roots 0 and 1.6
    alg = from_products({(1, 1): (1.0, 0.0, 0.0), (2, 2): (0.0, 0.625, 0.0)})
    found = idempotents(alg)
    assert len(found) == 3
    for got, want in zip(found, [(0.0, 1.6, 0.0), (1.0, 0.0, 0.0), (1.0, 1.6, 0.0)]):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize(
    "products, want, tol",
    [
        # J is singular at the double root (1/4, 0, 1/4), which the
        # eigenproblem gives exactly; a Newton step from there goes astray
        (
            {(1, 1): (1, 0, 0), (1, 2): (-1, 1, 1), (1, 3): (2, -1, 1),
             (2, 2): (0, -1, 2), (2, 3): (1, 0, -1), (3, 3): (-1, 2, 2)},
            (0.25, 0.0, 0.25),
            1e-12,
        ),
        # (1, 1, 0) is a root of multiplicity 4: its eigenvalues come out as
        # two complex pairs 2e-4 off, located to about eps^(1/4)
        (
            {(1, 1): (0.5, 0, 0), (1, 3): (2, 2, 0), (2, 2): (0.5, 1, 0),
             (2, 3): (1, 0, 0.5), (3, 3): (0, 2, 0)},
            (1.0, 1.0, 0.0),
            1e-3,
        ),
    ],
    ids=["double", "quadruple"],
)
def test_idempotents_at_a_multiple_root(products, want, tol):
    found = idempotents(from_products(products))
    assert min(np.max(np.abs(v - want)) for v in found) <= tol


def test_idempotents_report_a_multiple_root_once():
    # e1 and e1 + e3 are triple roots, located only to about eps^(1/3): the
    # solve returns two copies of each, 2.3-2.4e-5 apart, and one is kept
    alg = from_products({(1, 1): (1, 0, 0), (2, 2): (1, 0, 0), (1, 2): (0, 0.5, 0), (3, 3): (0, 0, 1)})
    found = idempotents(alg)
    assert len(found) == 3
    for got, want in zip(found, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0)]):
        assert np.max(np.abs(got - want)) <= 1e-4


@pytest.mark.parametrize(
    "products",
    [
        {(1, 2): (0, 0, 2), (1, 3): (0.5, 1, 0), (2, 3): (0.5, 0, 0), (3, 3): (1, 0, 0)},
        {(1, 1): (0, -1, 0), (1, 2): (-1, 0, 0), (2, 2): (2, 0.5, 0), (2, 3): (0, -1, 0),
         (3, 3): (0, -1, 0)},
        {(1, 2): (0, 1, 0), (1, 3): (0, 0, -1), (2, 2): (0, 2, 0), (2, 3): (1, 1, 0.5)},
    ],
)
def test_idempotents_keep_the_most_accurate_copy_of_a_root(products):
    # the real part of a complex or spurious root can reach a real root in
    # three Newton steps only to a residual near TAU_RES; the exact copy the
    # eigenproblem gave must be the one kept
    alg = from_products(products)
    for v in idempotents(alg):
        res = np.max(np.abs(square_map(alg, v) - v))
        assert res <= 1e-12 * max(1.0, np.linalg.norm(v)) ** 2 * max(1.0, alg.scale)


@pytest.mark.parametrize(
    "c, want, cone_calls",
    [
        # x*x = (x1 + x2) diag(1, 2, 3) x: the eigenpairs (1, e1) and (2, e2)
        # give e1 and e2 / 2, and (3, e3) none, since l(e3) = 0
        (
            from_products({(1, 1): (1, 0, 0), (1, 2): (0.5, 1, 0), (2, 2): (0, 2, 0),
                           (1, 3): (0, 0, 1.5), (2, 3): (0, 0, 1.5)}).c,
            [(0.0, 0.5, 0.0), (1.0, 0.0, 0.0)],
            1,
        ),
        # x*x = (x1^2 - x2^2 + x3^2) (1, 1, 1): w / q(w) = (1, 1, 1), decided
        # before the cone
        (
            np.einsum("ij,k->ijk", np.diag([1.0, -1.0, 1.0]), np.ones(3)),
            [(1.0, 1.0, 1.0)],
            0,
        ),
    ],
    ids=["common-linear-factor", "proportional-products"],
)
def test_idempotents_closed_forms(monkeypatch, c, want, cone_calls):
    # the roots at infinity form a curve, so the Macaulay null space is not
    # 8-dimensional and the closed forms answer
    calls = []
    original = algebra.nilpotent_cone
    monkeypatch.setattr(algebra, "nilpotent_cone", lambda a: calls.append(1) or original(a))
    found = idempotents(Algebra(c))
    assert len(calls) == cone_calls
    assert len(found) == len(want)
    for got, w in zip(found, want):
        assert np.max(np.abs(got - w)) <= 1e-12


@pytest.mark.parametrize(
    "products",
    [
        # x*x = x1 x: every point of the plane x1 = 1 is idempotent
        {(1, 1): (1, 0, 0), (1, 2): (0, 0.5, 0), (1, 3): (0, 0, 0.5)},
        # the lines (0, 1, s) and (1, 1, s)
        {(1, 1): (1, 0, 0), (2, 2): (0, 1, 0), (2, 3): (0, 0, 0.5)},
    ],
    ids=["plane", "two-lines"],
)
def test_idempotents_fail_loudly_when_not_isolated(products):
    with pytest.raises(NonIsolatedIdempotents, match="^non-isolated idempotents: Macaulay nullity"):
        idempotents(from_products(products))


def test_first_come_distinct_keeps_the_first_of_a_chain():
    # b is within TAU_DEDUP of a and c of b, but c is not of a: b goes with a,
    # and c, judged against the kept a only, stays
    u = np.array([2.0, -1.0, 2.0]) / 3.0
    a = np.array([0.3, -0.2, 0.5])
    b = a + 0.6 * TAU_DEDUP * u
    c = b + 0.6 * TAU_DEDUP * u
    kept = _first_come_distinct(np.array([a, b, c]))
    assert len(kept) == 2
    assert np.array_equal(kept[0], a) and np.array_equal(kept[1], c)


def test_first_come_distinct_keeps_the_first_copy_of_each_root():
    rng = np.random.default_rng(4)
    roots = rng.standard_normal((3, 3))
    for _ in range(20):
        labels = rng.permutation(np.repeat(np.arange(3), 4))
        points = roots[labels] + 0.1 * TAU_DEDUP * rng.uniform(-1.0, 1.0, (12, 3))
        first = [int(np.flatnonzero(labels == k)[0]) for k in dict.fromkeys(labels)]
        kept = _first_come_distinct(points)
        assert len(kept) == 3
        for got, i in zip(kept, first):
            assert np.array_equal(got, points[i])


def test_automorphism_residual_identity():
    for tag in TAGS:
        assert automorphism_residual(canonical_algebra(tag), np.eye(3)) < ATOL


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_product_symmetric_and_bilinear(seed):
    rng = np.random.default_rng(seed)
    alg = random_symmetric_algebra(rng)
    u, v, w = rng.standard_normal((3, 3))
    assert np.array_equal(product(alg, u, v), product(alg, v, u))
    lhs = product(alg, u + w, v)
    rhs = product(alg, u, v) + product(alg, w, v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_stacked_product_matches_the_row_by_row_product():
    # a stack's rows are the products of the rows alone, bit for bit, for
    # an (n, 3) stack and for a broadcast (2, 1, 3) x (1, 4, 3) grid, and
    # commutativity stays bit-exact on stacks; so are square_map and
    # left_mult_matrix, whose stacked matrices are also the einsum builds
    # they replaced
    rng = np.random.default_rng(12)
    for _ in range(50):
        alg = random_symmetric_algebra(rng)
        us = rng.standard_normal((7, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (7, 1))
        vs = rng.standard_normal((7, 3))
        vs[rng.random((7, 3)) < 0.3] = 0.0
        stacked = product(alg, us, vs)
        assert np.array_equal(stacked, [product(alg, u, v) for u, v in zip(us, vs)])
        assert np.array_equal(stacked, product(alg, vs, us))
        grid = product(alg, us[:2, None], vs[None, :4])
        assert grid.shape == (2, 4, 3)
        assert np.array_equal(grid, [[product(alg, u, v) for v in vs[:4]] for u in us[:2]])
        squares = square_map(alg, us)
        assert np.array_equal(squares, [product(alg, u, u) for u in us])
        assert np.array_equal(squares, [square_map(alg, u) for u in us])
        mats = left_mult_matrix(alg, us)
        assert mats.shape == (7, 3, 3)
        assert np.array_equal(mats, [left_mult_matrix(alg, u) for u in us])
        assert np.array_equal(mats, np.einsum("ni,ijk->nkj", us, alg.c))
        assert np.array_equal(left_mult_matrix(alg, us[:3].T), np.einsum("ai,akb->ibk", us[:3], alg.c))
        mat_grid = left_mult_matrix(alg, us.reshape(7, 1, 3)[:2] + vs[None, :4])
        assert mat_grid.shape == (2, 4, 3, 3)
        assert np.array_equal(
            mat_grid, [[left_mult_matrix(alg, u + v) for v in vs[:4]] for u in us[:2]]
        )


@settings(deadline=None, max_examples=16)
@given(st.sampled_from(TAGS), st.integers(min_value=0, max_value=10**6))
def test_subspace_dims_invariant_under_conjugation(tag, seed):
    rng = np.random.default_rng(seed)
    alg, _ = conjugated_canonical(tag, rng)
    base = canonical_algebra(tag)
    assert len(annihilator(alg)) == len(annihilator(base))
    assert len(square_ideal(alg)) == len(square_ideal(base))


# the invariants memoized on the normalized algebra, by module
MEMOIZED = {
    "algebra": ("annihilator", "square_ideal", "ideal_structure", "is_solvable", "structure_flags",
                "nilpotent_cone"),
    "derivations": ("derivation_space", "leibniz_matrix"),
    "dynamics": ("linear_first_integrals",),
    "classify": ("fingerprint",),
}


def _memoized_functions():
    return [getattr(sys.modules[f"hqds3.{mod}"], name) for mod, names in MEMOIZED.items() for name in names]


def _same(a, b) -> bool:
    """Equal bit for bit, through tuples, dataclasses and arrays."""
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b


@pytest.mark.parametrize("kind", ["A1", "A2", "A3", "A4", "random", "zero"])
def test_memoized_invariants_equal_fresh_ones(kind):
    # a memoized result is the one object an algebra and its normalized form
    # share, and equals the result computed on a new Algebra of the same tensor
    rng = np.random.default_rng(4)
    if kind == "random":
        alg = random_symmetric_algebra(rng)
    elif kind == "zero":
        alg = Algebra(np.zeros((3, 3, 3)))
    else:
        alg = Algebra(3.0 * conjugated_canonical(kind, rng)[0].c)
    for fn in _memoized_functions():
        got = fn(alg)
        assert fn(alg) is got
        assert fn(alg.normalized()[0]) is got
        assert _same(got, fn(Algebra(alg.c))), fn.__name__
        assert _same(got, fn.__wrapped__(Algebra(alg.c).normalized()[0])), fn.__name__


@pytest.mark.parametrize("command", ["classify", "verify", "simulate"])
@pytest.mark.parametrize("kind", ["A1", "A3", "random"])
def test_cli_command_computes_each_invariant_once_per_algebra(tmp_path, capsys, monkeypatch, command, kind):
    # the body of each memoized invariant runs at most once per tensor in
    # one command, however many callers read it
    rng = np.random.default_rng(5)
    alg = random_symmetric_algebra(rng) if kind == "random" else conjugated_canonical(kind, rng)[0]
    runs = {}
    for fn in _memoized_functions():

        def counted(norm, body=fn.__wrapped__, name=fn.__name__):
            runs[name, norm.c.tobytes()] = runs.get((name, norm.c.tobytes()), 0) + 1
            return body(norm)

        monkeypatch.setattr(fn, "__wrapped__", counted)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"structure_constants": alg.c.tolist()}))
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--x0", "0.1,0.2,0.3", "--t-end", "0.1"]
    assert cli.main(argv) in (0, 2)
    capsys.readouterr()
    assert {name for name, _ in runs} >= {"annihilator", "square_ideal", "ideal_structure"}
    assert max(runs.values()) == 1, runs


def test_memoized_invariants_are_read_only():
    alg, _ = conjugated_canonical("A1", np.random.default_rng(6))
    with pytest.raises(ValueError):
        square_ideal(alg)[0, 0] = 1.0
    space = derivation_space(alg)
    with pytest.raises(ValueError):
        space[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        leibniz_matrix(alg)[0, 0] = 1.0
    with pytest.raises(ValueError):
        linear_first_integrals(alg)[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        structure_flags(alg).solvable = False
    cone = nilpotent_cone(alg)
    with pytest.raises(ValueError):
        cone.samples[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cone.kind = "other"


def test_memo_counts_hits_and_misses():
    # the first call on a fresh algebra runs the body; later calls through
    # the algebra or its normalized form find the result
    c = 3.0 * conjugated_canonical("A3", np.random.default_rng(8))[0].c
    for fn in _memoized_functions():
        alg = Algebra(c)
        hits, misses = fn.cache_info()
        fn(alg)
        assert fn.cache_info() == (hits, misses + 1), fn.__name__
        fn(alg)
        fn(alg.normalized()[0])
        assert fn.cache_info() == (hits + 2, misses + 1), fn.__name__
