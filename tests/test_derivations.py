"""Derivations: Leibniz residuals, spectra, Jordan splits, diagonal masks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqds3 import derivations
from hqds3.algebra import NAMED_SLOTS, from_named, product
from hqds3.catalog import (
    canonical_algebra,
    conjugated_canonical,
    derivation_family,
    random_derivation_params,
    random_mask_algebra,
    random_mask_spectrum,
    random_symmetric_algebra,
)
from hqds3.derivations import (
    ALWAYS_ZERO_LETTERS,
    MASK_LINES,
    IllConditioned,
    SingularSpectrum,
    _leibniz_matrix,
    admissible_mask,
    analyze_spectrum,
    arrangement_lines,
    derivation_residual,
    derivation_space,
    find_real_ssnd,
    jordan_chevalley,
    normalize_spectrum,
    real_eigenbasis,
    real_semisimple_part,
    slot_defects,
)
from hqds3.linalg import nullspace

LEIBNIZ_TOL = 1e-9
SPLIT_TOL = 1e-8
EIG_TOL = 1e-10

TAGS = ("A1", "A2", "A3", "A4")


def _leibniz_matrix_loop(c):
    # the index-loop build the broadcast one replaced; same order per entry
    rows = []
    for i in range(3):
        for j in range(i, 3):
            for k in range(3):
                row = np.zeros((3, 3))
                row[k, :] += c[i, j, :]
                row[:, i] -= c[:, j, k]
                row[:, j] -= c[i, :, k]
                rows.append(row.reshape(9))
    return np.array(rows)


def test_leibniz_matrix_matches_the_loop_build():
    rng = np.random.default_rng(4)
    algs = [canonical_algebra(tag) for tag in TAGS]
    algs += [conjugated_canonical(tag, rng)[0] for tag in TAGS for _ in range(10)]
    algs += [random_symmetric_algebra(rng) for _ in range(40)]
    for alg in algs:
        assert np.array_equal(_leibniz_matrix(alg.c), _leibniz_matrix_loop(alg.c))


def _derivation_residual_loop(alg, m):
    # the pair loop the einsum build replaced
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m)))) * max(1.0, alg.scale)
    worst = 0.0
    for i in range(3):
        for j in range(i, 3):
            lhs = m @ alg.c[i, j]
            rhs = product(alg, m[:, i], np.eye(3)[j]) + product(alg, np.eye(3)[i], m[:, j])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst / scale


def test_derivation_residual_matches_the_loop_build():
    # both sum in another order, so they agree to roundoff of the scaled
    # residual: 1e-15 absolute near 0 (true derivations), relative above 1
    rng = np.random.default_rng(6)
    algs = [canonical_algebra(tag) for tag in TAGS]
    algs += [conjugated_canonical(tag, rng)[0] for tag in TAGS for _ in range(5)]
    algs += [random_symmetric_algebra(rng) for _ in range(20)]
    n_basis = n_small = 0
    for alg in algs:
        basis = derivation_space(alg).basis
        n_basis += len(basis)
        for m in [*basis, np.eye(3), *(rng.standard_normal((3, 3)) for _ in range(3))]:
            loop = _derivation_residual_loop(alg, m)
            n_small += loop < LEIBNIZ_TOL
            assert abs(derivation_residual(alg, m) - loop) <= 1e-15 * max(1.0, loop)
    assert n_small >= n_basis > 0  # true derivations were among the cases


def test_derivation_dims_canonical():
    dims = {tag: derivation_space(canonical_algebra(tag)).dim for tag in TAGS}
    assert dims == {"A1": 1, "A2": 5, "A3": 4, "A4": 4}


def test_a1_derivation_generator_direction():
    # the one-parameter family is x * diag(1, -1, 2)
    space = derivation_space(canonical_algebra("A1"))
    d = space.basis[0]
    target = np.diag([1.0, -1.0, 2.0]) / np.sqrt(6.0)
    assert min(np.max(np.abs(d - target)), np.max(np.abs(d + target))) < EIG_TOL


def test_family_members_are_derivations():
    rng = np.random.default_rng(2)
    for tag in TAGS:
        alg = canonical_algebra(tag)
        for _ in range(20):
            d = derivation_family(tag, random_derivation_params(tag, rng))
            assert derivation_residual(alg, d) < LEIBNIZ_TOL


def test_identity_is_not_a_derivation():
    # D = I on A1 gives D(e1 e1) = e3 but 2 e1 * e1 = 2 e3
    assert derivation_residual(canonical_algebra("A1"), np.eye(3)) > 0.1


def test_analyze_spectrum_distinct():
    rep = analyze_spectrum(np.diag([1.0, 2.0, 3.0]))
    assert rep.multiplicity == "distinct"
    assert rep.all_real and rep.semisimple and rep.nonsingular
    np.testing.assert_allclose(rep.spectrum, [1.0, 2.0, 3.0], atol=EIG_TOL)


def test_analyze_spectrum_defective_double():
    m = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    rep = analyze_spectrum(m)
    assert rep.multiplicity == "double"
    assert rep.all_real and not rep.semisimple
    np.testing.assert_allclose(np.sort(rep.eigenvalues.real), [2.0, 2.0, 5.0], atol=EIG_TOL)


def test_analyze_spectrum_semisimple_double():
    rep = analyze_spectrum(np.diag([2.0, 2.0, 5.0]))
    assert rep.multiplicity == "double"
    assert rep.semisimple


def test_analyze_spectrum_defective_triple():
    m = 3.0 * np.eye(3)
    m[0, 1] = 1.0
    rep = analyze_spectrum(m)
    assert rep.multiplicity == "triple"
    assert not rep.semisimple
    assert rep.nonsingular


def test_analyze_spectrum_complex_pair():
    m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    rep = analyze_spectrum(m)
    assert rep.multiplicity == "complex-pair"
    assert not rep.all_real
    assert rep.nonsingular


def test_analyze_spectrum_singular():
    rep = analyze_spectrum(np.diag([0.0, 1.0, 2.0]))
    assert not rep.nonsingular


# Jordan forms -> (multiplicity, semisimple, nonsingular)
_ROTATION_PLUS_3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
JORDAN_FORMS = {
    "distinct": (np.diag([1.0, -2.0, 3.0]), ("distinct", True, True)),
    "semisimple-double": (np.diag([2.0, 2.0, -5.0]), ("double", True, True)),
    "defective-double": (
        np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -5.0]]),
        ("double", False, True),
    ),
    "scalar": (3.0 * np.eye(3), ("triple", True, True)),
    "defective-triple": (3.0 * np.eye(3) + np.eye(3, k=1), ("triple", False, True)),
    "rotation-plus-3": (_ROTATION_PLUS_3, ("complex-pair", True, True)),
}


@pytest.mark.parametrize("form", JORDAN_FORMS)
def test_analyze_spectrum_of_conjugated_jordan_forms(form):
    # triangular forms have exact computed eigenvalues; a conjugate does not,
    # and its verdicts must not depend on the basis
    j, expected = JORDAN_FORMS[form]
    rng = np.random.default_rng(12)
    for i in range(50):
        v = rng.standard_normal((3, 3))
        while np.linalg.cond(v) > 16.0:
            v = rng.standard_normal((3, 3))
        rep = analyze_spectrum(v @ j @ np.linalg.inv(v))
        assert (rep.multiplicity, rep.semisimple, rep.nonsingular) == expected, i


def test_jordan_chevalley_frozen():
    m = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    s, n = jordan_chevalley(m)
    np.testing.assert_allclose(s, np.diag([1.0, 1.0, 2.0]), atol=1e-12)
    expect_n = np.zeros((3, 3))
    expect_n[0, 1] = 1.0
    np.testing.assert_allclose(n, expect_n, atol=1e-12)


def test_jordan_chevalley_random_properties():
    rng = np.random.default_rng(3)
    ill = 0
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        try:
            s, n = jordan_chevalley(m)
        except IllConditioned:
            ill += 1
            continue
        scale = max(1.0, float(np.max(np.abs(m))))
        assert np.max(np.abs(s + n - m)) < SPLIT_TOL * scale
        assert np.max(np.abs(s @ n - n @ s)) < SPLIT_TOL * max(1.0, scale**2)
        assert np.max(np.abs(n @ n @ n)) < SPLIT_TOL * max(1.0, scale**3)
    assert ill <= 2


def test_real_part_matrix_frozen():
    # rotation block (eigenvalues +-i) plus real eigenvalue 3
    m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    out = real_semisimple_part(m)
    np.testing.assert_allclose(out, np.diag([0.0, 0.0, 3.0]), atol=1e-12)


def test_find_real_ssnd_analyses_each_candidate_once(monkeypatch):
    # the first sign pattern of this A4 conjugate has a complex pair and its
    # real part is an SSND: one analysis for each of the two
    alg, _ = conjugated_canonical("A4", np.random.default_rng(0))
    calls = []
    original = derivations.analyze_spectrum

    def counted(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(derivations, "analyze_spectrum", counted)
    assert find_real_ssnd(alg) is not None
    assert len(calls) == 2


def test_real_eigenbasis_reconstructs():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    m = v @ np.diag([1.0, -2.0, 0.5]) @ np.linalg.inv(v)
    w, cols = real_eigenbasis(m)
    np.testing.assert_allclose(np.sort(w), [-2.0, 0.5, 1.0], atol=1e-9)
    np.testing.assert_allclose(m @ cols, cols @ np.diag(w), atol=1e-9)


def test_real_eigenbasis_rejects_defective():
    m = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    with pytest.raises(IllConditioned):
        real_eigenbasis(m)


def _real_eigenbasis_loop(m):
    # the per-eigenvalue nullspace build the stacked SVD replaced
    rep = analyze_spectrum(m)
    if not (rep.all_real and rep.semisimple):
        raise IllConditioned("matrix is not real-diagonalizable")
    values, counts = np.unique(rep.eigenvalues.real, return_counts=True)
    columns = []
    for lam, count in zip(values, counts):
        basis = nullspace(m - lam * np.eye(3), rtol=1e-7)
        if basis.shape[0] != count:
            raise IllConditioned("eigenspace dimension does not match multiplicity")
        columns.extend(basis)
    return np.repeat(values, counts), np.array(columns).T


@pytest.mark.parametrize(
    "spectrum",
    [(1.0, -2.0, 3.5), (1.0, 1.0, 2.0), (-0.5, 3.0, 3.0), (0.7, 0.7, 0.7), (3.0, 3.0, 3.0)],
    ids=["distinct", "double-high", "double-low", "triple", "triple-integer"],
)
def test_real_eigenbasis_matches_the_nullspace_build(spectrum):
    rng = np.random.default_rng(13)
    cases = [np.diag(spectrum)]
    for _ in range(30):
        p = rng.standard_normal((3, 3))
        cases.append(p @ np.diag(spectrum) @ np.linalg.inv(p))
    for m in cases:
        try:
            want = _real_eigenbasis_loop(m)
        except IllConditioned:
            with pytest.raises(IllConditioned):
                real_eigenbasis(m)
            continue
        got = real_eigenbasis(m)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_real_eigenbasis_matches_the_nullspace_build_on_ssnds():
    rng = np.random.default_rng(14)
    for tag in TAGS:
        for _ in range(10):
            d = find_real_ssnd(conjugated_canonical(tag, rng)[0])
            got, want = real_eigenbasis(d), _real_eigenbasis_loop(d)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_admissible_mask_frozen_examples():
    assert admissible_mask(-1.0, 2.0) == ("c", "s")
    assert admissible_mask(1.0, 2.0) == ("c", "f", "n")
    assert admissible_mask(2.0, 3.0) == ("b", "n")
    assert admissible_mask(7.0, 11.0) == ()


def test_admissible_mask_singular_raises():
    with pytest.raises(SingularSpectrum):
        admissible_mask(0.0, 2.0)
    with pytest.raises(SingularSpectrum):
        admissible_mask(1.0, 0.0)


def test_admissible_mask_and_normalize_spectrum_share_one_rule():
    # min |d| <= TAU_RANK max(1, max |d|) on d = (1, lam, mu), overflow-free:
    # the mask refuses exactly the spectra that normalize_spectrum refuses
    grid = [0.0, 1e-12, -1e-9, 2e-9, 1e-8, 1e-5, 0.5, -3.0, 1e8, 1e9, -2e9, 1e10, 1e200, 1e308]
    refused = 0
    for lam in grid:
        for mu in grid:
            try:
                admissible_mask(lam, mu)
            except SingularSpectrum as exc:
                refused += 1
                assert "min |d| = " in str(exc) and "<= TAU_RANK * max(1, max |d|)" in str(exc)
                with pytest.raises(SingularSpectrum):
                    normalize_spectrum([1.0, lam, mu])
            else:
                normalize_spectrum([1.0, lam, mu])
    assert 0 < refused < len(grid) ** 2
    with pytest.raises(SingularSpectrum, match=r"min \|d\| = 1\.0 <= .* = 1e\+191"):
        admissible_mask(1e200, 1e200)


def test_diag_derivation_matches_mask():
    lam, mu = -1.0, 2.0
    alg = from_named(c=0.7, s=-0.4)
    assert derivation_residual(alg, np.diag([1.0, lam, mu])) < LEIBNIZ_TOL
    assert set("cs") <= set(admissible_mask(lam, mu))


def test_forbidden_constant_breaks_the_derivation():
    assert "b" not in admissible_mask(-1.0, 2.0)  # b needs lam = 2
    bad = from_named(c=0.7, s=-0.4, b=1.0)
    assert derivation_residual(bad, np.diag([1.0, -1.0, 2.0])) > 0.1


def test_arrangement_lines_frozen():
    assert set(arrangement_lines(2.0, 3.0)) == {"lambda=2", "mu=lambda+1"}
    assert arrangement_lines(7.0, 11.0) == []


def test_mask_follows_the_leibniz_rule():
    # a single constant c[i, j, k] = 1 has Leibniz residual |d_k - d_i - d_j|
    # under diag(d), d = (1, lam, mu), relative to max(1, |lam|, |mu|)
    rng = np.random.default_rng(8)
    for lam, mu in rng.uniform(-3.0, 3.0, size=(20, 2)):
        d = (1.0, lam, mu)
        defects = slot_defects(lam, mu)
        for letter, (i, j, k) in NAMED_SLOTS.items():
            got = derivation_residual(from_named(**{letter: 1.0}), np.diag(d))
            want = abs(d[k] - d[i] - d[j]) / max(1.0, abs(lam), abs(mu))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), letter
            if letter in MASK_LINES:
                assert abs(defects[letter]) == pytest.approx(abs(d[k] - d[i] - d[j]), rel=1e-12)
    # the always-zero letters are the slots whose output index is an input one
    assert ALWAYS_ZERO_LETTERS == tuple(
        letter for letter, (i, j, k) in NAMED_SLOTS.items() if k in (i, j)
    )
    assert list(defects) == [letter for letter in NAMED_SLOTS if letter in MASK_LINES]


def test_mask_line_names_match_their_zero_sets():
    for letter, name in MASK_LINES.items():
        # the defect is affine in (lam, mu): read off its coefficients
        a = slot_defects(0.0, 0.0)[letter]
        b = slot_defects(1.0, 0.0)[letter] - a
        c = slot_defects(0.0, 1.0)[letter] - a
        lhs, rhs = name.replace("lambda", "lam").split("=")
        for t in (0.3, 1.7):
            lam, mu = (t, -(a + b * t) / c) if c else (-a / b, t)
            assert abs(slot_defects(lam, mu)[letter]) <= 1e-15
            scope = {"lam": lam, "mu": mu}
            assert eval(lhs, scope) == pytest.approx(eval(rhs, scope), rel=1e-12), name
            assert name in arrangement_lines(lam, mu)


def test_normalize_spectrum_frozen_cases():
    case = normalize_spectrum(np.array([3.0, -3.0, 6.0]))
    assert case.family == 1
    np.testing.assert_allclose(case.representative, [1.0, -1.0, 2.0], atol=EIG_TOL)
    assert abs(case.scale - 1.0 / 3.0) < EIG_TOL
    assert case.permutation == (0, 1, 2)

    case = normalize_spectrum(np.array([2.0, 2.0, 4.0]))
    assert case.family == 3
    np.testing.assert_allclose(case.representative, [1.0, 1.0, 2.0], atol=EIG_TOL)

    assert normalize_spectrum(np.array([1.0, 2.0, 4.0])).family == 2
    assert normalize_spectrum(np.array([2.0, 4.0, 6.0])).family == 5
    assert normalize_spectrum(np.array([1.0, 7.0, 11.0])).family == "off-arrangement"


def test_normalize_spectrum_permutation_orders_eigenvalues():
    w = np.array([-3.0, 6.0, 3.0])
    case = normalize_spectrum(w)
    ordered = w[list(case.permutation)]
    np.testing.assert_allclose(ordered * case.scale, case.representative, atol=EIG_TOL)


def test_normalize_spectrum_rejects_zero_entry():
    with pytest.raises(SingularSpectrum):
        normalize_spectrum(np.array([1.0, 0.0, 2.0]))


def test_find_real_ssnd_on_canonicals():
    for tag in TAGS:
        alg = canonical_algebra(tag)
        d = find_real_ssnd(alg)
        assert d is not None, tag
        rep = analyze_spectrum(d)
        assert rep.all_real and rep.semisimple and rep.nonsingular
        assert derivation_residual(alg, d) < LEIBNIZ_TOL


def test_find_real_ssnd_absent_for_idempotent_algebra():
    # every derivation of e1^2 = e1 kills e1, so none is invertible
    alg = from_named(a=1.0)
    assert derivation_space(alg).dim == 4
    assert find_real_ssnd(alg) is None


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_mask_algebra_admits_diagonal_derivation(seed):
    rng = np.random.default_rng(seed)
    lam, mu = random_mask_spectrum(rng)
    alg = random_mask_algebra(lam, mu, rng)
    if alg.scale == 0.0:
        return
    assert derivation_residual(alg, np.diag([1.0, lam, mu])) < LEIBNIZ_TOL


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_jordan_split_semisimple_part_is_semisimple(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3))
    try:
        s, _ = jordan_chevalley(m)
    except IllConditioned:
        return
    rep = analyze_spectrum(s)
    assert rep.semisimple
