"""Classification: fingerprints, certificates, and derivation-eigenbasis reduction."""
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqds3.algebra import Algebra, change_of_basis, from_named, left_mult_matrix, zero_algebra
from hqds3.catalog import (
    canonical_algebra,
    conjugated_canonical,
    random_symmetric_algebra,
)
from hqds3.classify import (
    _certificate_jacobian,
    certificate_residual,
    classify,
    classify_via_derivation,
    fingerprint,
    pairwise_noniso_witness,
    polish_certificate,
    reduce_with_derivation,
)
from hqds3.derivations import derivation_residual, find_real_ssnd, normalize_spectrum

CERT_TOL = 1e-8
REDUCTION_TOL = 1e-12

TAGS = ("A1", "A2", "A3", "A4")

# frozen invariant bundles for the four canonical tables
EXPECTED_FINGERPRINTS = {
    "A1": (0, 2, False, "two-lines", "n/a", 1, True, False, False, False),
    "A2": (2, 1, True, "plane", "n/a", 5, True, True, True, True),
    "A3": (1, 1, True, "two-planes", "indefinite", 4, True, True, True, True),
    "A4": (1, 1, True, "one-line", "definite", 4, True, True, True, True),
}


def _as_tuple(fp):
    return (
        fp.dim_ann,
        fp.dim_sq,
        fp.sq_in_ann,
        fp.nilcone_kind,
        fp.induced_form,
        fp.dim_der,
        fp.solvable,
        fp.nilpotent,
        fp.associative,
        fp.power_associative,
    )


def test_canonical_fingerprints_frozen():
    for tag in TAGS:
        fp = fingerprint(canonical_algebra(tag))
        assert _as_tuple(fp) == EXPECTED_FINGERPRINTS[tag], tag


def test_fingerprints_pairwise_distinct():
    for i, a in enumerate(TAGS):
        for b in TAGS[i + 1 :]:
            name, va, vb = pairwise_noniso_witness(a, b)
            assert va != vb
            assert isinstance(name, str) and name


def test_exact_tables_short_circuit():
    for tag in TAGS:
        res = classify(canonical_algebra(tag))
        assert res.tag == tag
        assert res.residual == 0.0
        assert res.method == "exact-table"
        np.testing.assert_allclose(res.certificate, np.eye(3))


def test_null_algebra_both_routes():
    assert classify(zero_algebra()).tag == "NullAlgebra"
    assert classify_via_derivation(zero_algebra()).tag == "NullAlgebra"


def test_scaled_table_still_classifies():
    for tag in TAGS:
        alg = canonical_algebra(tag)
        scaled = change_of_basis(alg, np.eye(3) * 0.5)  # constants doubled
        res = classify(scaled)
        assert res.tag == tag
        assert res.residual < CERT_TOL
        assert certificate_residual(scaled, tag, res.certificate) < CERT_TOL


@pytest.mark.parametrize("tag", TAGS)
def test_scale_sweep_classifies_on_both_routes(tag):
    # s * table is the table in the basis (1/s) * Id, so every scale that
    # floating point represents well has the same tag, on both routes; a
    # fixed orthogonal conjugation keeps the exact-table shortcut out of it
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    base = change_of_basis(canonical_algebra(tag), q)
    for e in range(-8, 9):
        alg = Algebra(10.0 ** e * base.c)
        for res in (classify(alg), classify_via_derivation(alg)):
            assert res.tag == tag, (e, res.method)
            assert certificate_residual(alg, tag, res.certificate) <= CERT_TOL, e


def test_off_orbit_perturbations_stay_not_in_family():
    # a random symmetric direction of size 1e-6 leaves the orbit of each
    # table, whose codimension is 9 + dim Der, so no route may classify it
    rng = np.random.default_rng(23)
    for tag in TAGS:
        for _ in range(20):
            r = rng.standard_normal((3, 3, 3))
            r = r + r.transpose(1, 0, 2)
            alg = Algebra(canonical_algebra(tag).c + 1e-6 * r / np.linalg.norm(r))
            assert classify(alg).tag == "NotInFamily", tag
            assert classify_via_derivation(alg).tag == "NotInFamily", tag


@pytest.mark.parametrize("seed", [81, 276])
def test_accepted_certificates_meet_the_bound_before_symmetrizing(seed):
    # A1 conjugates of condition 10^2.5-10^3.5 whose polished certificates
    # sit at the roundoff floor, near TAU_CERT: symmetrizing the rewritten
    # constants hid an error above the bound on both.  The check here is
    # the plain rewrite m^-1 (m e_i * m e_j), without symmetrizing.
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cond = 10.0 ** rng.uniform(2.5, 3.5)
    sv = cond ** (np.array([0.0, rng.uniform(), 1.0]) - 0.5)
    alg = change_of_basis(canonical_algebra("A1"), q1 @ np.diag(sv) @ q2)
    for res in (classify(alg), classify_via_derivation(alg)):
        assert res.tag in ("A1", "NotInFamily")
        if res.tag == "A1":
            m = res.certificate
            t = np.einsum("ai,bj,abk->ijk", m, m, alg.c)
            got = np.linalg.solve(m, t.reshape(9, 3).T).T.reshape(3, 3, 3)
            assert np.max(np.abs(got - canonical_algebra("A1").c)) <= CERT_TOL


@pytest.mark.parametrize(
    "constants, spectrum, family",
    [
        # e1 e1 = e2, e2 e2 = e3: spectrum (1, 2, 4), family 2
        ({"b": 1.0, "f": 1.0}, [1.0, 2.0, 4.0], 2),
        # e1 e1 = e2, e1 e2 = e3, the null-filiform t R[t] / t^4: family 5
        ({"b": 1.0, "n": 1.0}, [1.0, 2.0, 3.0], 5),
    ],
)
def test_ssnd_algebras_outside_the_four_tables(constants, spectrum, family):
    # both admit an invertible real-diagonalizable derivation, yet neither
    # is one of A1-A4: both routes say NotInFamily
    alg = from_named(**constants)
    found = find_real_ssnd(alg)
    assert found is not None
    d, rep = found
    assert rep.all_real and rep.semisimple and rep.nonsingular
    case = normalize_spectrum(rep.spectrum)
    assert case.family == family
    np.testing.assert_allclose(case.representative, spectrum, atol=1e-12)
    assert classify(alg).tag == "NotInFamily"
    assert classify_via_derivation(alg).tag == "NotInFamily"


def test_conjugated_round_trip_small():
    rng = np.random.default_rng(5)
    for tag in TAGS:
        for _ in range(10):
            alg, _ = conjugated_canonical(tag, rng)
            res = classify(alg)
            assert res.tag == tag
            assert res.residual < CERT_TOL
            # the certificate is independently checkable
            got = change_of_basis(alg, res.certificate)
            assert np.max(np.abs(got.c - canonical_algebra(tag).c)) < CERT_TOL


def test_via_derivation_round_trip_small():
    rng = np.random.default_rng(6)
    for tag in TAGS:
        for _ in range(10):
            alg, _ = conjugated_canonical(tag, rng)
            res = classify_via_derivation(alg)
            assert res.tag == tag
            assert res.residual < CERT_TOL


def test_random_algebras_not_in_family():
    rng = np.random.default_rng(7)
    for _ in range(10):
        alg = random_symmetric_algebra(rng)
        res = classify(alg)
        assert res.tag == "NotInFamily"
        assert res.certificate is None
        assert res.fingerprint is not None
        via = classify_via_derivation(alg)
        assert via.tag == "NotInFamily"
        assert via.method == "no-ssnd-found"


def test_polish_recovers_perturbed_certificate():
    rng = np.random.default_rng(8)
    alg, m = conjugated_canonical("A3", rng)
    cert = np.linalg.inv(m)  # exact certificate: canonical basis in input coords
    noisy = cert * (1.0 + 1e-6) + 1e-7
    polished = polish_certificate(alg, "A3", noisy)
    assert certificate_residual(alg, "A3", polished) < 1e-11


def _certificate_jacobian_loop(alg, t, m):
    # the index-loop build the broadcast one replaced; same order per entry
    jac = np.zeros((18, 9))
    row = 0
    for i, j in [(i, j) for i in range(3) for j in range(i, 3)]:
        li = left_mult_matrix(alg, m[:, i])
        lj = left_mult_matrix(alg, m[:, j])
        for k in range(3):
            for b in range(3):
                jac[row, k * 3 + b] += t[i, j, b]
            for a in range(3):
                jac[row, a * 3 + i] -= lj[k, a]
                jac[row, a * 3 + j] -= li[k, a]
            row += 1
    return jac


def test_certificate_jacobian_matches_the_loop_build():
    rng = np.random.default_rng(6)
    for tag in TAGS:
        t = canonical_algebra(tag).c
        cases = [(canonical_algebra(tag), np.eye(3))]
        for _ in range(10):
            alg, m = conjugated_canonical(tag, rng)
            cases.append((alg, np.linalg.inv(m)))
            cases.append((random_symmetric_algebra(rng), rng.standard_normal((3, 3))))
        for alg, m in cases:
            assert np.array_equal(_certificate_jacobian(alg, t, m), _certificate_jacobian_loop(alg, t, m))


# --- explicit reductions along a diagonal derivation ---


def test_reduction_scaling_case_p2_q3():
    # spectrum (1,-1,2) leaves e1*e1 = p e3 and e2*e3 = q e1; p=2, q=3
    alg = from_named(c=2.0, s=3.0)
    d = np.diag([1.0, -1.0, 2.0])
    res = reduce_with_derivation(alg, d)
    assert res.tag == "A1"
    assert res.method == "derivation-reduction"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A1").c)) < REDUCTION_TOL
    # the textbook scaling columns work exactly
    direct = change_of_basis(alg, np.diag([1.0 / 2.0, 1.0 / 3.0, 1.0 / 2.0]))
    assert np.max(np.abs(direct.c - canonical_algebra("A1").c)) < REDUCTION_TOL


def test_reduction_spectrum_1_1_2_degenerate_to_a2():
    # only p survives: a single square feeds e3
    alg = from_named(c=1.0)
    res = reduce_with_derivation(alg, np.diag([1.0, 1.0, 2.0]))
    assert res.tag == "A2"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A2").c)) < REDUCTION_TOL


def test_reduction_indefinite_form_lambda_minus_one():
    # p = r = 1, q = -1: the quotient form has signature (+, -)
    alg = from_named(c=1.0, f=-1.0, n=1.0)
    res = reduce_with_derivation(alg, np.diag([1.0, 1.0, 2.0]))
    assert res.tag == "A3"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduction_definite_form_lambda_five():
    # p = r = 1, q = 5: definite quotient form
    alg = from_named(c=1.0, f=5.0, n=1.0)
    res = reduce_with_derivation(alg, np.diag([1.0, 1.0, 2.0]))
    assert res.tag == "A4"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A4").c)) < REDUCTION_TOL


def test_reduction_case_five_double_change():
    # q = 0, p and r nonzero: two chained basis changes land on A3
    alg = from_named(c=1.0, n=1.0)
    res = reduce_with_derivation(alg, np.diag([1.0, 1.0, 2.0]))
    assert res.tag == "A3"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduction_case_six_signs():
    # r = 0: same-sign squares are definite, opposite signs indefinite
    plus = from_named(c=1.0, f=1.0)
    res = reduce_with_derivation(plus, np.diag([1.0, 1.0, 2.0]))
    assert res.tag == "A4"
    assert np.max(np.abs(change_of_basis(plus, res.certificate).c
                         - canonical_algebra("A4").c)) < REDUCTION_TOL
    minus = from_named(c=1.0, f=-1.0)
    res = reduce_with_derivation(minus, np.diag([1.0, 1.0, 2.0]))
    assert res.tag == "A3"
    assert np.max(np.abs(change_of_basis(minus, res.certificate).c
                         - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduce_rejects_non_derivation():
    with pytest.raises(ValueError):
        reduce_with_derivation(canonical_algebra("A1"), np.diag([1.0, 1.0, 2.0]))


def test_reduce_rejects_defective_matrix():
    alg = from_named(c=1.0)
    d = np.diag([1.0, 1.0, 2.0])
    d[0, 1] = 1e-3  # not a derivation and not semisimple for this algebra
    with pytest.raises(ValueError):
        reduce_with_derivation(alg, d)


# family, constants, diagonal derivation, class: the constants each spectrum
# lets survive, and the class the reduction reads off them
SURVIVING_CONSTANTS = [
    (1, {"c": 2.0, "s": 3.0}, (1.0, -1.0, 2.0), "A1"),
    (6, {"c": 1.0}, (1.0, -3.0, 2.0), "A2"),
    (7, {"f": 1.0}, (1.0, -3.0, -6.0), "A2"),
    (7, {"h": 1.0}, (1.0, -3.0, -1.5), "A2"),
    (8, {"n": 1.0}, (1.0, -3.5, -2.5), "A3"),
    (9, {"s": 1.0}, (1.0, -2.5, 3.5), "A3"),
    (4, {"b": 1.0, "c": -2.0}, (1.0, 2.0, 2.0), "A2"),
    # family 3 with its double eigenvalue first: e2 e2, e3 e3, e2 e3 feed e1
    (3, {"d": 1.0, "g": 2.0, "s": 1.0}, (1.0, 0.5, 0.5), "A4"),
    (2, {"b": 1.0, "f": 1.0}, (1.0, 2.0, 4.0), "NotInFamily"),
    (5, {"b": 1.0, "n": 1.0}, (1.0, 2.0, 3.0), "NotInFamily"),
]


def test_reduction_reads_the_class_off_the_surviving_constants():
    for family, constants, spectrum, want in SURVIVING_CONSTANTS:
        alg = from_named(**constants)
        res = reduce_with_derivation(alg, np.diag(spectrum))
        assert (res.spectrum_case.family, res.tag) == (family, want), constants
        assert res.method == "derivation-reduction"
        if want == "NotInFamily":
            assert res.certificate is None
            continue
        got = change_of_basis(alg, res.certificate)
        assert np.max(np.abs(got.c - canonical_algebra(want).c)) < REDUCTION_TOL, constants


def test_reduction_snaps_the_spectrum_onto_its_constants():
    # a derivation 1e-8 off in the Leibniz rule puts the spectrum 1e-8 off
    # the line mu = 2 lambda of the constant f, beyond the mask's TAU_RES;
    # the relations of the constants that are clearly there pin it back
    alg = from_named(c=1.0, f=-1.0, n=1.0)
    res = reduce_with_derivation(alg, np.diag([1.0, 1.0 + 5e-9, 2.0]))
    assert (res.spectrum_case.family, res.tag) == (3, "A3")
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduction_refuses_a_spectrum_its_constants_contradict():
    # b = 1.5e-7 keeps diag(1, 1, 2) within the 1e-7 Leibniz bound, but it
    # needs d2 = 2 d1, which with c and f leaves only the zero spectrum
    alg = from_named(c=1.0, f=1.0, b=1.5e-7)
    with pytest.raises(ValueError, match="relations"):
        reduce_with_derivation(alg, np.diag([1.0, 1.0, 2.0]))


def test_reduction_of_a_candidate_with_nearly_equal_eigenvalues():
    # conjugate 133 of the sweep-recipe stream at seed 2 (cond < 16): the
    # first SSND candidate has eigenvalues 6.4e-5 apart, read as a double
    # root, and its semisimple part has Leibniz residual 2.0e-9; that puts
    # the normalized spectrum 3.7e-9 off (1, 1, 2)
    rng = np.random.default_rng([2, zlib.crc32(b"sweep-recipe")])
    algs = [conjugated_canonical(tag, rng)[0] for _ in range(45) for tag in ("A2", "A3", "A4")]
    res = classify_via_derivation(algs[133])
    assert (res.tag, res.method) == ("A3", "derivation-reduction")
    assert res.residual <= CERT_TOL


def test_semisimple_part_must_be_a_derivation():
    # the last A4 of 27 rounds of A2, A3, A4 from default_rng(2): the
    # semisimple part of its first candidate has a double eigenvalue and
    # Leibniz residual 3.6e-6, so the search must pass it over
    rng = np.random.default_rng(2)
    algs = [conjugated_canonical(tag, rng)[0] for _ in range(27) for tag in ("A2", "A3", "A4")]
    d, _ = find_real_ssnd(algs[-1])
    assert derivation_residual(algs[-1], d) <= 1e-8
    res = classify_via_derivation(algs[-1])
    assert (res.tag, res.method) == ("A4", "derivation-reduction")


def test_derivation_route_never_consults_the_invariant_route(monkeypatch):
    def refuse(alg):
        raise AssertionError("the derivation route called the invariant route")

    monkeypatch.setattr(sys.modules["hqds3.classify"], "classify", refuse)
    # criterion 9's conjugates
    rng = np.random.default_rng(109)
    for i in range(250):
        tag = TAGS[i % 4]
        alg, _ = conjugated_canonical(tag, rng)
        res = classify_via_derivation(alg)
        assert (res.tag, res.method) == (tag, "derivation-reduction"), i
    # the scale sweep's inputs
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    for tag in TAGS:
        base = change_of_basis(canonical_algebra(tag), q)
        for e in range(-8, 9):
            assert classify_via_derivation(Algebra(10.0 ** e * base.c)).tag == tag, (tag, e)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(TAGS), st.integers(min_value=0, max_value=10**6))
def test_conjugation_never_changes_tag(tag, seed):
    rng = np.random.default_rng(seed)
    alg, _ = conjugated_canonical(tag, rng)
    assert classify(alg).tag == tag


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=10**6))
def test_paths_never_disagree_on_definite_tags(seed):
    rng = np.random.default_rng(seed)
    alg = random_symmetric_algebra(rng)
    a = classify(alg)
    b = classify_via_derivation(alg)
    if a.is_definite and b.is_definite:
        assert a.tag == b.tag
