"""Classification: fingerprints, certificates, and derivation-eigenbasis reduction."""
import dataclasses
import gc
import runpy
import sys
import weakref
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqds3.algebra import (
    NAMED_SLOTS,
    Algebra,
    change_of_basis,
    from_named,
    left_mult_matrix,
    product,
)
from hqds3.catalog import (
    canonical_algebra,
    conjugated_canonical,
    random_symmetric_algebra,
)
from hqds3.classify import (
    ClassificationResult,
    _certificate_jacobian,
    _certify,
    _snapped_spectrum,
    certificate_residual,
    classify,
    classify_via_derivation,
    fingerprint,
    pairwise_noniso_witness,
    polish_certificate,
    reduce_with_derivation,
)
from hqds3 import derivations
from hqds3.derivations import (
    RELATIONS,
    SLOT_ARRAY,
    analyze_spectrum,
    derivation_residual,
    derivation_space,
    find_real_ssnd,
    normalize_spectrum,
    real_semisimple_part,
)
from hqds3.tolerances import TAU_CERT

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


def test_exact_table_short_circuit_needs_scale_one():
    # the exact comparison runs only at scale 1, every canonical table's: a
    # table written with -0.0 zeros is still that table, twice it is not
    for tag in TAGS:
        table = canonical_algebra(tag).c
        signed = Algebra(np.where(table == 0.0, -0.0, table))
        assert np.signbit(signed.c).any()
        res = classify(signed)
        assert (res.tag, res.method, res.residual) == (tag, "exact-table", 0.0)
        assert np.array_equal(res.certificate, np.eye(3))
        res = classify(Algebra(2.0 * table))
        assert (res.tag, res.method) == (tag, "invariant-recipe")


def test_null_algebra_both_routes():
    assert classify(Algebra(np.zeros((3, 3, 3)))).tag == "NullAlgebra"
    via = classify_via_derivation(Algebra(np.zeros((3, 3, 3))))
    assert via.tag == "NullAlgebra"
    # every invertible matrix is a derivation of the zero algebra
    np.testing.assert_array_equal(via.ssnd.matrix, np.eye(3))


def test_scaled_table_still_classifies():
    for tag in TAGS:
        alg = canonical_algebra(tag)
        scaled = change_of_basis(alg, np.eye(3) * 0.5)  # constants doubled
        res = classify(scaled)
        assert res.tag == tag
        assert res.residual < CERT_TOL
        assert certificate_residual(scaled, tag, res.certificate) < CERT_TOL


# exponents at which the scale sweep also judges the certificate in the input
# frame, whose products overflow outside about 1e-153 to 1e157
SCALE_SWEEP_INPUT_FRAME = (-150, -105, -100, -50, -13, *range(-8, 9))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", TAGS)
def test_scale_sweep_classifies_on_both_routes(tag):
    # s * table is the table in the basis (1/s) * Id, so every scale that
    # floating point represents well has the same tag, on both routes: only
    # the zero tensor is the zero algebra, and 1e-150 * table is not it; a
    # fixed orthogonal conjugation keeps the exact-table shortcut out of it.
    # At 1e-105 the SSND search of A2 meets a defective candidate whose
    # semisimple part is no derivation, and must judge it on the normalized
    # constants.  Every decade from 1e-300 to 1e300 is tagged too, and its
    # certificate, taken back to the normalized table, meets the bound there
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    base = change_of_basis(canonical_algebra(tag), q)
    more = [e for e in range(-300, 301) if e not in SCALE_SWEEP_INPUT_FRAME]
    for e in (*SCALE_SWEEP_INPUT_FRAME, *more):
        alg = Algebra(10.0 ** e * base.c)
        norm, k = alg.normalized()
        for res in (classify(alg), classify_via_derivation(alg)):
            assert res.tag == tag, (e, res.method)
            if e in SCALE_SWEEP_INPUT_FRAME:
                assert certificate_residual(alg, tag, res.certificate) <= CERT_TOL, e
            else:
                assert certificate_residual(norm, tag, np.ldexp(res.certificate, k)) <= CERT_TOL, e


# condition numbers of the kappa sweep, in drawing order
SWEEP_KAPPAS = (1.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e8)


def _kappa_sweep():
    """(kappa, tag, table in the basis m^-1) for m = Q1 diag(1, sqrt(kappa),
    kappa) Q2 with Q1, Q2 from the QR of Gaussian matrices, 15 per tag and
    kappa, all drawn from default_rng(5)."""
    rng = np.random.default_rng(5)
    for kappa in SWEEP_KAPPAS:
        for tag in TAGS:
            for _ in range(15):
                q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                m = q1 @ np.diag([1.0, np.sqrt(kappa), kappa]) @ q2
                yield kappa, tag, change_of_basis(canonical_algebra(tag), np.linalg.inv(m))


# tag -> the largest kappa of the sweep up to which the (invariant,
# derivation) route classifies every input; above it some or all miss
SWEEP_LIMITS = {"A1": (1e3, 1.0), "A2": (1e6, 1e6), "A3": (1e6, 1e6), "A4": (1e6, 1e6)}

# (tag, route) -> inputs of the 15 per kappa that get their tag, in
# SWEEP_KAPPAS order; A1 is the one class whose routes miss below 1e8
SWEEP_HITS = {
    ("A1", "invariant"): (15, 15, 15, 2, 0, 0, 0),
    ("A1", "derivation"): (15, 10, 0, 0, 0, 0, 0),
}


def test_kappa_sweep_classifies_up_to_the_pinned_limits():
    hits = Counter()
    for kappa, tag, alg in _kappa_sweep():
        for route, limit, run in zip(
            ("invariant", "derivation"), SWEEP_LIMITS[tag], (classify, classify_via_derivation)
        ):
            if kappa <= limit or (tag, route) in SWEEP_HITS:
                hit = run(alg).tag == tag
                assert hit or kappa > limit, (tag, route, kappa)
                hits[tag, route, kappa] += hit
    for (tag, route), want in SWEEP_HITS.items():
        assert tuple(hits[tag, route, kappa] for kappa in SWEEP_KAPPAS) == want, (tag, route)


def test_kappa_1e3_a1_draw_the_polish_pushed_over_the_bound_tags_a1():
    # the tenth A1 draw at kappa = 1e3 has a raw invariant-route certificate
    # at 5.7e-9, which eight polish steps took to 1.2e-8, above TAU_CERT
    draws = [alg for kappa, tag, alg in _kappa_sweep() if (tag, kappa) == ("A1", 1e3)]
    res = classify(draws[9])
    assert res.tag == "A1"
    assert res.residual == certificate_residual(draws[9], "A1", res.certificate) <= TAU_CERT


def test_futile_ssnd_searches_try_each_sign_pattern_at_most_once(monkeypatch):
    # the derivation route misses A1 from kappa = 1e4 on; each miss may cost
    # one analysis per nonzero sign pattern and one per semisimple part
    calls = []
    original = derivations.analyze_spectrum
    monkeypatch.setattr(derivations, "analyze_spectrum", lambda m: calls.append(1) or original(m))
    for kappa, tag, alg in _kappa_sweep():
        if tag == "A1" and kappa >= 1e4:
            calls.clear()
            find_real_ssnd(alg)
            assert len(calls) <= 2 * (3 ** len(derivation_space(alg)) - 1), kappa


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
    rep = find_real_ssnd(alg)
    assert rep is not None
    assert rep.all_real and rep.semisimple and rep.nonsingular
    case = normalize_spectrum(np.sort(rep.eigenvalues.real))
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


def _counting_polish(monkeypatch):
    module = sys.modules["hqds3.classify"]
    calls, original = [], module.polish_certificate

    def counting(alg, tag, m):
        calls.append(tag)
        return original(alg, tag, m)

    monkeypatch.setattr(module, "polish_certificate", counting)
    return calls


def test_passing_candidates_are_not_polished(monkeypatch):
    # well-conditioned conjugates pass TAU_CERT raw on both routes, so no
    # certificate is polished and each result reports its own residual
    calls = _counting_polish(monkeypatch)
    rng = np.random.default_rng(12)
    for tag in TAGS:
        for _ in range(5):
            alg, _ = conjugated_canonical(tag, rng)
            for res in (classify(alg), classify_via_derivation(alg)):
                assert res.tag == tag, res.method
                assert res.residual == certificate_residual(alg, tag, res.certificate)
    assert calls == []


def test_the_derivation_route_calls_no_det_and_no_lstsq(monkeypatch):
    # nonsingular is read off the roots analyze_spectrum already holds, and
    # the spectrum snap projects onto nullspace's basis; these conjugates
    # pass TAU_CERT as built, so the polish, which solves by lstsq, never runs
    calls = _counting_polish(monkeypatch)
    linalg_calls = Counter()
    for name in ("det", "lstsq"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            linalg_calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rng = np.random.default_rng(0)
    for n in range(40):
        tag = TAGS[n % 4]
        alg, _ = conjugated_canonical(tag, rng)
        assert classify_via_derivation(alg).tag == tag, n
    assert calls == []
    assert linalg_calls == Counter()


def test_a_missing_candidate_is_polished_once(monkeypatch):
    # the planted near-certificate misses TAU_CERT raw; the result is the
    # polish's, bit for bit, and a candidate beyond repair stays a miss
    rng = np.random.default_rng(8)
    alg, m = conjugated_canonical("A3", rng)
    noisy = np.linalg.inv(m) * (1.0 + 1e-6) + 1e-7
    assert certificate_residual(alg, "A3", noisy) > TAU_CERT
    want = polish_certificate(alg, "A3", noisy)
    calls = _counting_polish(monkeypatch)
    got, res = _certify(alg, "A3", noisy)
    assert calls == ["A3"]
    assert np.array_equal(got, want)
    assert res == certificate_residual(alg, "A3", want) <= TAU_CERT
    got, res = _certify(alg, "A3", rng.standard_normal((3, 3)))
    assert calls == ["A3", "A3"]
    assert res > TAU_CERT


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


def test_polish_residual_matches_the_per_pair_loop(monkeypatch):
    # every residual the polish solves for equals the per-pair build at the
    # iterate its Jacobian was built at, bit for bit
    module = sys.modules["hqds3.classify"]
    jacobian, lstsq = module._certificate_jacobian, np.linalg.lstsq
    iterates, residuals = [], []

    def recording_jacobian(alg, t, m):
        iterates.append((alg, t, m.copy()))
        return jacobian(alg, t, m)

    def recording_lstsq(a, b, rcond):
        residuals.append(b.copy())
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(module, "_certificate_jacobian", recording_jacobian)
    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    rng = np.random.default_rng(9)
    for tag in TAGS:
        for _ in range(5):
            alg, m = conjugated_canonical(tag, rng)
            polish_certificate(alg, tag, np.linalg.inv(m) * (1.0 + 1e-6) + 1e-7)
            polish_certificate(random_symmetric_algebra(rng), tag, rng.standard_normal((3, 3)))
    assert len(iterates) == len(residuals) > 40
    for (alg, t, m), g in zip(iterates, residuals):
        loop = [m @ t[i, j] - product(alg, m[:, i], m[:, j]) for i in range(3) for j in range(i, 3)]
        assert np.array_equal(g, np.concatenate(loop))


# --- explicit reductions along a diagonal derivation ---


def test_reduction_scaling_case_p2_q3():
    # spectrum (1,-1,2) leaves e1*e1 = p e3 and e2*e3 = q e1; p=2, q=3
    alg = from_named(c=2.0, s=3.0)
    d = np.diag([1.0, -1.0, 2.0])
    res = reduce_with_derivation(alg, analyze_spectrum(d))
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
    res = reduce_with_derivation(alg, analyze_spectrum(np.diag([1.0, 1.0, 2.0])))
    assert res.tag == "A2"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A2").c)) < REDUCTION_TOL


def test_reduction_indefinite_form_lambda_minus_one():
    # p = r = 1, q = -1: the quotient form has signature (+, -)
    alg = from_named(c=1.0, f=-1.0, n=1.0)
    res = reduce_with_derivation(alg, analyze_spectrum(np.diag([1.0, 1.0, 2.0])))
    assert res.tag == "A3"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduction_definite_form_lambda_five():
    # p = r = 1, q = 5: definite quotient form
    alg = from_named(c=1.0, f=5.0, n=1.0)
    res = reduce_with_derivation(alg, analyze_spectrum(np.diag([1.0, 1.0, 2.0])))
    assert res.tag == "A4"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A4").c)) < REDUCTION_TOL


def test_reduction_case_five_double_change():
    # q = 0, p and r nonzero: two chained basis changes land on A3
    alg = from_named(c=1.0, n=1.0)
    res = reduce_with_derivation(alg, analyze_spectrum(np.diag([1.0, 1.0, 2.0])))
    assert res.tag == "A3"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduction_case_six_signs():
    # r = 0: same-sign squares are definite, opposite signs indefinite
    plus = from_named(c=1.0, f=1.0)
    res = reduce_with_derivation(plus, analyze_spectrum(np.diag([1.0, 1.0, 2.0])))
    assert res.tag == "A4"
    assert np.max(np.abs(change_of_basis(plus, res.certificate).c
                         - canonical_algebra("A4").c)) < REDUCTION_TOL
    minus = from_named(c=1.0, f=-1.0)
    res = reduce_with_derivation(minus, analyze_spectrum(np.diag([1.0, 1.0, 2.0])))
    assert res.tag == "A3"
    assert np.max(np.abs(change_of_basis(minus, res.certificate).c
                         - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduce_rejects_non_derivation():
    with pytest.raises(ValueError):
        reduce_with_derivation(canonical_algebra("A1"), analyze_spectrum(np.diag([1.0, 1.0, 2.0])))


def test_reduce_rejects_defective_matrix():
    alg = from_named(c=1.0)
    d = np.diag([1.0, 1.0, 2.0])
    d[0, 1] = 1e-3  # not a derivation and not semisimple for this algebra
    with pytest.raises(ValueError):
        reduce_with_derivation(alg, analyze_spectrum(d))


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
        assert normalize_spectrum(spectrum).family == family, constants
        res = reduce_with_derivation(alg, analyze_spectrum(np.diag(spectrum)))
        assert res.tag == want, constants
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
    res = reduce_with_derivation(alg, analyze_spectrum(np.diag([1.0, 1.0 + 5e-9, 2.0])))
    assert res.tag == "A3"
    got = change_of_basis(alg, res.certificate)
    assert np.max(np.abs(got.c - canonical_algebra("A3").c)) < REDUCTION_TOL


def test_reduction_refuses_a_spectrum_its_constants_contradict():
    # b = 1.5e-7 keeps diag(1, 1, 2) within the 1e-7 Leibniz bound, but it
    # needs d2 = 2 d1, which with c and f leaves only the zero spectrum
    alg = from_named(c=1.0, f=1.0, b=1.5e-7)
    with pytest.raises(ValueError, match="relations"):
        reduce_with_derivation(alg, analyze_spectrum(np.diag([1.0, 1.0, 2.0])))


def _snapped_spectrum_reference(w, eig):
    # the least-squares move the projection replaced, verbatim
    a = RELATIONS[np.abs(eig.c[tuple(SLOT_ARRAY.T)]) > 1e-7 * max(1.0, eig.scale)]
    if not a.size:
        return w
    snapped = w - np.linalg.lstsq(a, a @ w, rcond=None)[0]
    if float(np.abs(snapped - w).max()) > 1e-6 * float(np.abs(w).max()):
        raise ValueError("spectrum is far from the relations its constants impose")
    return snapped


# constants of an algebra in a derivation's eigenbasis, and a spectrum that
# meets their relations (None: one drawn on the relation's plane).  The first
# three select one row each, then two rows of rank 2, three rows of rank 2,
# and three of rank 3, which only the zero spectrum meets
SNAP_CASES = [
    ({"c": 2.0}, None),
    ({"n": 1.5}, None),
    ({"s": -1.0}, None),
    ({"c": 1.0, "f": -1.0}, (1.0, 1.0, 2.0)),
    ({"d": 1.0, "g": 2.0, "s": 1.0}, (1.0, 0.5, 0.5)),
    ({"c": 1.0, "f": 1.0, "b": 1.0}, (1.0, 1.0, 2.0)),
]


def test_snapped_spectrum_matches_the_least_squares_move():
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    seen = Counter()
    for constants, spectrum in SNAP_CASES:
        for _ in range(20):
            exact = from_named(**{k: v * 10.0 ** rng.uniform(-3, 3) for k, v in constants.items()})
            # eigenbasis noise below the 1e-7 cut selects no further row
            noise = 1e-9 * exact.scale * rng.standard_normal((3, 3, 3))
            eig = Algebra(exact.c + noise + noise.transpose(1, 0, 2))
            if spectrum is None:
                (i, j, k), = (slot for letter, slot in NAMED_SLOTS.items() if letter in constants)
                w = np.array([1.0, *rng.uniform(-3, 3, 2)])
                w[k] = w[i] + w[j]
            else:
                w = np.array(spectrum)
            w *= rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 2)
            rows = RELATIONS[np.abs(eig.c[tuple(SLOT_ARRAY.T)]) > 1e-7 * max(1.0, eig.scale)]
            assert len(rows) == len(constants)
            for off in (0.0, 1e-9, 1e-5):
                v = w + off * float(np.abs(w).max()) * rng.standard_normal(3)
                try:
                    want = _snapped_spectrum_reference(v, eig)
                except ValueError:
                    with pytest.raises(ValueError, match="relations"):
                        _snapped_spectrum(v, eig)
                    seen[np.linalg.matrix_rank(rows), "raised"] += 1
                    continue
                got = _snapped_spectrum(v, eig)
                assert np.abs(got - want).max() <= 4 * eps * np.abs(v).max(), (constants, off)
                seen[np.linalg.matrix_rank(rows), "moved"] += 1
    # every rank below 3 snaps a near spectrum and refuses a far one, and
    # rank 3, whose null space is 0, refuses every nonzero spectrum
    assert set(seen) == {(1, "moved"), (1, "raised"), (2, "moved"), (2, "raised"), (3, "raised")}
    # no constant above the cut selects no row: the spectrum itself, bit for bit
    w = np.array([1.0, -3.0, 2.5])
    for c in (np.zeros((3, 3, 3)), 1e-8 * canonical_algebra("A3").c):
        assert np.array_equal(_snapped_spectrum(w, Algebra(c)), w)


def test_reduction_of_the_zero_algebra_is_null():
    res = reduce_with_derivation(Algebra(np.zeros((3, 3, 3))), analyze_spectrum(np.diag([1.0, 2.0, 3.0])))
    assert (res.tag, res.method) == ("NullAlgebra", "derivation-reduction")


def test_reduction_reads_null_off_the_algebra_not_its_eigenbasis():
    # the eigenbasis e3 + eps e1, e3 + eps e2, e3 of diag(1, 2, 3) on A3 is
    # nearly singular and rewrites the constants to about eps^2 = 1e-10; the
    # algebra is not null, and the certificate is built in the input frame
    eps = 1e-5
    e = np.eye(3)
    basis = np.column_stack([e[2] + eps * e[0], e[2] + eps * e[1], e[2]])
    ssnd = dataclasses.replace(analyze_spectrum(np.diag([1.0, 2.0, 3.0])), eigenvectors=basis)
    res = reduce_with_derivation(canonical_algebra("A3"), ssnd)
    assert (res.tag, res.method) == ("A3", "derivation-reduction")
    assert res.residual <= CERT_TOL


def test_reduction_of_a_candidate_with_nearly_equal_eigenvalues():
    # conjugate 73 of the sweep-recipe stream at seed 9 (cond < 16) and the
    # derivation with coefficients default_rng(0).standard_normal(dim): its
    # eigenvalues are 4.4e-5 apart, read as a double root, and its
    # semisimple part has Leibniz residual 7.5e-9; that puts the normalized
    # spectrum 1.2e-7 off (1, 1, 2)
    rng = np.random.default_rng([9, zlib.crc32(b"sweep-recipe")])
    algs = [conjugated_canonical(tag, rng)[0] for _ in range(45) for tag in ("A2", "A3", "A4")]
    space = derivation_space(algs[73])
    m = np.tensordot(np.random.default_rng(0).standard_normal(len(space)), space, 1)
    d = real_semisimple_part(analyze_spectrum(m / np.max(np.abs(m))))
    d /= np.max(np.abs(d))
    assert 1e-10 < derivation_residual(algs[73], d) <= 1e-8
    res = reduce_with_derivation(algs[73], analyze_spectrum(d))
    assert (res.tag, res.method) == ("A3", "derivation-reduction")
    assert res.residual <= CERT_TOL


def test_semisimple_part_must_be_a_derivation():
    # the last A4 of 70 rounds of A2, A3, A4 from default_rng(0): the
    # semisimple part of its first sign pattern has a double eigenvalue and
    # Leibniz residual 3.0e-5, so the search must pass it over
    rng = np.random.default_rng(0)
    algs = [conjugated_canonical(tag, rng)[0] for _ in range(70) for tag in ("A2", "A3", "A4")]
    d = find_real_ssnd(algs[-1]).matrix
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


def test_canonical_tables_are_built_once():
    for tag in TAGS:
        table = canonical_algebra(tag)
        assert canonical_algebra(tag) is table
        with pytest.raises(ValueError):
            table.c[0, 0, 0] = 1.0
        before = fingerprint.cache_info().hits
        assert fingerprint(canonical_algebra(tag)) is fingerprint(canonical_algebra(tag))
        assert fingerprint.cache_info().hits > before
    with pytest.raises(ValueError, match="unknown canonical tag"):
        canonical_algebra("A5")


def test_no_algebra_outlives_its_use():
    # the invariants are memoized on the algebra itself, so once a caller
    # drops an algebra nothing keeps it or its normalized form alive
    rng = np.random.default_rng(9)
    random_alg = random_symmetric_algebra(rng)
    a1_alg, _ = conjugated_canonical("A1", rng)
    refs = []
    for alg in (random_alg, a1_alg):
        classify(alg)
        classify_via_derivation(alg)
        fingerprint(alg)
        assert alg.normalized()[0] is not alg
        refs += [weakref.ref(alg), weakref.ref(alg.normalized()[0])]
    del random_alg, a1_alg, alg
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


ATLAS = Path(__file__).resolve().parents[1] / "scripts" / "spectrum_atlas.py"


def test_spectrum_atlas_enumerates_every_ssnd_class():
    # every support a diagonal SSND allows, at every meet of its lines and
    # on each line alone, with +-1 constants: both routes agree, and the
    # classes are A1-A4 and the two algebras outside the four tables
    atlas = runpy.run_path(str(ATLAS))
    meets = atlas["meets"]()
    assert Counter(len(atlas["letters_on"](*p)) for p in meets) == {2: 21, 3: 3}
    families = Counter(
        normalize_spectrum([1.0, float(lam), float(mu)]).family for lam, mu in meets
    )
    assert families == {1: 6, 2: 6, 3: 3, 4: 3, 5: 6}

    entries = atlas["atlas"]()
    assert len(entries) == 264
    assert [e for e in entries if e.invariant.tag != e.derivation.tag] == []
    tags = Counter(e.invariant.tag for e in entries)
    assert tags == {"A2": 108, "A3": 78, "A1": 24, "A4": 6, "NotInFamily": 48}
    extras = {fingerprint(from_named(b=1.0, f=1.0)), fingerprint(from_named(b=1.0, n=1.0))}
    assert {e.invariant.fingerprint for e in entries if e.invariant.tag == "NotInFamily"} == extras


def test_spectrum_atlas_fails_when_the_routes_disagree(monkeypatch, capsys):
    atlas = runpy.run_path(str(ATLAS))
    split = atlas["Entry"](
        (2, 3),
        {"b": 1.0, "n": 1.0},
        ClassificationResult("NotInFamily", None, None, "invariant-recipe"),
        ClassificationResult("A3", None, None, "derivation-reduction"),
    )
    monkeypatch.setitem(atlas["main"].__globals__, "atlas", lambda: [split])
    monkeypatch.setattr(sys, "argv", ["spectrum_atlas.py"])
    assert atlas["main"]() == 1
    assert "routes disagree" in capsys.readouterr().err
