"""Acceptance battery: nine numbered criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Every numeric threshold below is part of the package contract; do not loosen.
"""
import numpy as np

from hqds3.algebra import (
    NAMED_SLOTS,
    Algebra,
    automorphism_residual,
    change_of_basis,
    from_named,
    nilpotent_cone,
)
from hqds3.catalog import (
    automorphism_family,
    automorphism_swap,
    canonical_algebra,
    conjugated_canonical,
    derivation_family,
    random_automorphism_params,
    random_derivation_params,
    random_mask_algebra,
    random_mask_spectrum,
    random_symmetric_algebra,
)
from hqds3.classify import (
    canonical_fingerprint,
    classify,
    classify_via_derivation,
    pairwise_noniso_witness,
    reduce_with_derivation,
)
from hqds3.derivations import (
    MASK_LINES,
    IllConditioned,
    admissible_mask,
    derivation_residual,
    derivation_space,
    jordan_chevalley,
)
from hqds3.cli import canonical_cells
from hqds3.dynamics import affine_flow, curve_geometry, integrate, ray_solution

TAGS = ("A1", "A2", "A3", "A4")

DER_TOL = 1e-9          # criteria 1, 6, 7 (Leibniz residuals)
AUT_TOL = 1e-9          # criterion 2
CERT_TOL = 1e-8         # criterion 3
REDUCTION_TOL = 1e-12   # criterion 5
FLIP_MIN = 0.1          # criterion 6
JC_TOL = 1e-8           # criterion 7
ILL_FRACTION = 0.02     # criterion 7
STEADY_TOL = 1e-9       # criterion 8a
AFFINE_TOL = 1e-9       # criterion 8b
CONSERVED_TOL = 1e-8    # criterion 8c
TORSION_TOL = 1e-6      # criterion 8c
RAY_RTOL = 1e-6         # criterion 8e


def _report(num, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cells_constant(tag, traj) -> bool:
    """Whether a trajectory of a canonical table keeps one partition cell."""
    cells = canonical_cells(tag, np.eye(3), traj.states)
    return all(cells[0].same_cell(c) for c in cells)


def test_criterion_1_derivation_dimensions():
    dims = tuple(derivation_space(canonical_algebra(t)).dim for t in TAGS)
    rng = np.random.default_rng(101)
    worst = 0.0
    for tag in TAGS:
        alg = canonical_algebra(tag)
        for _ in range(100):
            d = derivation_family(tag, random_derivation_params(tag, rng))
            worst = max(worst, derivation_residual(alg, d))
    ok = dims == (1, 5, 4, 4) and worst < DER_TOL
    _report(1, ok, f"dims {dims}, max Leibniz residual {worst:.2e} over 400 draws")


def test_criterion_2_automorphism_families():
    rng = np.random.default_rng(102)
    worst = 0.0
    for tag in TAGS:
        alg = canonical_algebra(tag)
        for _ in range(100):
            m = automorphism_family(tag, random_automorphism_params(tag, rng))
            worst = max(worst, automorphism_residual(alg, m))
    h = automorphism_swap("A3")
    swap_exact = np.array_equal(h @ h, np.eye(3))
    a3 = canonical_algebra("A3")
    for _ in range(100):
        m = h @ automorphism_family("A3", random_automorphism_params("A3", rng))
        worst = max(worst, automorphism_residual(a3, m))
    ok = worst < AUT_TOL and swap_exact
    _report(
        2,
        ok,
        f"max homomorphism residual {worst:.2e} over 500 members, "
        f"swap squares to identity exactly: {swap_exact}",
    )


def test_criterion_3_conjugation_round_trip():
    rng = np.random.default_rng(103)
    misses = 0
    worst = 0.0
    for tag in TAGS:
        for _ in range(100):
            alg, _ = conjugated_canonical(tag, rng)
            res = classify(alg)
            if res.tag != tag:
                misses += 1
            else:
                worst = max(worst, res.residual)
    ok = misses == 0 and worst < CERT_TOL
    _report(
        3, ok, f"{misses} misclassifications / 400, max certificate residual {worst:.2e}"
    )


def test_criterion_4_pairwise_non_isomorphism():
    prints = {tag: canonical_fingerprint(tag) for tag in TAGS}
    distinct = len({tuple(vars(fp).items()) for fp in prints.values()}) == 4
    witnessed = 0
    for i, a in enumerate(TAGS):
        for b in TAGS[i + 1 :]:
            name, va, vb = pairwise_noniso_witness(a, b)
            if name and va != vb:
                witnessed += 1
    ok = distinct and witnessed == 6
    _report(4, ok, f"4 distinct fingerprints, witnesses for {witnessed}/6 pairs")


def test_criterion_5_explicit_reductions():
    # each entry: constants, diagonal derivation, expected class
    cases = [
        ("scaling (p,q)=(2,3)", from_named(c=2.0, s=3.0), np.diag([1.0, -1.0, 2.0]), "A1"),
        ("cross term -1", from_named(c=1.0, f=-1.0, n=1.0), np.diag([1.0, 1.0, 2.0]), "A3"),
        ("cross term 5", from_named(c=1.0, f=5.0, n=1.0), np.diag([1.0, 1.0, 2.0]), "A4"),
        ("double change", from_named(c=1.0, n=1.0), np.diag([1.0, 1.0, 2.0]), "A3"),
        ("sign split", from_named(c=1.0, f=1.0), np.diag([1.0, 1.0, 2.0]), "A4"),
    ]
    worst = 0.0
    bad = []
    for name, alg, d, want in cases:
        res = reduce_with_derivation(alg, d)
        if res.tag != want:
            bad.append(name)
            continue
        err = float(
            np.max(np.abs(change_of_basis(alg, res.certificate).c
                          - canonical_algebra(want).c))
        )
        worst = max(worst, err)
    ok = not bad and worst < REDUCTION_TOL
    _report(5, ok, f"5 textbook reductions, max table error {worst:.2e}, failed: {bad}")


def test_criterion_6_mask_consistency():
    rng = np.random.default_rng(106)
    worst_ok = 0.0
    worst_flip = np.inf
    flips = 0
    for _ in range(1000):
        lam, mu = random_mask_spectrum(rng)
        alg = random_mask_algebra(lam, mu, rng)
        d = np.diag([1.0, lam, mu])
        worst_ok = max(worst_ok, derivation_residual(alg, d))
        for letter in sorted(set(MASK_LINES).difference(admissible_mask(lam, mu))):
            i, j, k = NAMED_SLOTS[letter]
            c = alg.c.copy()
            c[i, j, k] = 1.0
            c[j, i, k] = 1.0
            worst_flip = min(worst_flip, derivation_residual(Algebra(c), d))
            flips += 1
    ok = worst_ok < DER_TOL and worst_flip > FLIP_MIN
    _report(
        6,
        ok,
        f"1000 mask algebras: max residual {worst_ok:.2e}; "
        f"{flips} forbidden flips, min residual {worst_flip:.2e}",
    )


def test_criterion_7_jordan_chevalley():
    rng = np.random.default_rng(107)
    ill = 0
    worst = 0.0
    n_draws = 1000
    for _ in range(n_draws):
        m = rng.standard_normal((3, 3))
        try:
            s, n = jordan_chevalley(m)
        except IllConditioned:
            ill += 1
            continue
        worst = max(
            worst,
            float(np.max(np.abs(s + n - m))),
            float(np.max(np.abs(s @ n - n @ s))),
            float(np.max(np.abs(n @ n @ n))),
        )
    worst_der = 0.0
    for tag in TAGS:
        alg = canonical_algebra(tag)
        for d in derivation_space(alg).basis:
            s, n = jordan_chevalley(d)
            worst_der = max(
                worst_der, derivation_residual(alg, s), derivation_residual(alg, n)
            )
    ok = ill < ILL_FRACTION * n_draws and worst < JC_TOL and worst_der < DER_TOL
    _report(
        7,
        ok,
        f"{ill} ill-conditioned / {n_draws}, max split residual {worst:.2e}, "
        f"max derivation-part residual {worst_der:.2e}",
    )


def test_criterion_8_dynamics_dictionary():
    cells_ok = True

    # (a) nilcone samples are steady states
    worst_drift = 0.0
    n_samples = 0
    for tag in TAGS:
        alg = canonical_algebra(tag)
        for x0 in nilpotent_cone(alg).samples:
            traj = integrate(alg, x0, 1.0)
            worst_drift = max(
                worst_drift, float(np.max(np.abs(traj.states - traj.states[0])))
            )
            cells_ok = cells_ok and _cells_constant(tag, traj)
            n_samples += 1
    a_ok = worst_drift < STEADY_TOL

    # (b) straight-line classes: zero curvature and the affine closed form
    rng = np.random.default_rng(108)
    worst_curv = 0.0
    worst_aff = 0.0
    for tag in ("A2", "A3", "A4"):
        alg = canonical_algebra(tag)
        for _ in range(5):
            x0 = rng.uniform(-1.0, 1.0, size=3)
            traj = integrate(alg, x0, 10.0)
            _, kappa, _ = curve_geometry(alg, traj.states)
            defined = ~np.isnan(kappa)
            if np.any(defined):
                worst_curv = max(worst_curv, float(np.max(np.abs(kappa[defined]))))
            worst_aff = max(
                worst_aff,
                float(np.max(np.abs(traj.states - affine_flow(alg, x0, traj.times)))),
            )
            cells_ok = cells_ok and _cells_constant(tag, traj)
    b_ok = worst_curv < AFFINE_TOL and worst_aff < AFFINE_TOL

    # (c) first class: conserved second coordinate, negligible torsion
    a1 = canonical_algebra("A1")
    worst_x2 = 0.0
    worst_tor = 0.0
    reached = True
    for _ in range(50):
        v = rng.standard_normal(3)
        x0 = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)
        traj = integrate(a1, x0, 1.0)
        reached = reached and traj.terminated == "t_end_reached"
        worst_x2 = max(
            worst_x2, float(np.max(np.abs(traj.states[:, 1] - traj.states[0, 1])))
        )
        _, _, tau = curve_geometry(a1, traj.states)
        defined = ~np.isnan(tau)
        if np.any(defined):
            worst_tor = max(worst_tor, float(np.max(np.abs(tau[defined]))))
        cells_ok = cells_ok and _cells_constant("A1", traj)
    c_ok = reached and worst_x2 < CONSERVED_TOL and worst_tor < TORSION_TOL

    # (d) collected along the way
    d_ok = cells_ok

    # (e) idempotent ray against the exact blow-up profile
    ray_alg = from_named(a=1.0)
    worst_ray = 0.0
    for alpha0 in (0.5, 1.0, 2.0):
        traj = integrate(ray_alg, np.array([alpha0, 0.0, 0.0]), 0.9 / alpha0)
        expected = ray_solution(np.array([1.0, 0.0, 0.0]), traj.times, alpha0=alpha0)
        denom = np.maximum(np.max(np.abs(expected), axis=1), 1e-300)
        worst_ray = max(
            worst_ray, float(np.max(np.max(np.abs(traj.states - expected), axis=1) / denom))
        )
    e_ok = worst_ray < RAY_RTOL

    ok = a_ok and b_ok and c_ok and d_ok and e_ok
    _report(
        8,
        ok,
        f"(a) {n_samples} cone samples drift {worst_drift:.2e}; "
        f"(b) curvature {worst_curv:.2e}, affine error {worst_aff:.2e}; "
        f"(c) conserved coordinate {worst_x2:.2e}, torsion {worst_tor:.2e}; "
        f"(d) cells constant: {d_ok}; (e) ray rel err {worst_ray:.2e}",
    )


def test_criterion_9_path_agreement():
    rng = np.random.default_rng(109)
    disagreements = 0
    conj_misses = 0
    ssnd_on_not_in_family = 0
    for i in range(250):
        tag = TAGS[i % 4]
        alg, _ = conjugated_canonical(tag, rng)
        a = classify(alg)
        b = classify_via_derivation(alg)
        if a.is_definite and b.is_definite and a.tag != b.tag:
            disagreements += 1
        if a.tag != tag:
            conj_misses += 1
    for _ in range(250):
        alg = random_symmetric_algebra(rng)
        a = classify(alg)
        b = classify_via_derivation(alg)
        if a.is_definite and b.is_definite and a.tag != b.tag:
            disagreements += 1
        if a.tag == "NotInFamily" and b.method != "no-ssnd-found":
            # a random tensor has no derivation at all; an SSND on one would
            # be a false hit of the search (SSND algebras outside the four
            # tables exist, spectrum families 2 and 5, but they have measure
            # zero and a random draw almost surely misses them)
            ssnd_on_not_in_family += 1
    ok = disagreements == 0 and conj_misses == 0 and ssnd_on_not_in_family == 0
    _report(
        9,
        ok,
        f"500-algebra corpus: {disagreements} definite disagreements, "
        f"{conj_misses} conjugate misses, "
        f"{ssnd_on_not_in_family} SSND hits on NotInFamily",
    )
