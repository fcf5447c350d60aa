"""Trajectory geometry, closed forms, cell invariants, and the Taylor integrator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqds3 import dynamics
from hqds3.algebra import from_named, idempotents, product, square_map
from hqds3.catalog import (
    canonical_algebra,
    canonical_system,
    conjugated_canonical,
    random_symmetric_algebra,
)
from hqds3.dynamics import (
    CSV_HEADER,
    CellId,
    DegenerateVelocity,
    PreconditionFailed,
    _cells,
    _taylor_coefficients,
    affine_flow,
    analytic_derivatives,
    cell_of,
    curvature_torsion,
    curve_geometry,
    integrate,
    integrate_batch,
    linear_first_integrals,
    ray_solution,
    steady_state_residual,
    trajectory_to_csv,
)
from hqds3 import cli
from hqds3.cli import canonical_cells
from hqds3.tolerances import INT_RTOL, TAU_GEO

FD_RTOL = 2e-6
GEOM_ATOL = 1e-12
DRIFT_TOL = 1e-9
RAY_RTOL = 1e-6
BATCH_RTOL = 1e-12
ENSEMBLE_STATE_RTOL = 1e-9  # relative to max(1, |x|)
ENSEMBLE_TIME_RTOL = 1e-12  # final time of rows stopped before t_end
CELL_RTOL = 4 * np.finfo(float).eps  # cell directions, batch against one point
# X_1, 2 X_2, 6 X_3 against analytic_derivatives, relative to the largest
# entry; measured at most 1.8e-15 on tables, conjugates and random tensors
COEF_RTOL = 1e-14
# step sizes against the step rule: roundoff of the rule, plus that of the
# sample times, whose differences are the steps
STEP_RTOL = 1e-12
STEP_ATOL = 4 * np.finfo(float).eps
# closed forms against the samples, each measured over the starts its test
# draws: 1/x = 1/x0 - t on e1 e1 = e1 up to the guard, relative to 1/x0
# (measured 2.1e-11); idempotent rays v/(1-t) to t = 0.9, relative to
# max(1, |x|) (4.5e-10); affine flows, relative to max(1, |x|) (3.5e-13)
POLE_RTOL = 1e-10
RAY_SAMPLE_RTOL = 1e-8
AFFINE_RTOL = 1e-11


@pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4"])
def test_analytic_derivatives_match_finite_differences(tag):
    rng = np.random.default_rng(3)
    alg = canonical_algebra(tag)
    eps = 1e-5
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=3)
        d1, d2, d3 = analytic_derivatives(alg, x)

        def vel(y):
            return square_map(alg, y)

        def acc(y):
            # chain rule along the flow: x'' = 2 x * x'
            return 2.0 * product(alg, y, vel(y))

        fd2 = (vel(x + eps * d1) - vel(x - eps * d1)) / (2 * eps)
        fd3 = (acc(x + eps * d1) - acc(x - eps * d1)) / (2 * eps)
        np.testing.assert_allclose(d2, fd2, rtol=FD_RTOL, atol=1e-8)
        np.testing.assert_allclose(d3, fd3, rtol=FD_RTOL, atol=1e-7)


def test_analytic_derivatives_frozen_a1():
    alg = canonical_algebra("A1")
    d1, d2, d3 = analytic_derivatives(alg, np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(d1, [0.0, 0.0, 1.0], atol=GEOM_ATOL)
    np.testing.assert_allclose(d2, [2.0, 0.0, 0.0], atol=GEOM_ATOL)
    np.testing.assert_allclose(d3, [0.0, 0.0, 4.0], atol=GEOM_ATOL)


def test_curvature_frozen_values():
    alg = canonical_algebra("A1")
    # x=(1,1,0): d1=(0,0,1), d2=(2,0,0), d3=(0,0,4)
    # kappa = |d1 x d2| / |d1|^3 = 2; det[d1,d2,d3] = 0 so torsion 0, defined
    kappa, tau = curvature_torsion(alg, np.array([1.0, 1.0, 0.0]))
    assert abs(kappa - 2.0) < GEOM_ATOL
    assert tau is not None
    assert abs(tau) < GEOM_ATOL

    # x=(0,1,1): d1=(2,0,0) but d2=0: zero curvature, torsion undefined
    kappa, tau = curvature_torsion(alg, np.array([0.0, 1.0, 1.0]))
    assert abs(kappa) < GEOM_ATOL
    assert tau is None


def test_degenerate_velocity_raises():
    alg = canonical_algebra("A1")
    with pytest.raises(DegenerateVelocity):
        curvature_torsion(alg, np.array([0.0, 1.0, 0.0]))


def test_torsion_zero_for_chained_squares():
    # e1^2 = e2 and e2^2 = e3 keeps every trajectory in a fixed plane family
    alg = from_named(b=1.0, f=1.0)
    kappa, tau = curvature_torsion(alg, np.array([1.0, 0.3, 0.0]))
    assert tau is not None
    assert abs(tau) < GEOM_ATOL


def test_steady_states_stay_put():
    alg = canonical_algebra("A1")
    traj = integrate(alg, np.array([0.0, 1.0, 0.0]), 1.0)
    assert traj.terminated == "t_end_reached"
    drift = np.max(np.abs(traj.states - traj.states[0]))
    assert drift < DRIFT_TOL
    assert steady_state_residual(alg, traj.final_state) < DRIFT_TOL


def test_idempotent_ray_matches_closed_form():
    alg = from_named(a=1.0)  # e1 is idempotent
    alpha0 = 1.2
    t_end = 0.75 / alpha0
    traj = integrate(alg, np.array([alpha0, 0.0, 0.0]), t_end)
    assert traj.terminated == "t_end_reached"
    expected = ray_solution(np.array([1.0, 0.0, 0.0]), traj.times, alpha0=alpha0)
    err = np.max(np.abs(traj.states - expected) / np.maximum(1.0, np.abs(expected)))
    assert err < RAY_RTOL


def test_affine_flow_frozen_a4():
    alg = canonical_algebra("A4")
    ts = np.linspace(0.0, 10.0, 51)
    x0 = np.array([1.0, 2.0, 0.0])
    states = affine_flow(alg, x0, ts)
    # squares land in the annihilator: x(t) = x0 + t (x0*x0), x0*x0 = (0,0,5)
    expected = np.stack(
        [np.full_like(ts, 1.0), np.full_like(ts, 2.0), 5.0 * ts], axis=1
    )
    np.testing.assert_allclose(states, expected, atol=GEOM_ATOL)
    traj = integrate(alg, x0, 10.0)
    err = np.max(np.abs(traj.states - affine_flow(alg, x0, traj.times)))
    assert err < DRIFT_TOL


def test_affine_flow_precondition():
    with pytest.raises(PreconditionFailed):
        affine_flow(canonical_algebra("A1"), np.ones(3), np.linspace(0, 1, 5))


def test_linear_first_integrals_frozen():
    ints = linear_first_integrals(canonical_algebra("A1"))
    assert ints.shape == (1, 3)
    np.testing.assert_allclose(np.abs(ints[0]), [0.0, 1.0, 0.0], atol=GEOM_ATOL)

    traj = integrate(canonical_system(2), np.array([1.0, 1.0, 0.0]), 2.0)
    assert traj.terminated == "t_end_reached"
    # x3' = x1^2 with x1 frozen at 1
    assert abs(traj.final_state[2] - 2.0) < DRIFT_TOL
    ints2 = linear_first_integrals(canonical_system(2))
    assert ints2.shape == (2, 3)
    drift = traj.states @ ints2.T
    assert np.max(np.abs(drift - drift[0])) < DRIFT_TOL


def test_first_class_torsion_small_along_trajectories():
    alg = canonical_algebra("A1")
    rng = np.random.default_rng(11)
    for _ in range(10):
        x0 = rng.uniform(-1.0, 1.0, size=3)
        traj = integrate(alg, x0, 1.0)
        _, _, tau = curve_geometry(alg, traj.states)
        defined = ~np.isnan(tau)
        if np.any(defined):
            assert np.max(np.abs(tau[defined])) < 1e-6


def _row_geometry(alg, x):
    """(speed, curvature or None, torsion or None) at x from the textbook
    formulas, one sample at a time, with the documented guards."""
    d1, d2, d3 = analytic_derivatives(alg, x)
    speed = np.linalg.norm(d1)
    if speed <= TAU_GEO:
        return speed, None, None
    ncr = np.linalg.norm(np.cross(d1, d2))
    kappa = ncr / speed ** 3
    if ncr <= TAU_GEO * max(1.0, alg.scale * np.linalg.norm(x) * speed ** 2):
        return speed, kappa, None
    return speed, kappa, np.linalg.det(np.array([d1, d2, d3])) / ncr ** 2


@pytest.mark.parametrize("case", ["A1", "A3-conjugate", "steady", "random"])
def test_trajectory_geometry_matches_per_row_formulas(case):
    rng = np.random.default_rng(7)
    if case == "A1":
        alg, x0 = canonical_algebra("A1"), np.array([0.3, 0.5, -0.2])
    elif case == "A3-conjugate":
        alg, _ = conjugated_canonical("A3", rng)
        x0 = rng.uniform(-1.0, 1.0, size=3)
    elif case == "steady":
        alg, x0 = canonical_algebra("A1"), np.array([0.0, 1.0, 0.0])
    else:
        alg = random_symmetric_algebra(rng)
        x0 = rng.uniform(-0.3, 0.3, size=3)
    traj = integrate(alg, x0, 1.0)
    speed, curvature, torsion = curve_geometry(alg, traj.states)
    rows = [_row_geometry(alg, x) for x in traj.states]
    kappa_def = np.array([k is not None for _, k, _ in rows])
    tau_def = np.array([t is not None for _, _, t in rows])

    np.testing.assert_allclose(speed, [s for s, _, _ in rows], rtol=BATCH_RTOL, atol=0)
    np.testing.assert_array_equal(~np.isnan(curvature), kappa_def)
    np.testing.assert_array_equal(~np.isnan(torsion), tau_def)
    np.testing.assert_allclose(
        curvature[kappa_def], [k for _, k, _ in rows if k is not None],
        rtol=BATCH_RTOL, atol=0,
    )
    np.testing.assert_allclose(
        torsion[tau_def], [t for _, _, t in rows if t is not None],
        rtol=BATCH_RTOL, atol=0,
    )
    # each case reaches the branch it stands for
    if case in ("A1", "random"):
        assert tau_def.all()
    elif case == "A3-conjugate":
        assert kappa_def.all() and not tau_def.any()
    else:
        assert not kappa_def.any()


# --- cells ---


def test_cell_labels_frozen():
    assert cell_of("A3", np.array([2.0, 0.0, 1.0])).label == "plane-x1ox3"
    assert cell_of("A3", np.array([0.0, 2.0, -1.0])).label == "plane-x2ox3"
    assert cell_of("A3", np.array([1.0, 1.0, 0.0])).label == "halfplane"
    assert cell_of("A1", np.array([0.0, 0.0, 3.0])).label == "axis-x3"
    assert cell_of("A1", np.array([0.0, 2.0, 0.0])).label == "axis-x2"
    assert cell_of("A1", np.array([1.0, 0.0, -2.0])).label == "halfplane-x1ox3"
    assert cell_of("A1", np.array([1.0, 0.5, 0.0])).label == "halfspace"
    assert cell_of("A2", np.array([1.0, 2.0, 0.0])).label == "plane-x1ox2"
    assert cell_of("A2", np.array([1.0, 2.0, 3.0])).label == "halfplane"
    assert cell_of("A4", np.array([0.0, 0.0, 1.0])).label == "axis-x3"
    assert cell_of("A4", np.array([1.0, 1.0, 9.0])).label == "halfplane"


def test_cell_ties_and_bad_tag():
    # lower-dimensional cells win ties; the origin falls to the first axis
    assert cell_of("A1", np.zeros(3)).label == "axis-x2"
    with pytest.raises(ValueError):
        cell_of("B9", np.ones(3))


def _reference_cell(tag, x, tol=TAU_GEO):
    """The partition cell of one point, decided one branch at a time."""
    x1, x2, x3 = (float(v) for v in x)

    def unit(u, v):
        n = float(np.linalg.norm(np.array([u, v])))
        return (u / n, v / n)

    if tag == "A1":
        if abs(x1) <= tol and abs(x3) <= tol:
            return CellId(tag, "axis-x2", (x2,))
        if abs(x1) <= tol and abs(x2) <= tol:
            return CellId(tag, "axis-x3", (x3,))
        if abs(x2) <= tol:
            return CellId(tag, "halfplane-x1ox3", (float(np.sign(x1)),))
        return CellId(tag, "halfspace", (float(np.sign(x2)),))
    if tag == "A2":
        if abs(x3) <= tol:
            return CellId(tag, "plane-x1ox2", (x1, x2))
        return CellId(tag, "halfplane", unit(x1, x3))
    if tag == "A3":
        if abs(x2) <= tol:
            return CellId(tag, "plane-x1ox3", (x1, x3))
        if abs(x1) <= tol:
            return CellId(tag, "plane-x2ox3", (x2, x3))
        return CellId(tag, "halfplane", unit(x1, x2))
    if abs(x1) <= tol and abs(x2) <= tol:
        return CellId(tag, "axis-x3", (x3,))
    return CellId(tag, "halfplane", unit(x1, x2))


@pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4"])
def test_cells_match_the_per_sample_reference(tag):
    # every coordinate at 0, at 0.5, 1 and 2 TAU_GEO either side of it, or
    # well away: the origin and points just inside, on and just outside the
    # tie band of every axis and coordinate plane, plus random points
    near = TAU_GEO * np.array([0.5, 1.0, 2.0])
    values = np.concatenate([[0.0], near, -near, [0.7, -1.3]])
    grid = np.stack(np.meshgrid(values, values, values), axis=-1).reshape(-1, 3)
    points = np.vstack([grid, np.random.default_rng(4).standard_normal((50, 3))])
    cells = _cells(tag, points)
    reference = [_reference_cell(tag, x) for x in points]
    assert [(c.tag, c.label) for c in cells] == [(c.tag, c.label) for c in reference]
    # the batch takes each direction's norm along an axis of the array, the
    # reference of one vector: the rounding may differ in the last bits
    np.testing.assert_allclose(
        np.concatenate([c.params for c in cells]),
        np.concatenate([c.params for c in reference]),
        rtol=CELL_RTOL, atol=0,
    )
    assert cells == [cell_of(tag, x) for x in points]
    # every cell of the class is reached
    assert len({c.label for c in cells}) == {"A1": 4, "A2": 2, "A3": 3, "A4": 2}[tag]


def test_cells_of_no_points_and_bad_tag():
    assert _cells("A2", np.zeros((0, 3))) == []
    with pytest.raises(ValueError):
        _cells("NotInFamily", np.zeros((0, 3)))


def test_cell_id_equality_and_compact():
    a = cell_of("A3", np.array([1.0, 1.0, 0.0]))
    b = cell_of("A3", np.array([2.0, 2.0, 5.0]))  # same direction parameters
    assert a.same_cell(b)
    c = cell_of("A3", np.array([1.0, -1.0, 0.0]))
    assert not a.same_cell(c)
    assert a.compact().startswith("halfplane:")
    assert cell_of("A1", np.array([1.0, 0.5, 0.0])).compact() == "halfspace:1"


def test_cells_constant_along_trajectories():
    rng = np.random.default_rng(13)
    for tag in ("A1", "A2", "A3", "A4"):
        alg, m = conjugated_canonical(tag, rng)
        x0 = rng.uniform(-0.3, 0.3, size=3)
        traj = integrate(alg, x0, 0.2)
        cells = canonical_cells(tag, np.linalg.inv(m), traj.states)
        assert len(cells) == traj.times.size
        assert all(cells[0].same_cell(c) for c in cells)


# --- integrator mechanics ---


def test_blowup_guard_triggers_near_pole():
    alg = from_named(a=1.0)
    traj = integrate(alg, np.array([1.5, 0.0, 0.0]), 2.0)
    assert traj.terminated == "blowup_guard"
    # solution pole sits at t = 1/1.5
    assert 0.6 < traj.times[-1] < 2.0 / 3.0


def test_times_monotone_and_end_reached():
    alg = canonical_algebra("A3")
    traj = integrate(alg, np.array([0.3, -0.2, 0.1]), 1.0)
    assert traj.terminated == "t_end_reached"
    assert traj.times[-1] == pytest.approx(1.0, abs=0)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.shape == (traj.times.size, 3)
    assert all(g.shape == traj.times.shape for g in curve_geometry(alg, traj.states))


def test_integrator_step_floor_terminates(monkeypatch):
    alg = from_named(a=1.0)
    monkeypatch.setattr(dynamics, "INT_H_MIN", 1e-2)
    monkeypatch.setattr(dynamics, "BLOWUP_GUARD", 1e12)
    traj = integrate(alg, np.array([1.5, 0.0, 0.0]), 2.0)
    assert traj.terminated in ("step_underflow", "blowup_guard")


def test_csv_header_and_values():
    alg = canonical_algebra("A2")
    traj = integrate(alg, np.array([1.0, 0.0, 1.0]), 1.0)
    text = trajectory_to_csv(alg, traj, canonical_cells("A2", np.eye(3), traj.states))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0] == "t,x1,x2,x3,speed,curvature,torsion,cell"
    assert len(lines) == traj.times.size + 1
    row = lines[1].split(",")
    assert len(row) == 8
    assert float(row[0]) == 0.0
    np.testing.assert_allclose([float(v) for v in row[1:4]], [1.0, 0.0, 1.0])
    assert row[7] == "halfplane:0.707107:0.707107"


def test_csv_empty_fields_when_undefined():
    alg = canonical_algebra("A1")
    traj = integrate(alg, np.array([0.0, 1.0, 1.0]), 0.01)
    text = trajectory_to_csv(alg, traj, None)
    row = text.strip().split("\n")[1].split(",")
    # d2 = 0 at the start: torsion has no value there, field stays empty
    assert row[6] == ""
    assert row[7] == ""  # no cells given


# --- ensemble ---


def _ensemble_case():
    """(algebra, starts, t_ends) per batch; the rows of a batch share its
    algebra.

    Rows come from tables, conjugates and random tensors at t_end 0.9, 1
    and 2, plus the start 1.5 e1 of e1 e1 = e1, whose solution has a pole
    at t = 2/3: it stops at the blow-up guard at the default BLOWUP_GUARD
    and at the step floor when the guard is out of reach.
    """
    rng = np.random.default_rng(17)
    algs = [canonical_algebra(tag) for tag in ("A1", "A2", "A3", "A4")]
    algs += [conjugated_canonical(tag, rng)[0] for tag in ("A1", "A2", "A3", "A4")]
    algs += [random_symmetric_algebra(rng) for _ in range(2)]
    cases = []
    for alg in algs:
        starts = rng.uniform(-0.6, 0.6, size=(6, 3))
        cases.append((alg, starts, np.array([0.9, 1.0, 2.0, 1.0, 0.9, 2.0])))
    pole = from_named(a=1.0)
    starts = np.vstack([[1.5, 0.0, 0.0], rng.uniform(-0.3, 0.3, size=(3, 3))])
    cases.append((pole, starts, np.array([2.0, 1.0, 0.9, 2.0])))
    return cases


def _assert_rows_agree(a, b):
    assert a.terminated == b.terminated
    if a.terminated == "t_end_reached":
        assert a.times.size == b.times.size
        np.testing.assert_allclose(a.times, b.times, rtol=ENSEMBLE_TIME_RTOL, atol=0)
        scale = np.maximum(1.0, np.abs(a.states))
        assert np.max(np.abs(a.states - b.states) / scale) <= ENSEMBLE_STATE_RTOL
    else:
        # near a pole roundoff may move a step or two: compare where it stopped
        assert abs(a.times[-1] - b.times[-1]) <= ENSEMBLE_TIME_RTOL * abs(b.times[-1])


@pytest.mark.parametrize(
    "config, pole_stop",
    # config: values of dynamics' module constants that the case overrides
    [(None, "blowup_guard"), ({"BLOWUP_GUARD": 1e300}, "step_underflow")],
)
def test_ensemble_rows_match_one_row_runs(monkeypatch, config, pole_stop):
    for name, value in (config or {}).items():
        monkeypatch.setattr(dynamics, name, value)
    stops = set()
    for alg, starts, t_ends in _ensemble_case():
        rows = integrate_batch(alg, starts, t_ends)
        assert len(rows) == len(starts)
        for x0, t_end, row in zip(starts, t_ends, rows):
            _assert_rows_agree(row, integrate(alg, x0, t_end))
            stops.add(row.terminated)
            if row.terminated == "t_end_reached":
                assert row.times[-1] == t_end
    assert stops == {"t_end_reached", pole_stop}


def test_ensemble_is_independent_of_row_order():
    rng = np.random.default_rng(5)
    for alg, starts, t_ends in _ensemble_case():
        rows = integrate_batch(alg, starts, t_ends)
        perm = rng.permutation(len(starts))
        permuted = integrate_batch(alg, starts[perm], t_ends[perm])
        for i, j in enumerate(perm):
            _assert_rows_agree(permuted[i], rows[j])


@pytest.mark.parametrize("case, cell_tag", [(0, "A1"), (-1, None)])
def test_ensemble_repeats_bit_for_bit(case, cell_tag):
    # the A1 table with its cells, and the batch with the pole row
    alg, starts, t_ends = _ensemble_case()[case]
    first = integrate_batch(alg, starts, t_ends)
    second = integrate_batch(alg, starts, t_ends)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(
            curve_geometry(alg, a.states)[2], curve_geometry(alg, b.states)[2]
        )
        assert (a.terminated, a.accepted_steps) == (b.terminated, b.accepted_steps)
        if cell_tag is not None:
            cells = [canonical_cells(cell_tag, np.eye(3), t.states) for t in (a, b)]
            assert cells[0] == cells[1]


def test_ensemble_of_no_rows_and_rows_that_never_start():
    alg = canonical_algebra("A2")
    assert integrate_batch(alg, np.zeros((0, 3)), 1.0) == []
    idle, moving = integrate_batch(alg, [[1.0, 0.0, 1.0], [0.1, 0.2, 0.3]], [0.0, 1.0])
    assert idle.times.tolist() == [0.0] and idle.terminated == "t_end_reached"
    assert idle.accepted_steps == 0
    assert moving.times[-1] == 1.0


def _step_rule(alg, xs):
    """The step the integrator takes from each row of xs before the cut to
    t_end: min over j = N-1, N of (INT_RTOL max(1, |x|) / |X_j|)^(1/j)."""
    coef = _taylor_coefficients(alg, xs)
    size = np.maximum(1.0, np.abs(xs).max(axis=1))
    tail = np.abs(coef[:, -2:]).max(axis=2)
    order = dynamics.TAYLOR_ORDER
    return ((INT_RTOL * size[:, None] / tail) ** (1.0 / np.array([order - 1, order]))).min(axis=1)


def test_step_counts_follow_the_step_rule():
    # the A4 flow is affine (A*A lies in the annihilator), so X_2 = 0 and the
    # series ends at X_1: one step reaches t = 1
    alg = canonical_algebra("A4")
    traj = integrate(alg, np.array([1.0, 2.0, 0.0]), 1.0)
    assert traj.accepted_steps == 1
    assert traj.times.tolist() == [0.0, 1.0]
    # a start whose coefficients are not finite takes no step
    stuck = integrate(alg, np.array([np.nan, 0.0, 0.0]), 1.0)
    assert stuck.terminated == "step_underflow"
    assert stuck.accepted_steps == 0 and stuck.times.tolist() == [0.0]
    # every step is the rule's at the sample it starts from; only the last
    # step of a row that reaches t_end is cut
    rng = np.random.default_rng(31)
    cases = [
        (canonical_algebra("A1"), np.array([1.0, 1.0, 1.0]), "blowup_guard"),
        (random_symmetric_algebra(rng), rng.uniform(-0.6, 0.6, size=3), "t_end_reached"),
    ]
    for alg, x0, stop in cases:
        traj = integrate(alg, x0, 2.0)
        assert traj.terminated == stop
        assert traj.accepted_steps == traj.times.size - 1 > 1
        steps, rule = np.diff(traj.times), _step_rule(alg, traj.states[:-1])
        cut = stop == "t_end_reached"
        np.testing.assert_allclose(
            steps[:len(steps) - cut], rule[:len(rule) - cut], rtol=STEP_RTOL, atol=STEP_ATOL
        )
        assert steps[-1] <= rule[-1] * (1.0 + STEP_RTOL)
    # on e1 e1 = e1 the coefficients of x e1 are x^(n+1) e1, so for x >= 1 the
    # rule is INT_RTOL^(1/(N-1)) / x: each step covers the same share, 0.30,
    # of the distance 1/x to the pole, and 51 steps take 1.5 e1 past 1e8
    pole = integrate(from_named(a=1.0), np.array([1.5, 0.0, 0.0]), 2.0)
    assert pole.terminated == "blowup_guard"
    assert pole.accepted_steps == pole.times.size - 1 == 51
    share = INT_RTOL ** (1.0 / (dynamics.TAYLOR_ORDER - 1))
    np.testing.assert_allclose(
        np.diff(pole.times), share / pole.states[:-1, 0], rtol=STEP_RTOL, atol=STEP_ATOL
    )


@pytest.mark.parametrize("kind", ["table", "conjugate", "random"])
def test_taylor_coefficients_match_analytic_derivatives(kind):
    # X_n is x^(n)/n! at the start: X_1, 2 X_2 and 6 X_3 are x', x'' and x'''
    rng = np.random.default_rng(19)
    if kind == "table":
        algs = [canonical_algebra(tag) for tag in ("A1", "A2", "A3", "A4")]
    elif kind == "conjugate":
        algs = [conjugated_canonical(tag, rng)[0] for tag in ("A1", "A2", "A3", "A4")]
    else:
        algs = [random_symmetric_algebra(rng) for _ in range(4)]
    for alg in algs:
        xs = rng.uniform(-1.0, 1.0, size=(5, 3))
        coef = _taylor_coefficients(alg, xs)
        assert coef.shape == (5, dynamics.TAYLOR_ORDER + 1, 3)
        ints = linear_first_integrals(alg)
        for x, cx in zip(xs, coef):
            derivs = analytic_derivatives(alg, x)
            got = np.array([cx[1], 2.0 * cx[2], 6.0 * cx[3]])
            np.testing.assert_allclose(got, derivs, rtol=0, atol=COEF_RTOL * np.abs(derivs).max())
            np.testing.assert_array_equal(cx[0], x)
            # past X_0 every coefficient lies in A*A, where the integrals vanish
            if ints.shape[0]:
                assert np.abs(cx[1:] @ ints.T).max() <= COEF_RTOL * np.abs(cx[1:]).max()


@pytest.mark.parametrize("x0", [1.5, 3.0, 50.0])
def test_samples_follow_the_scalar_pole_up_to_the_guard(x0):
    # on e1 e1 = e1 the solution x0/(1 - x0 t) blows up at t = 1/x0; its
    # reciprocal 1/x0 - t is affine, so compare that: near the pole a time
    # error dt moves x by the factor x dt, which says nothing of the method
    traj = integrate(from_named(a=1.0), np.array([x0, 0.0, 0.0]), 2.0)
    assert traj.terminated == "blowup_guard"
    assert 1e8 < traj.final_state[0] and traj.times[-1] < 1.0 / x0
    np.testing.assert_array_equal(traj.states[:, 1:], 0.0)
    recip = 1.0 / traj.states[:, 0]
    assert np.max(np.abs(recip - (1.0 / x0 - traj.times))) <= POLE_RTOL / x0


def test_samples_follow_the_idempotent_rays():
    # every idempotent v of 20 random tensors whose transverse eigenvalue is
    # at most 3 (the rays verify runs to t = 0.9), integrated along v/(1-t)
    rng = np.random.default_rng(23)
    rays = 0
    for _ in range(20):
        alg = random_symmetric_algebra(rng)
        for v in idempotents(alg):
            if cli._transverse_eigenvalue(alg, v) > 3.0:
                continue
            traj = integrate(alg, v, 0.9)
            assert traj.terminated == "t_end_reached"
            expect = ray_solution(v, traj.times)
            err = np.abs(traj.states - expect) / np.maximum(1.0, np.abs(expect))
            assert err.max() <= RAY_SAMPLE_RTOL
            rays += 1
    assert rays == 47


@pytest.mark.parametrize("tag", ["A2", "A3", "A4"])
def test_samples_follow_the_affine_closed_form(tag):
    # the table and five conjugates, five Gaussian starts each, to t = 2
    rng = np.random.default_rng(29)
    algs = [canonical_algebra(tag)] + [conjugated_canonical(tag, rng)[0] for _ in range(5)]
    for alg in algs:
        starts = rng.standard_normal((5, 3))
        for x0, traj in zip(starts, integrate_batch(alg, starts, 2.0)):
            assert traj.times.tolist() == [0.0, 2.0]
            expect = affine_flow(alg, x0, traj.times)
            scale = max(1.0, float(np.abs(expect).max()))
            assert np.max(np.abs(traj.states - expect)) <= AFFINE_RTOL * scale


@settings(deadline=None, max_examples=20)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_affine_property_for_nilpotent_table(x, y, z):
    alg = canonical_system(2)
    x0 = np.array([x, y, z])
    ts = np.linspace(0.0, 3.0, 7)
    states = affine_flow(alg, x0, ts)
    # velocity is constant along the flow: x(t) = x0 + t * square(x0)
    sq = square_map(alg, x0)
    np.testing.assert_allclose(states, x0 + ts[:, None] * sq, atol=1e-12)
