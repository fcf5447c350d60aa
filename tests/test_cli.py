"""End-to-end command-line behavior, run in-process through main()."""
import dataclasses
import json
import sys
import zlib

import numpy as np
import pytest

from hqds3 import cli
from hqds3.algebra import Algebra, from_named, from_products, idempotents
from hqds3.catalog import (
    canonical_algebra,
    conjugated_canonical,
    random_symmetric_algebra,
)
from hqds3.derivations import analyze_spectrum
from hqds3.dynamics import ray_solution
from hqds3.linalg import nullspace

FINAL_TOL = 1e-9


def write_algebra(tmp_path, alg, name="alg.json", label=None):
    doc = {"structure_constants": alg.c.tolist()}
    if label is not None:
        doc["label"] = label
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# --- classify ---


@pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4"])
def test_classify_canonical_tables(tmp_path, capsys, tag):
    path = write_algebra(tmp_path, canonical_algebra(tag), label=f"table {tag}")
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    report = json.loads(out)
    assert report["label"] == f"table {tag}"
    assert report["classification"]["tag"] == tag
    assert report["classification"]["residual"] <= 1e-8
    assert np.asarray(report["classification"]["basis_change"]).shape == (3, 3)
    assert report["via_derivation"]["tag"] == tag
    assert report["warnings"] == []


def test_classify_definite_quotient_form_table(tmp_path, capsys):
    # two unit squares plus a strong cross term: lands in the rotation class
    path = write_algebra(tmp_path, from_named(c=1.0, f=5.0, n=1.0))
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["classification"]["tag"] == "A4"


def test_classify_idempotent_ray_algebra(tmp_path, capsys):
    path = write_algebra(tmp_path, from_named(a=1.0))
    code, out, _ = run(capsys, ["classify", path])
    assert code == 2
    report = json.loads(out)
    assert report["classification"]["tag"] == "NotInFamily"
    assert "basis_change" not in report["classification"]
    assert report["warnings"] == []
    assert report["derivation_space"]["ssnd"]["present"] is False


def test_classify_warns_on_a_not_in_family_input_with_an_ssnd(tmp_path, capsys):
    # e1 e1 = e2, e2 e2 = e3 has the SSND diag(1, 2, 4), of spectrum family
    # 2, and lies in none of the four classes: both routes say NotInFamily
    path = write_algebra(tmp_path, from_named(b=1.0, f=1.0))
    code, out, _ = run(capsys, ["classify", path])
    assert code == 2
    report = json.loads(out)
    assert report["classification"]["tag"] == "NotInFamily"
    assert report["via_derivation"] == {"tag": "NotInFamily", "method": "derivation-reduction"}
    assert report["derivation_space"]["ssnd"]["present"] is True
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith(
        "invertible real-diagonalizable derivation found on a NotInFamily input"
    )


def test_classify_exits_3_when_the_routes_name_different_classes(tmp_path, capsys, monkeypatch):
    derivation_route = cli.classify_via_derivation
    monkeypatch.setattr(
        cli, "classify_via_derivation", lambda alg: dataclasses.replace(derivation_route(alg), tag="A3")
    )
    path = write_algebra(tmp_path, canonical_algebra("A2"))
    code, out, _ = run(capsys, ["classify", path])
    assert code == 3
    report = json.loads(out)
    assert report["classification"]["tag"] == "A2"
    assert report["via_derivation"]["tag"] == "A3"
    assert report["warnings"] == [
        "cross-path disagreement: invariant route says A2, derivation route says A3"
    ]


def test_classify_rejects_asymmetric_input(tmp_path, capsys):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # mirror entry [2][1][...] left at zero
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"structure_constants": c.tolist()}))
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert "not symmetrized automatically" in err


def test_classify_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert "error:" in err


def test_classify_rejects_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["classify", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in err


def test_classify_rejects_wrong_shape(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"structure_constants": [[1.0, 2.0], [3.0, 4.0]]}))
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert "error:" in err


def _zeros_with_c332(entry):
    c = np.zeros((3, 3, 3)).tolist()
    c[2][2][1] = entry
    return c


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"structure_constants": _zeros_with_c332("1")},
         'error: structure constant c[3][3][2] must be a JSON number, got "1"'),
        ({"structure_constants": _zeros_with_c332(True)},
         "error: structure constant c[3][3][2] must be a JSON number, got true"),
        ({"foo": 1}, "error: document must be an object with 'structure_constants'"),
        ({"structure_constants": [[1, 2], [3]]}, "error: structure_constants must be numeric: "),
    ],
    ids=["string", "boolean", "no-constants", "ragged"],
)
def test_classify_rejects_a_constant_that_is_not_a_number(tmp_path, capsys, doc, message):
    # numpy reads "1" and true as 1.0, which made the first two files the A2
    # table; the last two hold no array of numbers at all: the key is
    # missing, or the nesting is ragged
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(message)


def test_classify_rejects_an_integer_beyond_float_range(tmp_path, capsys):
    # JSON reads 1e400 as inf, which Algebra refuses; the integer 10**400
    # overflowed numpy's conversion to float and raised a traceback
    c = np.zeros((3, 3, 3)).tolist()
    c[2][2][1] = "BIG"
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"structure_constants": c}).replace('"BIG"', "1" + "0" * 400))
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: structure constants must be finite")
    assert err.count("\n") == 1


# --- simulate ---


def test_simulate_affine_table_final_value(tmp_path, capsys):
    path = write_algebra(tmp_path, from_products({(1, 1): (0.0, 0.0, 1.0)}))
    code, out, err = run(
        capsys, ["simulate", path, "--x0", "1,1,0", "--t-end", "2"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,speed,curvature,torsion,cell"
    last = lines[-1].split(",")
    assert abs(float(last[0]) - 2.0) < 1e-12
    assert abs(float(last[3]) - 2.0) < FINAL_TOL
    assert "terminated: t_end_reached" in err


def test_simulate_writes_csv_file(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A3"))
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        ["simulate", path, "--x0", "0.3,-0.2,0.1", "--t-end", "1", "--out", str(out_path)],
    )
    assert code == 0
    assert "terminated: t_end_reached" in out
    text = out_path.read_text()
    assert text.startswith("t,x1,x2,x3,speed,curvature,torsion,cell\n")
    # canonical input: cells are stamped in the same frame
    assert text.strip().split("\n")[1].split(",")[7] != ""


def test_simulate_into_a_missing_directory_is_an_error(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A3"))
    out_path = tmp_path / "missing" / "traj.csv"
    code, out, err = run(
        capsys,
        ["simulate", path, "--x0", "0.3,-0.2,0.1", "--t-end", "1", "--out", str(out_path)],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(out_path) in err
    assert not out_path.parent.exists()


def test_simulate_blowup_guard(tmp_path, capsys):
    path = write_algebra(tmp_path, from_named(a=1.0))
    code, out, err = run(
        capsys, ["simulate", path, "--x0", "1,0,0", "--t-end", "2"]
    )
    assert code == 0
    assert "terminated: blowup_guard" in err
    last_t = float(out.strip().split("\n")[-1].split(",")[0])
    assert 0.99 < last_t < 1.0


def test_simulate_from_origin_stays_in_one_cell(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A1"))
    code, out, err = run(capsys, ["simulate", path, "--x0", "0,0,0", "--t-end", "1"])
    assert code == 0
    assert "terminated: t_end_reached" in err
    cells = {line.split(",")[7] for line in out.strip().split("\n")[1:]}
    assert len(cells) == 1


def test_simulate_rejects_bad_x0(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A1"))
    code, _, err = run(capsys, ["simulate", path, "--x0", "1,2", "--t-end", "1"])
    assert code == 1
    assert "three comma-separated numbers" in err


def test_simulate_rejects_nonpositive_t_end(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A1"))
    code, _, err = run(capsys, ["simulate", path, "--x0", "1,0,0", "--t-end", "-1"])
    assert code == 1
    assert "--t-end must be positive" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--x0", "0.1,0.2,0.3", "--t-end", "0"],
        ["--x0", "0.1,0.2,0.3", "--t-end", "1e400"],
        ["--x0", "0.1,0.2,inf", "--t-end", "1"],
        ["--x0", "0.1,0.2,0.3", "--t-end", "nan"],
        ["--x0", "0.1,0.2,0.3", "--t-end", "inf"],
        ["--x0", "nan,0.2,0.3", "--t-end", "1"],
        ["--x0", "0.1,-inf,0.3", "--t-end", "1"],
    ],
)
def test_simulate_rejects_non_finite_or_non_positive_numbers(tmp_path, capsys, flags):
    # each of these used to spin to max_steps, run backwards or exit 0
    path = write_algebra(tmp_path, canonical_algebra("A2"))
    code, out, err = run(capsys, ["simulate", path, *flags])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_simulate_reports_step_counts_before_the_drift(tmp_path, capsys):
    # the A4 flow is affine, so its Taylor series ends at the linear term and
    # one step reaches t = 1
    path = write_algebra(tmp_path, canonical_algebra("A4"))
    code, out, err = run(capsys, ["simulate", path, "--x0", "1,2,0", "--t-end", "1"])
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 2
    assert "(2 samples); steps: 1; first integrals: 2" in err
    assert err.strip().endswith("max drift 0.000e+00")


@pytest.mark.parametrize("value", ["1e-3", "0", "nan", "-0.1"])
def test_simulate_refuses_h0(tmp_path, capsys, value):
    # a Taylor step needs no first guess, so simulate has no --h0 to take
    path = write_algebra(tmp_path, canonical_algebra("A2"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", path, "--x0", "0.1,0.2,0.3", "--t-end", "1", "--h0", value])
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --h0" in err


def test_simulate_takes_a_negative_start_after_a_space(tmp_path, capsys):
    # argparse alone reads "-0.5,1,0" as an option, not as the value of --x0
    path = write_algebra(tmp_path, canonical_algebra("A4"))
    spaced = run(capsys, ["simulate", path, "--x0", "-0.5,1,0", "--t-end", "1"])
    assert spaced[0] == 0
    assert spaced[1].split("\n")[1].startswith("0,-0.5,1,0,")
    assert spaced == run(capsys, ["simulate", path, "--x0=-0.5,1,0", "--t-end", "1"])


def test_simulate_rejects_non_numeric_t_end(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A1"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", path, "--x0", "1,0,0", "--t-end", "soon"])
    assert exc.value.code == 1


# --- verify ---


def test_verify_canonical_all_pass(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A3"), label="third table")
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "class: A3  label: third table"
    statuses = {line.split()[0] for line in lines[1:]}
    assert "FAIL" not in statuses
    assert "PASS" in statuses
    assert len(lines) - 1 == len(cli._VERIFY_CHECKS)


def test_verify_conjugated_table_passes(tmp_path, capsys):
    rng = np.random.default_rng(21)
    alg, _ = conjugated_canonical("A2", rng)
    path = write_algebra(tmp_path, alg)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "class: A2"
    assert all(not line.startswith("FAIL") for line in lines[1:])


def test_verify_corrupted_table_skips_class_checks(tmp_path, capsys):
    corrupted = from_named(c=1.0, k=1.0)  # nilpotent table plus a cross product
    path = write_algebra(tmp_path, corrupted)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "class: NotInFamily"
    statuses = [line.split()[0] for line in lines[1:]]
    assert "FAIL" not in statuses
    assert "SKIP" in statuses


def test_verify_zero_tensor(tmp_path, capsys):
    # every point is steady and the flow is x(t) = x0: the steady-state
    # check takes its whole-space branch, and the class checks skip
    path = write_algebra(tmp_path, Algebra(np.zeros((3, 3, 3))))
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert out.splitlines() == [
        "class: NullAlgebra",
        "PASS affine-form: affine closed form matched, max deviation 0.00e+00",
        "SKIP cell-invariance: no cell partition without a canonical class",
        "SKIP curvature: straight-line claim applies to classes A2-A4",
        "PASS first-integral-drift: 3 integrals, max relative drift 0.00e+00",
        "SKIP ray-solutions: solvable: no nonzero idempotent exists",
        "PASS steady-states: cone samples steady (residual 0.00e+00); cone is everything",
        "SKIP torsion: torsion-free claim needs a classified algebra",
    ]


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["verify", str(tmp_path / "ghost.json")])
    assert code == 1
    assert "error:" in err


def test_verify_exit_code_on_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        cli._VERIFY_CHECKS, "forced", lambda alg, rng, res: ("FAIL", "forced")
    )
    path = write_algebra(tmp_path, canonical_algebra("A2"))
    code, out, _ = run(capsys, ["verify", path])
    assert code == 4
    assert "FAIL forced: forced" in out


def test_verify_straight_line_class_torsion_undefined(tmp_path, capsys):
    # on A2-A4 x'' is exactly 0; its rounding error must not read as torsion
    alg, _ = conjugated_canonical("A4", np.random.default_rng(13))
    path = write_algebra(tmp_path, alg)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert "PASS torsion" in out


@pytest.mark.parametrize("command", ["classify", "verify", "simulate"])
@pytest.mark.parametrize("kind", ["A1", "random", "common-linear-factor"])
def test_cli_command_computes_cone_at_most_once(tmp_path, capsys, monkeypatch, command, kind):
    # counts runs of the cone's body, not lookups: memo hits pass through
    # the module attributes too.  On x*x = (x1 + x2) diag(1, 2, 3) x the
    # idempotents of the ray check read the cone as well as the fingerprint
    rng = np.random.default_rng(5)
    if kind == "A1":
        alg, _ = conjugated_canonical("A1", rng)
    elif kind == "random":
        alg = random_symmetric_algebra(rng)
    else:
        alg = from_products({(1, 1): (1, 0, 0), (1, 2): (0.5, 1, 0), (2, 2): (0, 2, 0),
                             (1, 3): (0, 0, 1.5), (2, 3): (0, 0, 1.5)})
    calls = []
    cone = sys.modules["hqds3.algebra"].nilpotent_cone
    body = cone.__wrapped__
    monkeypatch.setattr(cone, "__wrapped__", lambda a: calls.append(1) or body(a))
    argv = [command, write_algebra(tmp_path, alg)]
    if command == "simulate":
        argv += ["--x0", "0.1,0.2,0.3", "--t-end", "0.1"]
    code, _, _ = run(capsys, argv)
    assert code in (0, 2)
    assert len(calls) <= 1


@pytest.mark.parametrize("kind", ["A1", "A4", "random", "zero"])
def test_classify_searches_for_an_ssnd_once(tmp_path, capsys, monkeypatch, kind):
    # the report shows the SSND the derivation route found in its one
    # search; the zero algebra needs no search, and its SSND is the identity
    rng = np.random.default_rng(5)
    if kind == "random":
        alg = random_symmetric_algebra(rng)
    elif kind == "zero":
        alg = Algebra(np.zeros((3, 3, 3)))
    else:
        alg, _ = conjugated_canonical(kind, rng)
    calls = []
    original = sys.modules["hqds3.derivations"].find_real_ssnd

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hqds3") and getattr(module, "find_real_ssnd", None) is original:
            monkeypatch.setattr(module, "find_real_ssnd", counted)
    code, out, _ = run(capsys, ["classify", write_algebra(tmp_path, alg)])
    assert code in (0, 2)
    assert len(calls) == (kind != "zero")
    ssnd = json.loads(out)["derivation_space"]["ssnd"]
    found = original(alg)
    d = np.eye(3) if kind == "zero" else None if found is None else found.matrix
    assert ssnd["present"] == (d is not None)
    if d is not None:
        assert ssnd["matrix"] == d.tolist()
        assert ssnd["spectrum"] == sorted(float(v.real) for v in analyze_spectrum(d).eigenvalues)


def test_classify_analyses_no_spectrum_beyond_the_derivation_route(tmp_path, capsys, monkeypatch):
    # the report's SSND spectrum is read off the search's report, so the
    # command analyses exactly the spectra classify_via_derivation does
    alg, _ = conjugated_canonical("A4", np.random.default_rng(0))
    calls = []
    original = sys.modules["hqds3.derivations"].analyze_spectrum

    def counted(m):
        calls.append(1)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("hqds3") and getattr(module, "analyze_spectrum", None) is original:
            monkeypatch.setattr(module, "analyze_spectrum", counted)
    assert cli.classify_via_derivation(alg).tag == "A4"
    route = len(calls)
    calls.clear()
    code, _, _ = run(capsys, ["classify", write_algebra(tmp_path, alg)])
    assert code == 0
    assert len(calls) == route


def test_verify_first_integral_drift_is_relative(tmp_path, capsys):
    # the trajectories stop at the blow-up guard with absolute drift ~4e-4,
    # all of it roundoff: about 4e-12 of the state's size
    alg, _ = conjugated_canonical("A1", np.random.default_rng(26))
    path = write_algebra(tmp_path, alg)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert "PASS first-integral-drift" in out


@pytest.mark.parametrize(
    "kind, limit", [("A1", 10), ("A2", 20), ("A3", 20), ("A4", 20), ("random", 3)]
)
def test_verify_integrates_each_start_once(tmp_path, capsys, monkeypatch, kind, limit):
    # one batched integration per verify, no one-row integration, and the
    # batch holds exactly the distinct starts the checks asked for
    rng = np.random.default_rng(0)  # the random tensor has 7 idempotents
    if kind == "random":
        alg = random_symmetric_algebra(rng)
    else:
        alg, _ = conjugated_canonical(kind, rng)
    dynamics = sys.modules["hqds3.dynamics"]
    requested, batches, singles = [], [], []
    original_batch, original_single = dynamics.integrate_batch, dynamics.integrate

    def counted_batch(alg, x0s, t_ends, *args, **kwargs):
        x0s = np.asarray(x0s, dtype=float)
        t_ends = np.broadcast_to(t_ends, len(x0s))
        batches.append([(x0.tobytes(), float(t)) for x0, t in zip(x0s, t_ends)])
        return original_batch(alg, x0s, t_ends, *args, **kwargs)

    def counted_single(*args, **kwargs):
        singles.append(1)
        return original_single(*args, **kwargs)

    def recorded(check):
        def run_check(*args):
            plan = check(*args)
            if isinstance(plan, cli._Integrate):
                requested.extend((x0.tobytes(), float(t)) for x0, t in plan.starts)
            return plan
        return run_check

    for name, check in list(cli._VERIFY_CHECKS.items()):
        monkeypatch.setitem(cli._VERIFY_CHECKS, name, recorded(check))
    for name, module in list(sys.modules.items()):
        if not name.startswith("hqds3"):
            continue
        if getattr(module, "integrate_batch", None) is original_batch:
            monkeypatch.setattr(module, "integrate_batch", counted_batch)
        if getattr(module, "integrate", None) is original_single:
            monkeypatch.setattr(module, "integrate", counted_single)
    code, _, _ = run(capsys, ["verify", write_algebra(tmp_path, alg)])
    assert code in (0, 4)
    assert len(batches) == 1
    assert singles == []
    assert sorted(batches[0]) == sorted(set(requested))
    assert 0 < len(batches[0]) <= limit
    # at seed 0 two of the five Gaussian starts of the curvature check have
    # norm below 1, so they equal unit-ball starts: A2-A4 integrate 18 rows
    assert len(batches[0]) == {"A1": 10, "random": 3}.get(kind, 18)


@pytest.mark.parametrize("kind, expected", [("A2", 2), ("random", 0)])
def test_verify_computes_curve_geometry_only_where_read(
    tmp_path, capsys, monkeypatch, kind, expected
):
    # the integrator computes no geometry; the curvature and torsion checks
    # each make one call on their own trajectories' states, and on a random
    # tensor (NotInFamily) both skip, so nothing computes geometry at all
    if kind == "random":
        alg = random_symmetric_algebra(np.random.default_rng(0))
    else:
        alg = canonical_algebra(kind)
    original = sys.modules["hqds3.dynamics"].curve_geometry
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hqds3") and getattr(module, "curve_geometry", None) is original:
            monkeypatch.setattr(module, "curve_geometry", counted)
    code, out, _ = run(capsys, ["verify", write_algebra(tmp_path, alg)])
    assert code == 0
    statuses = dict(line.split()[1::-1] for line in out.strip().split("\n")[1:])
    want = "PASS" if expected else "SKIP"
    assert statuses["curvature:"] == statuses["torsion:"] == want
    assert len(calls) == expected


@pytest.mark.parametrize(
    "kind, claimed, check",
    [
        # A1 trajectories are curved and cross the A2 half-planes
        ("A1", "A2", "curvature"),
        ("A1", "A2", "cell-invariance"),
        # A1 trajectories are torsion-free; a random tensor's are not
        ("random", "A1", "torsion"),
    ],
)
def test_verify_class_checks_fail_on_a_misreported_class(
    tmp_path, capsys, monkeypatch, kind, claimed, check
):
    # the planted fault: classify reports the wrong canonical class, with the
    # input's own certificate, or the identity where it has none.  At seed 0
    # the checks judge few samples, since each Taylor step is long: 18
    # curvature samples, 13 cell samples and 139 torsion samples
    rng = np.random.default_rng(5)
    alg = conjugated_canonical("A1", rng)[0] if kind == "A1" else random_symmetric_algebra(rng)
    classify = cli.classify

    def misreported(alg):
        res = classify(alg)
        certificate = np.eye(3) if res.certificate is None else res.certificate
        return dataclasses.replace(res, tag=claimed, certificate=certificate)

    monkeypatch.setattr(cli, "classify", misreported)
    code, out, _ = run(capsys, ["verify", write_algebra(tmp_path, alg)])
    assert code == 4
    assert out.splitlines()[0] == f"class: {claimed}"
    line = next(ln for ln in out.splitlines() if ln.split()[1] == f"{check}:")
    assert line.startswith(f"FAIL {check}:")
    if check != "cell-invariance":
        # a clear miss: the curvature or torsion is of order one, against
        # bounds of 1e-9 and 1e-6
        assert float(line.split()[3]) > 0.1


def _cli_dynamics_random_file(seed, group):
    """The random tensor of one group of the cli-dynamics workload's files."""
    rng = np.random.default_rng([seed, zlib.crc32(b"cli-dynamics")])
    for _ in range(group + 1):
        for tag in ("A1", "A2", "A3", "A4"):
            conjugated_canonical(tag, rng)
            rng.standard_normal(3)
        alg = random_symmetric_algebra(rng)
        rng.standard_normal(3)
    return alg


@pytest.mark.parametrize("fault", [None, "speed", "start"])
@pytest.mark.parametrize(
    "kind, mu, t_star",
    [
        # the random file of group 4 of the cli-dynamics workload at seed 2:
        # its idempotent with |v| = 16.6 has mu = 21.8, so at t = 0.9 roundoff
        # was amplified about 1e21-fold and the check failed on any integrator
        ("seed2-random", "21.8", "0.27"),
        # e1 e1 = e1: the idempotent e1 has mu = 0, so t* is the old 0.9
        ("e1", "0.0", "0.90"),
    ],
)
def test_verify_ray_check_ends_at_its_mu_aware_horizon(
    tmp_path, capsys, monkeypatch, kind, mu, t_star, fault
):
    alg = _cli_dynamics_random_file(2, 4) if kind == "seed2-random" else from_named(a=1.0)
    if fault == "speed":
        # the closed form claims a ray 1% faster than the true one
        monkeypatch.setattr(cli, "ray_solution", lambda v, ts: ray_solution(v, 1.01 * ts))
    elif fault == "start":
        # each ray is integrated from 1e-3 |v| off its idempotent, at right angles
        rays = {v.tobytes() for v in idempotents(alg)}
        original = cli.integrate_batch

        def off_start(alg, x0s, t_ends, *args, **kwargs):
            x0s = np.array(x0s, dtype=float)
            for x0 in x0s:
                if x0.tobytes() in rays:
                    x0 += 1e-3 * np.linalg.norm(x0) * nullspace(x0[None, :])[0]
            return original(alg, x0s, t_ends, *args, **kwargs)

        monkeypatch.setattr(cli, "integrate_batch", off_start)
    code, out, _ = run(capsys, ["verify", write_algebra(tmp_path, alg)])
    line = next(ln for ln in out.splitlines() if "ray-solutions" in ln)
    assert f"mu = {mu}, shortest horizon t* = {t_star}" in line
    if fault is None:
        assert code == 0
        assert line.startswith("PASS ray-solutions:")
    else:
        assert code == 4
        assert line.startswith("FAIL ray-solutions: ray solution mismatch")
        # a clear miss, not a near one: 100 times the 1e-6 bound or more
        assert float(line.split("mismatch ")[1].split(";")[0]) > 1e-4


def _rng11_tensor_17():
    # an origin-only cone and one idempotent, (-2.793, -4.648, 3.908), that
    # no lattice start reached
    rng = np.random.default_rng(11)
    for _ in range(18):
        alg = random_symmetric_algebra(rng)
    return alg


@pytest.mark.parametrize(
    "kind, reason",
    [
        ("A1", "solvable: no nonzero idempotent exists"),
        ("plane", "non-isolated idempotents: Macaulay nullity 16, not 8"),
        ("two-lines", "non-isolated idempotents: Macaulay nullity 11, not 8"),
    ],
)
def test_verify_ray_skip_names_its_reason(tmp_path, capsys, kind, reason):
    if kind == "A1":
        alg, _ = conjugated_canonical("A1", np.random.default_rng(3))
    elif kind == "plane":  # x*x = x1 x: the plane x1 = 1 is idempotent
        alg = from_products({(1, 1): (1, 0, 0), (1, 2): (0, 0.5, 0), (1, 3): (0, 0, 0.5)})
    else:  # the lines (0, 1, s) and (1, 1, s)
        alg = from_products({(1, 1): (1, 0, 0), (2, 2): (0, 1, 0), (2, 3): (0, 0, 0.5)})
    code, out, _ = run(capsys, ["verify", write_algebra(tmp_path, alg)])
    line = next(ln for ln in out.splitlines() if "ray-solutions" in ln)
    assert code == 0
    assert line.startswith(f"SKIP ray-solutions: {reason}")


@pytest.mark.parametrize("kind", ["far", "random"])
def test_verify_ray_check_passes_on_far_idempotents(tmp_path, capsys, kind):
    # e1 e1 = 0.01 e1, e2 e2 = e3 has the one idempotent 100 e1, far outside
    # the [-2, 2]^3 lattice the search once started from; the random tensor
    # is tensor 17 of default_rng(11)
    alg = from_named(a=0.01, f=1.0) if kind == "far" else _rng11_tensor_17()
    code, out, _ = run(capsys, ["verify", write_algebra(tmp_path, alg)])
    line = next(ln for ln in out.splitlines() if "ray-solutions" in ln)
    assert code == 0
    assert line.startswith("PASS ray-solutions: 1 idempotent rays matched")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s, passes", [(5e-309, False), (1e-320, False), (6e-309, True)])
def test_verify_ray_check_at_the_edge_of_the_float_range(tmp_path, capsys, s, passes):
    # e1 e1 = s e1 has the one idempotent e1 / s, which is beyond the float
    # range below s = 1 / DBL_MAX, about 5.6e-309: the check skips it by
    # name, where it once took the eigenvalues of inf and crashed
    code, out, err = run(capsys, ["verify", write_algebra(tmp_path, from_named(a=s))])
    line = next(ln for ln in out.splitlines() if "ray-solutions" in ln)
    assert (code, err) == (0, "")
    if passes:
        assert line.startswith("PASS ray-solutions: 1 idempotent rays matched")
    else:
        assert line == "SKIP ray-solutions: idempotent (inf, 0.0, 0.0) lies beyond the float range"


def test_verify_skips_the_ray_check_without_a_real_idempotent(tmp_path, capsys):
    # e1 e1 = -e3, e1 e3 = 2 e1 is not solvable, has no real idempotent, and
    # its cone is the plane x1 = 0
    code, out, _ = run(capsys, ["verify", write_algebra(tmp_path, from_named(c=-1.0, p=2.0))])
    assert code == 0
    assert out.splitlines() == [
        "class: NotInFamily",
        "SKIP affine-form: A*A not inside the annihilator; solutions are not affine",
        "SKIP cell-invariance: no cell partition without a canonical class",
        "SKIP curvature: straight-line claim applies to classes A2-A4",
        "PASS first-integral-drift: 1 integrals, max relative drift 0.00e+00",
        "SKIP ray-solutions: no real idempotent; the cone is plane",
        "PASS steady-states: cone residual 0.00e+00; off-cone points clearly non-steady",
        "SKIP torsion: torsion-free claim needs a classified algebra",
    ]


def test_verify_fails_an_origin_only_cone_without_idempotents(tmp_path, capsys, monkeypatch):
    # by Kaplan-Yorke a real commutative algebra has a nonzero idempotent or
    # a nonzero square-zero vector, so a solver that found neither is wrong
    monkeypatch.setattr(cli, "idempotents", lambda alg: [])
    code, out, _ = run(capsys, ["verify", write_algebra(tmp_path, _rng11_tensor_17())])
    line = next(ln for ln in out.splitlines() if "ray-solutions" in ln)
    assert code == 4
    assert line.startswith("FAIL ray-solutions: no real idempotent and an origin-only cone")


# --- spectrum ---


def test_spectrum_reflection_pair(capsys):
    code, out, _ = run(capsys, ["spectrum", "--lambda", "-1", "--mu", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["mask"]["allowed"] == ["c", "s"]
    assert report["mask"]["forbidden"] == ["b", "d", "f", "g", "h", "n", "q"]
    assert len(report["mask"]["always_zero"]) == 9
    assert report["representative"]["family"] == 1
    assert report["representative"]["triple"] == [1.0, -1.0, 2.0]


def test_spectrum_double_eigenvalue(capsys):
    code, out, _ = run(capsys, ["spectrum", "--lambda", "1", "--mu", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["mask"]["allowed"] == ["c", "f", "n"]
    assert report["representative"]["family"] == 3


def test_spectrum_generic_point(capsys):
    code, out, _ = run(capsys, ["spectrum", "--lambda", "7", "--mu", "11"])
    assert code == 0
    report = json.loads(out)
    assert report["mask"]["allowed"] == []
    assert report["arrangement_lines"] == []
    assert report["representative"]["family"] == "off-arrangement"


def test_spectrum_takes_negative_values_in_any_float_form(capsys):
    # argparse alone reads "-2.5e-1" as an option, not as the value of --mu
    code, out, _ = run(capsys, ["spectrum", "--lambda", "-1", "--mu", "-2.5e-1"])
    assert code == 0
    report = json.loads(out)
    assert (report["lambda"], report["mu"]) == (-1.0, -0.25)
    assert run(capsys, ["spectrum", "--lambda", "-.5e1", "--mu", "-2.5E-1"])[0] == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--lambda", "nan", "--mu", "2"], "--lambda"),
        (["--lambda", "inf", "--mu", "2"], "--lambda"),
        (["--lambda", "2", "--mu=-inf"], "--mu"),
    ],
)
def test_spectrum_refuses_non_finite_input(capsys, argv, flag):
    # NaN is not JSON, and an infinite lambda is not a singular spectrum
    code, out, err = run(capsys, ["spectrum", *argv])
    assert (code, out) == (1, "")
    assert f"error: {flag} must be finite" in err


def test_spectrum_rejects_singular(capsys):
    code, _, err = run(capsys, ["spectrum", "--lambda", "0", "--mu", "2"])
    assert code == 1
    assert "min |d| = 0.0 <= TAU_RANK * max(1, max |d|) = 2e-09" in err


@pytest.mark.parametrize(
    "lam, mu, rule",
    [
        # lambda * mu overflowed to inf, and inf <= inf read as singular
        ("1e200", "1e200", "min |d| = 1.0 <= TAU_RANK * max(1, max |d|) = 1e+191"),
        # nonzero values whose spread alone makes d singular to working precision
        ("1e-8", "1e8", "min |d| = 1e-08 <= TAU_RANK * max(1, max |d|) = 0.1"),
        # the mask accepted this and normalize_spectrum then raised uncaught
        ("1e10", "1e10", "min |d| = 1.0 <= TAU_RANK * max(1, max |d|) = 10.0"),
    ],
    ids=["overflow", "spread", "mask-accepted"],
)
def test_spectrum_states_the_singularity_rule(capsys, lam, mu, rule):
    code, out, err = run(capsys, ["spectrum", "--lambda", lam, "--mu", mu])
    assert (code, out) == (1, "")
    assert f"spectrum d = (1.0, {float(lam)!r}, {float(mu)!r}) is singular: {rule}" in err


# --- derivations ---


def test_derivations_report(tmp_path, capsys):
    path = write_algebra(tmp_path, canonical_algebra("A2"))
    code, out, _ = run(capsys, ["derivations", path])
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 5
    assert len(report["basis"]) == 5
    assert report["ssnd"]["present"] is True
    assert len(report["ssnd"]["spectrum"]) == 3


# --- dispatch ---


def test_parser_is_built_once_and_commands_are_looked_up_per_call(tmp_path, capsys, monkeypatch):
    # the parser is cached per process; a command replaced after the first
    # call, as a tracer or a test does, is still the one that runs
    path = write_algebra(tmp_path, canonical_algebra("A2"), label="A2")
    assert run(capsys, ["derivations", path])[0] == 0
    parser = cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_derivations", lambda args, alg, label: calls.append(label) or 0)
    assert run(capsys, ["derivations", path]) == (0, "", "")
    assert calls == ["A2"]
    assert cli._parser() is parser


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "alg.json", "--x0", "1,0,0", "--t-end", "1", "--seed", "1"],
        ["spectrum", "--lambda", "-1", "--mu", "2", "--seed", "1"],
        ["classify", "alg.json", "--seed", "0"],
        ["derivations", "alg.json", "--seed", "0"],
        ["verify", "alg.json", "--seed", "0"],
    ],
)
def test_seed_is_refused_where_nothing_is_random(argv):
    # no command takes a --seed: the SSND search tries fixed sign patterns,
    # and verify always draws its starts from default_rng(0)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
