import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinelab import harness
from affinelab.atlas import Atlas
from affinelab.cli import main as cli_main
from affinelab.errors import ParseError, ScenarioError, UnknownCatalogName
from affinelab.harness import (_CHECKS, Report, check_names, emit, load_scenario, run_suite,
                               scenario_from_dict, trajectory_rows)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_minimal_scenario_defaults(cat):
    s = load_scenario(str(SCENARIOS / "minimal_sphere.json"), cat)
    assert s.manifold == "sphere"
    assert s.checks == []
    assert s.fields == []
    assert s.rng_seed == 0
    assert s.integrator.step == 1e-3


def test_unknown_manifold(cat, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"manifold": "torus5", "connection": "flat"}))
    with pytest.raises(UnknownCatalogName):
        load_scenario(str(p), cat)


def test_unknown_keys_rejected(cat):
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "sphere", "connection": "round", "extra": 1}, cat)
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "sphere", "connection": "round",
                            "checks": [{"name": "killing_residual", "bogus": 2}]}, cat)
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "sphere", "connection": "round",
                            "checks": [{"name": "no_such_check"}]}, cat)
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "sphere", "connection": "round",
                            "checks": [{"name": "killing_residual", "tol": -1.0}]}, cat)
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "sphere", "connection": "round",
                            "integrator": {"scheme": "rk45"}}, cat)


def test_so3_suite_resolves_12_checks(cat):
    s = load_scenario(str(SCENARIOS / "sphere_so3.json"), cat)
    assert len(s.checks) == 12


def test_all_shipped_scenarios_load(cat):
    for path in sorted(SCENARIOS.glob("*.json")):
        s = load_scenario(str(path), cat)
        assert s.manifold in cat.manifold_names()


@pytest.mark.parametrize("integrator", [{"step": float("nan")}, {"max_hops": -1},
                                        {"rechart_margin": 5}, {"max_hops": 2.5}])
def test_nonsense_integrator_config_fails_at_parse_time(cat, integrator):
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "sphere", "connection": "round",
                            "integrator": integrator}, cat)


def _residual_counts(monkeypatch) -> list:
    """The number of residuals each check returns, in run order, from here on."""
    counts = []
    for name, (defaults, fn) in dict(_CHECKS).items():
        def counted(ctx, fn=fn, **params):
            out = fn(ctx, **params)
            counts.append(len(out[0]))
            return out
        monkeypatch.setitem(_CHECKS, name, (defaults, counted))
    return counts


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_scenario_passes_end_to_end(cat, path, monkeypatch):
    counts = _residual_counts(monkeypatch)
    rep = run_suite(load_scenario(str(path), cat), cat)
    for row in rep.checks:
        assert row.status == "pass", (row.name, row.error)
        assert row.worst is not None and math.isfinite(row.worst), row.name
    # every row names its worst residual by its index among those its check returned
    assert len(counts) == len(rep.checks)
    for row, n in zip(rep.checks, counts):
        assert type(row.worst_at) is int and 0 <= row.worst_at < n, (row.name, row.worst_at, n)


def _small_scenario(cat, **overrides):
    base = {
        "manifold": "sphere",
        "connection": "round",
        "fields": ["rot_x", "rot_y", "rot_z"],
        "rng_seed": 5,
        "checks": [
            {"name": "transition_roundtrip", "samples": 10, "tol": 1e-10},
            {"name": "killing_residual", "samples": 10, "tol": 1e-8},
            {"name": "bracket_structure", "f1": "rot_x", "f2": "rot_y", "f3": "rot_z",
             "samples": 5, "tol": 1e-8},
        ],
    }
    base.update(overrides)
    return scenario_from_dict(base, cat)


def test_run_suite_order_and_pass(cat):
    rep = run_suite(_small_scenario(cat), cat)
    assert [c.name for c in rep.checks] == ["transition_roundtrip", "killing_residual",
                                            "bracket_structure"]
    assert rep.all_passed
    assert all(c.worst is not None for c in rep.checks)


def test_unsatisfiable_tolerance_fails_but_runs_all(cat):
    s = _small_scenario(cat)
    s.checks[1]["tol"] = 1e-20  # unsatisfiable
    rep = run_suite(s, cat)
    assert rep.checks[1].status == "fail"
    assert rep.checks[1].worst is not None  # residual recorded
    assert rep.checks[2].status == "pass"  # later checks still ran


def test_error_becomes_fail_row(cat):
    s = scenario_from_dict({
        "manifold": "plane", "connection": "flat",
        "checks": [
            {"name": "sphere_holonomy"},  # wrong manifold: raises inside
            {"name": "transition_roundtrip", "samples": 5},
        ],
    }, cat)
    rep = run_suite(s, cat)
    assert rep.checks[0].status == "fail"
    assert rep.checks[0].error is not None
    assert rep.checks[1].status == "pass"
    rows = rep.to_dict()["checks"]
    assert rows[0]["error"] == rep.checks[0].error and "error" not in rows[1]


def test_determinism_minus_walltime(cat):
    def strip(d):
        for row in d["checks"]:
            row.pop("ms")
        return d

    a = strip(run_suite(_small_scenario(cat), cat).to_dict())
    b = strip(run_suite(_small_scenario(cat), cat).to_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_tol_scale(cat):
    rep = run_suite(_small_scenario(cat), cat, tol_scale=1e-12)
    assert any(c.status == "fail" for c in rep.checks)


def test_emit_report_and_empty(cat, tmp_path):
    rep = run_suite(_small_scenario(cat), cat)
    out = tmp_path / "rep.json"
    emit(rep, str(out))
    data = json.loads(out.read_text())
    assert set(data) == {"checks", "meta"}
    assert data["checks"][0]["name"] == "transition_roundtrip"
    empty = run_suite(scenario_from_dict({"manifold": "sphere", "connection": "round"}, cat), cat)
    out2 = tmp_path / "empty.json"
    emit(empty, str(out2))
    assert json.loads(out2.read_text())["checks"] == []


def test_emit_writes_a_non_finite_worst_as_null(cat, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "change_of_variable_residual", lambda *a: float("nan"))
    s = scenario_from_dict({"manifold": "sphere", "connection": "round",
                            "checks": [{"name": "change_of_variable", "samples": 3}]}, cat)
    rep = run_suite(s, cat)
    assert math.isnan(rep.checks[0].worst)
    out = tmp_path / "rep.json"
    emit(rep, str(out))

    def reject(literal):
        raise ValueError(f"{literal} is not strict JSON")

    row = json.loads(out.read_text(), parse_constant=reject)["checks"][0]
    assert (row["status"], row["worst"], row["worst_at"]) == ("fail", None, 0)
    assert "nan" in row["error"]


def test_report_meta_keys(cat):
    meta = run_suite(_small_scenario(cat), cat).to_dict()["meta"]
    assert list(meta) == ["schema", "manifold", "connection", "fields", "rng_seed", "integrator",
                          "catalog_version", "source", "tol_scale", "python", "numpy", "platform"]
    assert meta["schema"] == harness.REPORT_SCHEMA == 2
    assert all(isinstance(meta[k], str) and meta[k] for k in ("python", "numpy", "platform"))


def test_emit_trajectory_csv(cat, tmp_path, cfg):
    from affinelab.atlas import Point
    from affinelab.flows import integrate
    rec = []
    integrate(cat.field("sphere", "rot_x"), Point("a", [0.4, 0.1]), 0.05, cfg, record=rec)
    header, rows = trajectory_rows(rec, 2, payload="coords")
    out = tmp_path / "traj.csv"
    emit((header, rows), str(out), format="csv")
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,chart,x0,x1"
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(ts, ts[1:]))  # monotone t column


def test_parse_error_carries_line_info(cat, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "manifold": "sphere",\n  "connection": round\n}\n')
    with pytest.raises(ParseError) as exc:
        load_scenario(str(p), cat)
    assert ":3:" in str(exc.value)  # line diagnostic


def test_emit_io_error(cat):
    from affinelab.errors import IoError
    rep = run_suite(scenario_from_dict({"manifold": "sphere", "connection": "round"}, cat), cat)
    with pytest.raises(IoError):
        emit(rep, "/nonexistent-dir/report.json")


def test_cli_run_and_exit_codes(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "manifold": "plane", "connection": "flat",
        "checks": [{"name": "transition_roundtrip", "samples": 5}],
    }))
    out = tmp_path / "r.json"
    assert cli_main(["run", str(scenario), "--out", str(out)]) == 0
    assert out.exists()
    assert cli_main(["run", str(scenario), "--tol-scale", "1e-14"]) == 1
    assert cli_main(["run", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("step", ["0", "nan", "-1", "inf"])
def test_cli_rejects_invalid_step_as_usage_error(step, tmp_path, capsys):
    # an integrator step that IntegratorConfig rejects is a usage error (2),
    # not a failed check (1) or a passing run (0)
    assert cli_main(["run", str(SCENARIOS / "minimal_sphere.json"), "--step", step]) == 2
    assert cli_main(["dump", "flow", "--manifold", "sphere", "--field", "rot_x", "--chart", "a",
                     "--point", "0.1,0.2", "--t1", "0.1", "--step", step,
                     "--out", str(tmp_path / "f.csv")]) == 2
    assert "--step" in capsys.readouterr().err


_DUMP_ARGS = {
    "flow": {"--manifold": "plane", "--field": "trans_x", "--chart": "cart",
             "--point": "0.5,0.25", "--t1": "0.01", "--step": "0.001"},
    "geodesic": {"--manifold": "sphere", "--connection": "round", "--chart": "a",
                 "--point": "0.1,0.2", "--velocity": "0,1", "--t1": "0.1", "--step": "0.01"},
    "horizontal": {"--manifold": "sphere", "--connection": "round", "--chart": "a",
                   "--point": "0.1,0.2", "--lam": "1,0", "--t1": "0.1", "--step": "0.01"},
}


@pytest.mark.parametrize("kind, changed, flag", [
    ("geodesic", {"--chart": "zz"}, "--chart"),
    ("geodesic", {"--connection": "nope"}, "--connection"),
    ("geodesic", {"--point": "0,0,0"}, "--point"),
    ("geodesic", {"--point": "a,b"}, "--point"),
    ("geodesic", {"--velocity": "1"}, "--velocity"),
    ("geodesic", {"--t1": "nan"}, "--t1"),
    ("geodesic", {"--t0": "-1", "--t1": "-2"}, "--t1"),
    ("horizontal", {"--frame": "1,2,3"}, "--frame"),
    ("horizontal", {"--lam": "1"}, "--lam"),
    ("geodesic", {"--point": "nan,0"}, "--point"),
    ("geodesic", {"--velocity": "inf,0"}, "--velocity"),
    ("horizontal", {"--lam": "1,nan"}, "--lam"),
    ("horizontal", {"--frame": "nan,0,0,1"}, "--frame"),
    ("geodesic", {"--velocity": None}, "--velocity"),
    ("horizontal", {"--lam": None}, "--lam"),
    ("horizontal", {"--connection": None}, "--connection"),
    # --t0 was dropped by flow and horizontal, and a positive one became 0
    ("flow", {"--t0": "5"}, "--t0"),
    ("horizontal", {"--t0": "-0.5"}, "--t0"),
    ("geodesic", {"--t0": "0.05"}, "--t0"),
])
def test_cli_dump_rejects_bad_flags_as_usage_errors(kind, changed, flag, tmp_path, capsys):
    # a dump flag the run cannot use, or a missing one (None) it needs, is
    # a usage error (2) that names the flag, not a traceback with exit code
    # 1 (a failed check)
    args = {**_DUMP_ARGS[kind], **changed, "--out": str(tmp_path / "d.csv")}
    args = {k: v for k, v in args.items() if v is not None}
    assert cli_main(["dump", kind, *(a for kv in args.items() for a in kv)]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    text = capsys.readouterr().out
    assert "sphere" in text and "rot_x" in text and "killing_residual" in text


def test_cli_dump_geodesic(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = cli_main(["dump", "geodesic", "--manifold", "sphere", "--connection", "round",
                   "--chart", "a", "--point", "1,0", "--velocity", "0,1",
                   "--t1", "1.0", "--step", "0.01", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,chart,x0,x1,v0,v1"
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_cli_dump_flow(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    rc = cli_main(["dump", "flow", "--manifold", "plane", "--field", "trans_x", "--chart", "cart",
                   "--point", "0.5,0.25", "--t1", "0.5", "--step", "0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,chart,x0,x1"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6 and {r[1] for r in rows} == {"cart"}
    assert all(abs(float(x0) - 0.5 - float(t)) <= 1e-12 and float(x1) == 0.25
               for t, _, x0, x1 in rows)
    assert "6 rows written" in capsys.readouterr().out


def test_cli_dump_horizontal(tmp_path):
    out = tmp_path / "fr.csv"
    rc = cli_main(["dump", "horizontal", "--manifold", "sphere", "--connection", "round",
                   "--chart", "a", "--point", "1,0", "--lam", "0,1",
                   "--t1", "0.5", "--step", "0.01", "--out", str(out)])
    assert rc == 0
    header = out.read_text().split("\n")[0]
    assert header == "t,chart,x0,x1,g00,g01,g10,g11"


def test_tol_scale_divides_lower_bounds(cat):
    scenario = scenario_from_dict({
        "manifold": "plane", "connection": "flat", "fields": ["trans_x", "trans_y", "rotation"],
        "checks": [{"name": "killing_floor", "field": "nonaffine_sq", "floor": 1e-2},
                   {"name": "orbit_separation", "chart": "cart", "point": [0.3, 0.2],
                    "min_gap": 1e-3}]}, cat)
    # the floor 1e-2 and the gap 1e-3 are met (residual ~94, gaps ~0.1);
    # loosening lowers both bounds, tightening raises them past what is seen
    for scale, status in ((1.0, "pass"), (1e4, "pass"), (1e-4, "fail")):
        rep = run_suite(scenario, cat, tol_scale=scale)
        assert [c.status for c in rep.checks] == [status, status], scale


def test_check_that_sampled_nothing_fails(cat):
    scenario = scenario_from_dict({"manifold": "sphere", "connection": "round",
                                   "checks": [{"name": "killing_residual"},
                                              {"name": "killing_equivalence"}]}, cat)
    rep = run_suite(scenario, cat)
    assert [(c.status, c.samples) for c in rep.checks] == [("fail", 0), ("fail", 0)]
    assert all(c.error for c in rep.checks)
    assert not rep.all_passed


@pytest.mark.parametrize("name", ["minimal_sphere", "paper_claims"])
def test_cli_run_seed_writes_the_rows_of_run_suite_at_that_seed(cat, tmp_path, capsys, name):
    # the path `affinelab run --seed` takes, and perfbench's scenario_suite times
    path = SCENARIOS / f"{name}.json"
    out = tmp_path / "r.json"
    # a file without checks still writes its (empty) report, but exits 1
    assert cli_main(["run", str(path), "--seed", "1", "--out", str(out)]) == (
        1 if name == "minimal_sphere" else 0)
    got = json.loads(out.read_text())
    scenario = load_scenario(str(path), cat)
    assert scenario.rng_seed == 0 and got["meta"]["rng_seed"] == 1
    own = run_suite(scenario, cat)
    scenario.rng_seed = 1
    want = run_suite(scenario, cat)
    rows = [(c["name"], c["status"], float.hex(c["worst"])) for c in got["checks"]]
    assert rows == [(c.name, c.status, float.hex(c.worst)) for c in want.checks]
    if rows:  # the seed reached the checks: some row reads otherwise at the file's seed
        assert rows != [(c.name, c.status, float.hex(c.worst)) for c in own.checks]


def test_a_scenario_without_checks_does_not_pass(cat, capsys):
    # all() of no rows is True: a report with no checks must not read as passed
    assert not Report([], {}).all_passed
    assert cli_main(["run", str(SCENARIOS / "minimal_sphere.json"), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "no checks ran" in captured.err
    assert "[PASS]" not in captured.out


def test_negative_seed_is_rejected(cat, capsys):
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "sphere", "connection": "round", "rng_seed": -1}, cat)
    # a usage error (2), not a failed check (1) or a traceback
    assert cli_main(["run", str(SCENARIOS / "minimal_sphere.json"), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_negative_seed_set_in_code_fails_each_check(cat):
    # a seed assigned after parsing cannot seed a generator: each check is a
    # fail row carrying the error, not an exception out of run_suite
    s = _small_scenario(cat)
    s.rng_seed = -1
    rep = run_suite(s, cat)
    assert [c.status for c in rep.checks] == ["fail"] * 3
    assert all("ValueError" in c.error for c in rep.checks)


@pytest.mark.parametrize("scale", ["0", "-1", "nan"])
def test_invalid_tol_scale_is_rejected(cat, tmp_path, capsys, scale):
    with pytest.raises(ValueError):
        run_suite(_small_scenario(cat), cat, tol_scale=float(scale))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "manifold": "plane", "connection": "flat", "fields": ["trans_x"],
        "checks": [{"name": "killing_residual", "samples": 5},
                   {"name": "killing_floor", "field": "nonaffine_sq"}],
    }))
    assert cli_main(["run", str(scenario), "--tol-scale", scale]) == 2
    assert "--tol-scale" in capsys.readouterr().err


def test_geometry_error_exits_3(tmp_path, capsys):
    # the dilation flow backwards from (0, 1) reaches y = e^-30, below the chart
    rc = cli_main(["dump", "flow", "--manifold", "halfplane", "--field", "hyp_dilate",
                   "--chart", "hp", "--point", "0,1", "--t1", "-30", "--step", "0.01",
                   "--out", str(tmp_path / "f.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: LeftAtlas") and "Traceback" not in err


def test_every_check_runs_in_a_shipped_scenario():
    named = set()
    for path in SCENARIOS.glob("*.json"):
        named |= {c["name"] for c in json.loads(path.read_text()).get("checks", [])}
    assert set(check_names()) <= named, sorted(set(check_names()) - named)


def _plane_check(cat, **check):
    return scenario_from_dict({"manifold": "plane", "connection": "flat",
                               "fields": ["trans_x", "rotation"], "checks": [check]}, cat)


@pytest.mark.parametrize("check", [
    {"name": "flow_group_law"},
    {"name": "flow_group_law", "field": None},
    {"name": "geodesic_periodicity"},
    {"name": "parameter_flow", "chart": "cart", "point": [0.2, -0.1, 0.3]},
    {"name": "parameter_flow", "chart": "nowhere", "point": [0.2, -0.1]},
    {"name": "parameter_flow", "chart": ["cart"], "point": [0.2, -0.1]},
    {"name": "horizontal_projection", "chart": "cart", "point": [0.2, -0.1], "lam": "up"},
    {"name": "extension_recovery", "field": "rotation", "chart": "cart", "point": [0.2, 0.1],
     "target": [0.3, float("nan")]},
    {"name": "completeness", "expect": "fails", "chart": "cart", "point": [0.1, 0.2]},
])
def test_missing_or_malformed_parameters_fail_parsing(cat, check):
    # each of these used to parse and then fail at run time (KeyError,
    # TypeError, a reshape ValueError) or not at all
    with pytest.raises(ParseError):
        _plane_check(cat, **check)


def test_optional_none_parameters_still_parse(cat):
    # a `fields` list falls back to the scenario's fields, and completeness
    # needs its point inputs only to expect "fails"
    s = _plane_check(cat, name="killing_residual", samples=3)
    assert run_suite(s, cat).checks[0].samples == 6
    _plane_check(cat, name="completeness", seeds=2, horizon=1.0)


@pytest.mark.parametrize("check", [
    {"name": "flow_group_law", "field": "rotation", "samples": -3},
    {"name": "flow_group_law", "field": "rotation", "samples": 2.5},
    {"name": "flow_reversibility", "field": "rotation", "samples": True},
    {"name": "killing_equivalence", "frames": 0},
    {"name": "killing_equivalence", "samples": "10"},
    {"name": "completeness", "seeds": 0},
])
def test_counts_must_be_positive_integers(cat, check):
    # samples -3 passed on zero samples, 2.5 sampled 3 points and reported
    # 2, frames 0 passed with the commutation half unsampled
    with pytest.raises(ParseError):
        _plane_check(cat, **check)


def test_checks_report_the_rows_they_ran(cat):
    s = scenario_from_dict({"manifold": "plane", "connection": "flat",
                            "fields": ["trans_x", "nonaffine_sq"],
                            "checks": [{"name": "flow_group_law", "field": "rotation",
                                        "samples": 3},
                                       {"name": "killing_equivalence", "samples": 2, "frames": 1,
                                        "s": 0.1, "t": 0.1}]}, cat)
    rep = run_suite(s, cat)
    assert [(c.status, c.samples) for c in rep.checks] == [("pass", 3), ("pass", 6)]


@pytest.mark.parametrize("eps", [0, -1e-3, float("nan"), float("inf"), "1e-3", True])
def test_parameter_flow_eps_must_be_finite_and_positive(cat, eps):
    # eps 0 used to end in "LinAlgError: SVD did not converge"
    with pytest.raises(ParseError):
        _plane_check(cat, name="parameter_flow", chart="cart", point=[0.2, -0.1], eps=eps)


# what `--tol-scale` loosens, declared here apart from the harness's own sets
_SCALED_UP = {"tol", "tol_kill", "res_tol", "comm_tol", "slack"}
_SCALED_DOWN = {"floor", "min_gap"}


def _arrivals(cat, monkeypatch, tol_scale):
    """The parameters each check of every shipped scenario is called with."""
    seen = []
    for name, (defaults, _) in dict(_CHECKS).items():
        monkeypatch.setitem(_CHECKS, name, (defaults, lambda ctx, name=name, **params:
                                            seen.append((name, params)) or ([0.0], 0.0)))
    for path in sorted(SCENARIOS.glob("*.json")):
        run_suite(load_scenario(str(path), cat), cat, tol_scale=tol_scale)
    return seen


def test_tol_scale_scales_tolerances_and_lower_bounds_only(cat, monkeypatch):
    # durations, eps, min_ratio, counts and every other parameter arrive as given
    base, loose = _arrivals(cat, monkeypatch, 1.0), _arrivals(cat, monkeypatch, 4.0)
    assert [n for n, _ in base] == [n for n, _ in loose] and set(check_names()) <= dict(base).keys()
    seen = set()
    for (name, a), (_, b) in zip(base, loose):
        assert a.keys() == b.keys() == _CHECKS[name][0].keys()
        for k, v in a.items():
            want = v * 4 if k in _SCALED_UP else v / 4 if k in _SCALED_DOWN else v
            assert b[k] == want, (name, k, v, b[k])
            seen.add(k)
    assert _SCALED_UP | _SCALED_DOWN <= seen


def _kind_gaps():
    """(check parameters without a kind, kinds no check parameter has)."""
    params = {k for defaults, _ in harness._CHECKS.values() for k in defaults}
    return sorted(params - harness._KIND.keys()), sorted(harness._KIND.keys() - params)


def test_every_check_parameter_has_one_kind(monkeypatch):
    assert _kind_gaps() == ([], [])
    monkeypatch.setattr(harness, "_CHECKS", dict(_CHECKS))

    @harness.check("scratch")
    def _scratch(ctx, samples=3, unkinded=1.0):
        return [0.0] * samples, 0.0

    assert _kind_gaps() == (["unkinded"], [])


def test_tol_scale_leaves_the_fd_step_alone(cat):
    # scaling eps by 1e6 as well would overflow the perturbed frame flows
    s = _plane_check(cat, name="parameter_flow", chart="cart", point=[0.2, -0.1], eps=1e-3)
    assert run_suite(s, cat, tol_scale=1e6).checks[0].status == "pass"


@pytest.mark.parametrize("check, error", [
    ({"name": "killing_floor", "field": "nope"}, UnknownCatalogName),
    ({"name": "killing_residual", "fields": ["nope"]}, UnknownCatalogName),
    ({"name": "killing_residual", "fields": "rotation"}, ParseError),
    ({"name": "bracket_structure", "f1": "trans_x", "f2": "rotation", "f3": 3},
     UnknownCatalogName),
    ({"name": "lift_homomorphism", "f1": ["trans_x"], "f2": "rotation"}, UnknownCatalogName),
])
def test_field_names_are_checked_at_parse_time(cat, check, error):
    # these parsed and then failed at run time as KeyError rows ("fields":
    # "rotation" iterated the string's characters)
    with pytest.raises(error):
        _plane_check(cat, **check)


@pytest.mark.parametrize("param, literal", [("tol", "Infinity"), ("t", "-Infinity"),
                                            ("t", "NaN")])
def test_non_strict_json_literals_are_rejected(cat, tmp_path, param, literal):
    # "tol": Infinity used to make the check pass whatever it measured
    scenario = tmp_path / "s.json"
    scenario.write_text('{"manifold": "plane", "connection": "flat", "checks": [{"name": '
                        '"flow_reversibility", "field": "rotation", "%s": %s}]}' % (param, literal))
    with pytest.raises(ParseError):
        load_scenario(str(scenario), cat)
    assert cli_main(["run", str(scenario)]) == 2


@pytest.mark.parametrize("data", [
    {"checks": [{"name": "killing_residual", "tol": True}]},
    {"checks": [{"name": "killing_residual", "tol": float("inf")}]},
    {"checks": [{"name": "killing_floor", "field": "nonaffine_sq", "floor": True}]},
    {"checks": [{"name": "killing_residual", "tol": 10 ** 400}]},
    {"rng_seed": True},
    {"integrator": {"step": True}},
    {"integrator": {"step": 10 ** 400}},
])
def test_tolerances_and_seeds_reject_booleans_and_infinities(cat, data):
    # "tol": true was taken as 1 and "rng_seed": true as seed 1
    with pytest.raises(ParseError):
        scenario_from_dict({"manifold": "plane", "connection": "flat", **data}, cat)


@pytest.mark.parametrize("check", [
    {"name": ["transition_roundtrip"]},
    {"name": "completeness", "expect": "nope"},
    {"name": "frame_homomorphism", "axis_a": 5},
    {"name": "frame_homomorphism", "axis_b": True},
])
def test_malformed_choices_are_usage_errors(cat, tmp_path, capsys, check):
    # an unhashable name was a TypeError traceback, expect "nope" a run-time
    # ParseError fail row and axis 5 a silent rotation about z
    data = {"manifold": "sphere", "connection": "round", "checks": [check]}
    with pytest.raises(ParseError):
        scenario_from_dict(data, cat)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert cli_main(["run", str(scenario)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("check", [
    {"name": "flow_reversibility", "field": "rot_x", "t": "x"},
    {"name": "gram_rank_check", "chart": "a", "point": [0.3, 0.2], "expected": "three"},
    {"name": "frame_homomorphism", "angle_a": [1]},
    {"name": "completeness", "horizon": "far"},
    {"name": "flow_group_law", "field": "rot_x", "s": True},
    {"name": "gram_rank_check", "chart": "a", "point": [0.3, 0.2], "expected": -1},
    {"name": "sphere_holonomy", "colatitudes": []},
    {"name": "sphere_holonomy", "colatitudes": [0.5, "x"]},
])
def test_scalar_parameters_are_checked_at_parse_time(cat, tmp_path, capsys, check):
    # the first four parsed and then failed at run time as TypeError or
    # ValueError rows (exit code 1); "s": true ran as s = 1 and passed
    data = {"manifold": "sphere", "connection": "round", "checks": [check]}
    with pytest.raises(ParseError):
        scenario_from_dict(data, cat)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert cli_main(["run", str(scenario)]) == 2
    assert "Traceback" not in capsys.readouterr().err


_SEED = {"chart": "a", "point": [0.3, 0.2], "velocity": [0.4, 0.1]}


@pytest.mark.parametrize("manifold, check", [
    ("disk", {"name": "completeness", "seeds": 3, "horizon": 0.0}),
    ("disk", {"name": "completeness", "seeds": 3, "horizon": -5.0}),
    ("sphere", {"name": "completeness", "step": 0.0}),
    ("sphere", {"name": "completeness", "step": -0.1}),
    ("sphere", {"name": "geodesic_periodicity", **_SEED, "period": -6.0}),
    ("sphere", {"name": "geodesic_convergence", **_SEED, "period": 0.0}),
    ("sphere", {"name": "horizontal_projection", "chart": "a", "point": [0.3, 0.2],
                "lam": [0.5, 0.1], "t1": 0.0}),
])
def test_durations_must_be_positive(cat, tmp_path, capsys, manifold, check):
    # horizon 0 on the incomplete disk passed with worst 0 and horizon -5
    # reported a negative worst; the others failed at run time as ValueError
    # rows (exit code 1)
    data = {"manifold": manifold, "connection": cat.connection_names(manifold)[0],
            "checks": [check]}
    with pytest.raises(ParseError, match="finite positive"):
        scenario_from_dict(data, cat)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert cli_main(["run", str(scenario)]) == 2
    assert "Traceback" not in capsys.readouterr().err


_GEO = {"chart": "cart", "point": [0.2, 0.1], "velocity": [0.3, 0.1], "period": 1.0}
_LIN = {"name": "extension_linearity", "f1": "trans_x", "f2": "rotation", "chart": "cart",
        "point": [0.2, 0.1], "lam": [0.3, 0.4]}


@pytest.mark.parametrize("manifold, check", [
    ("plane", {"name": "flow_group_law", "field": "nonaffine_sq", "s": 0}),
    ("plane", {"name": "flow_group_law", "field": "nonaffine_sq", "t": 0}),
    ("plane", {"name": "flow_reversibility", "field": "nonaffine_sq", "t": 0}),
    ("plane", {"name": "killing_equivalence", "samples": 2, "frames": 1, "s": 0}),
    ("plane", {"name": "killing_equivalence", "samples": 2, "frames": 1, "t": 0.0}),
    ("plane", {"name": "exp_commutes", "field": "rotation", "scale": 0}),
    ("disk", {"name": "completeness", "seeds": 3, "horizon": 50.0, "vel_scale": 0}),
    ("plane", dict(_LIN, a=0)),
    ("plane", dict(_LIN, lam=[0, 0])),
    ("plane", {"name": "horizontal_projection", "chart": "cart", "point": [0.2, 0.1],
               "lam": [0.0, 0.0], "t1": 1.0}),
    ("plane", {"name": "geodesic_periodicity", **_GEO, "velocity": [0, 0]}),
    ("plane", {"name": "extension_recovery", "field": "rotation", "chart": "cart",
               "point": [0.2, 0.1], "target": [0.2, 0.1]}),
    ("plane", {"name": "geodesic_convergence", **_GEO, "min_ratio": 0}),
    ("plane", {"name": "geodesic_convergence", **_GEO, "min_ratio": -1.0}),
    ("sphere", {"name": "sphere_holonomy", "colatitudes": [0.0]}),
    ("sphere", {"name": "sphere_holonomy", "colatitudes": [0.5, math.pi]}),
])
def test_vacuous_parameters_fail_parsing(cat, tmp_path, capsys, manifold, check):
    # each of these parsed and then passed, the check comparing a computation
    # with itself: a zero flow time, scale or direction, a target at the
    # start point, a ratio bound every error meets, or a pole for a latitude
    data = {"manifold": manifold, "connection": cat.connection_names(manifold)[0],
            "fields": ["trans_x", "rotation"] if manifold == "plane" else [],
            "integrator": {"step": 0.01}, "checks": [check]}
    with pytest.raises(ParseError):
        scenario_from_dict(data, cat)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    assert cli_main(["run", str(scenario)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("scenario_fields, own", [(["rot_x", "rot_y"], ["rot_z"]),
                                                  (["rot_x"], None), ([], None),
                                                  (["rot_x", "rot_y"], [])])
def test_orbit_separation_needs_two_fields(cat, scenario_fields, own):
    # with fewer than two fields the check failed at run time with
    # "min() arg is an empty sequence"
    check = {"name": "orbit_separation", "chart": "a", "point": [0.3, 0.2]}
    data = {"manifold": "sphere", "connection": "round", "fields": scenario_fields,
            "checks": [check if own is None else dict(check, fields=own)]}
    with pytest.raises(ParseError, match="at least two fields"):
        scenario_from_dict(data, cat)
    assert scenario_from_dict(dict(data, fields=["rot_x", "rot_y"], checks=[check]), cat)


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=6)
# values for the sphere of every parameter some check requires, so that a
# fuzzed value reaches its own validator
_REQUIRED = {"chart": "a", "expected": 3, "f1": "rot_x", "f2": "rot_y", "f3": "rot_z",
             "fail_before": 1.0, "field": "rot_x", "fields": ["rot_x", "rot_y"], "lam": [0.5, 0.1],
             "period": 6.0, "point": [0.1, 0.2], "target": [0.2, 0.1], "velocity": [0.3, 0.1]}
# every top-level and integrator key, one fields entry, and each check
# parameter name (with "name") in the first check that takes it
_SLOTS = ([("top", k) for k in ("manifold", "connection", "fields", "checks", "integrator",
                                "rng_seed")]
          + [("integrator", k) for k in ("step", "max_hops", "rechart_margin")]
          + [("field", 0)]
          + [("check", (name, key)) for key, name in
             {key: name for name in reversed(check_names())
              for key in ["name", *_CHECKS[name][0]]}.items()])


@settings(max_examples=500, deadline=None)
@given(slot=st.sampled_from(_SLOTS), value=_JSON)
def test_parser_raises_only_scenario_errors(cat, slot, value):
    data = {"manifold": "sphere", "connection": "round", "fields": ["rot_x", "rot_y"],
            "integrator": {"step": 0.01}, "rng_seed": 3, "checks": []}
    kind, key = slot
    if kind == "top":
        data[key] = value
    elif kind == "integrator":
        data["integrator"][key] = value
    elif kind == "field":
        data["fields"][key] = value
    else:
        name, param = key
        required = {k: _REQUIRED[k] for k, v in _CHECKS[name][0].items() if v is None}
        data["checks"] = [{"name": name, **required, param: value}]
    try:
        scenario_from_dict(data, cat)
    except ScenarioError:
        pass


def test_completeness_fails_mode(cat):
    # the straight line from the seed leaves the unit disk near t = 1 and
    # reaches the horizon on the plane
    check = {"name": "completeness", "expect": "fails", "point": [0.2, 0.1],
             "velocity": [0.7, -0.4], "horizon": 100.0, "fail_before": 10.0}
    disk = scenario_from_dict({"manifold": "disk", "connection": "flat",
                               "checks": [dict(check, chart="disk")]}, cat)
    plane = _plane_check(cat, **dict(check, chart="cart"))
    ok, = run_suite(disk, cat).checks
    assert (ok.status, ok.samples, ok.worst) == ("pass", 1, 0.0)
    bad, = run_suite(plane, cat).checks
    assert (bad.status, bad.samples, bad.worst) == ("fail", 1, 90.0)


def _feed(monkeypatch, residuals):
    """Have `change_of_variable` see `residuals(i)` as its i-th residual."""
    calls = []

    def residual(*args):
        calls.append(args)
        return residuals(len(calls) - 1)

    monkeypatch.setattr(harness, "change_of_variable_residual", residual)


@pytest.mark.parametrize("nan_at", [0, 7, "every"])
def test_a_nan_residual_fails_its_row(cat, monkeypatch, nan_at):
    # max(worst, nan) keeps worst: a NaN at one sample, or at every sample
    # (worst 0.0), used to pass the row
    _feed(monkeypatch, lambda i: math.nan if nan_at in ("every", i) else 1e-9)
    row, = run_suite(_plane_check(cat, name="change_of_variable", samples=5), cat).checks
    first = 0 if nan_at == "every" else nan_at
    assert (row.status, row.samples) == ("fail", 10)
    assert math.isnan(row.worst) and f"residual {first} " in row.error and row.worst_at == first


def test_a_nan_gap_fails_geodesic_convergence(cat, monkeypatch):
    # max(errs[1], 1e-300) and max(0.0, min_ratio - nan) used to pass this row
    check = json.loads((SCENARIOS / "paper_claims.json").read_text())["checks"][0]
    assert check["name"] == "geodesic_convergence"
    scenario = scenario_from_dict({"manifold": "sphere", "connection": "round",
                                   "integrator": {"step": 0.01}, "checks": [check]}, cat)
    assert run_suite(scenario, cat).checks[0].status == "pass"
    monkeypatch.setattr(Atlas, "gap", lambda self, p, q: math.nan)
    row, = run_suite(scenario, cat).checks
    assert row.status == "fail" and "residual 0 " in row.error and row.worst_at == 0


def test_worst_at_is_the_index_of_the_largest_residual(cat, monkeypatch):
    # the first of two equal largest residuals, in the order the check sampled them
    seq = [1e-9, 4e-7, 2e-8, 4e-7, 0.0, 3e-7]
    _feed(monkeypatch, seq.__getitem__)
    rep = run_suite(_plane_check(cat, name="change_of_variable", samples=3), cat)
    row, = rep.checks
    assert (row.status, row.worst, row.worst_at, row.samples) == ("pass", 4e-7, 1, 6)
    assert rep.to_dict()["checks"][0]["worst_at"] == 1


def test_rows_that_judged_nothing_have_no_worst_at(cat):
    # sampled nothing (no fields), or raised (wrong manifold)
    s = scenario_from_dict({"manifold": "plane", "connection": "flat",
                            "checks": [{"name": "killing_residual"},
                                       {"name": "killing_equivalence"},
                                       {"name": "sphere_holonomy"}]}, cat)
    rep = run_suite(s, cat)
    assert [(c.status, c.worst_at) for c in rep.checks] == [("fail", None)] * 3
    assert [row["worst_at"] for row in rep.to_dict()["checks"]] == [None] * 3


def test_completeness_fails_on_its_own_condition(cat):
    # a probe that stops before the horizon, or one expected to stop that does not
    disk = scenario_from_dict({"manifold": "disk", "connection": "flat",
                               "checks": [{"name": "completeness", "seeds": 3,
                                           "horizon": 50.0}]}, cat)
    row, = run_suite(disk, cat).checks
    assert (row.status, row.error) == ("fail", "a probe stopped before the horizon")
    plane = _plane_check(cat, name="completeness", expect="fails", chart="cart",
                         point=[0.2, 0.1], velocity=[0.7, -0.4], horizon=100.0, fail_before=200.0)
    row, = run_suite(plane, cat).checks
    assert (row.status, row.worst, row.error) == ("fail", 0.0, "the probe reached the horizon")


def test_cli_run_prints_worst_at(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "manifold": "plane", "connection": "flat",
        "checks": [{"name": "transition_roundtrip", "samples": 5}, {"name": "killing_residual"}],
    }))
    assert cli_main(["run", str(scenario)]) == 1
    judged, empty = capsys.readouterr().out.splitlines()
    assert " samples=  10 at=" in judged and " at=" not in empty


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_exp_aut_affine_sees_the_second_derivative_of_a_nonlinear_flow(cat, seed):
    # the flow of rot_x is not linear in its chart, so the row reads the
    # flow word's d2 f: it sits at RK4 error, far below the 1e-5 tolerance
    integrator = json.loads((SCENARIOS / "sphere_so3.json").read_text())["integrator"]
    scenario = scenario_from_dict({"manifold": "sphere", "connection": "round",
                                   "fields": ["rot_x"], "rng_seed": seed, "integrator": integrator,
                                   "checks": [{"name": "exp_aut_affine", "field": "rot_x"}]}, cat)
    (row,) = run_suite(scenario, cat).checks
    assert row.status == "pass" and row.samples == 10
    assert row.worst <= 1e-11
