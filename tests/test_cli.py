import contextlib
import dataclasses
import gc
import io
import json
import math
import struct
import warnings
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hypcurv
from hypcurv import asymptotics, heightfield
from hypcurv.cli import main
from hypcurv.gridfn import GridFunction, save_grid_function
from hypcurv.reportio import csv_rows, dumps, format_float


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def surfaces(tmp_path):
    paths = {}
    descriptors = {
        "cone": {"kind": "equidistant_cone", "n": 3, "slope": 1.0, "mask_radius": 1e-3},
        "horosphere": {"kind": "horosphere", "n": 3, "c": 1.0},
        "plane": {"kind": "tilted_plane", "n": 3, "slope": 1.0},
    }
    for name, desc in descriptors.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(desc))
        paths[name] = str(p)
    return paths


class TestAnalyze:
    def test_cone_point_report(self, runner, surfaces):
        result = runner.invoke(main, ["analyze", "--surface", surfaces["cone"],
                                      "--point", "1,0,0"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["kappas"] == pytest.approx([0.70711, 1.41421, 1.41421], abs=1e-5)
        assert doc["H"] == pytest.approx(3.53553, abs=1e-5)
        assert doc["regime"] == "NonnegSectional"
        assert doc["residuals"]["codazzi"] <= 1e-5
        assert doc["manifest"]["command"] == "analyze"

    def test_deterministic_output(self, runner, surfaces):
        args = ["analyze", "--surface", surfaces["cone"], "--point", "0.7,0.2,-0.3"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_out_dir(self, runner, surfaces, tmp_path):
        out = tmp_path / "reports"
        result = runner.invoke(main, ["analyze", "--surface", surfaces["cone"],
                                      "--point", "1,0,0", "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "analyze.json").exists()

    def test_point_outside_domain_is_numeric_failure(self, runner, surfaces):
        result = runner.invoke(main, ["analyze", "--surface", surfaces["cone"],
                                      "--point", "9,0,0"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("step", ["0", "nan", "inf"])
    def test_degenerate_step_is_an_error(self, runner, surfaces, step):
        result = runner.invoke(main, ["analyze", "--surface", surfaces["cone"],
                                      "--point", "0.8,0.3,-0.2", "--step", step])
        assert result.exit_code == 1
        assert "finite and nonzero" in json.loads(result.stderr)["error"]

    @pytest.mark.parametrize("point,step", [("0.8,0.3,-0.2", 1e-4), ("1.2,0.9,0", 1.5e-4)])
    def test_manifest_records_resolved_default_step(self, runner, surfaces, point, step):
        result = runner.invoke(main, ["analyze", "--surface", surfaces["cone"],
                                      "--point", point])
        assert json.loads(result.output)["manifest"]["config"]["step"] == pytest.approx(step)
        explicit = runner.invoke(main, ["analyze", "--surface", surfaces["cone"],
                                        "--point", point, "--step", "-2e-3"])
        assert json.loads(explicit.output)["manifest"]["config"]["step"] == -2e-3

    def test_bad_point_usage_error(self, runner, surfaces):
        result = runner.invoke(main, ["analyze", "--surface", surfaces["cone"],
                                      "--point", "a,b,c"])
        assert result.exit_code == 2

    def test_bad_surface_schema(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        grid = GridFunction((7, 7, 7), 0.5, np.full(3, -1.0), np.ones((7, 7, 7)))
        save_grid_function(grid, tmp_path / "g.csv", tmp_path / "g.json")
        # an unknown kind, a key that is no keyword of the kind's constructor, and a
        # misspelt key of a sampled grid whose files load
        for text in ('{"kind": "bogus", "n": 3}',
                     '{"kind": "horosphere", "n": 3, "c": 1.0, "slope": 2.0}',
                     '{"kind": "sampled_grid", "values_csv": "g.csv", '
                     '"header_json": "g.json", "ordr": 2}'):
            bad.write_text(text)
            result = runner.invoke(main, ["analyze", "--surface", str(bad),
                                          "--point", "1,0,0"])
            assert result.exit_code == 2, text


class TestScan:
    def test_csv_output(self, runner, surfaces, tmp_path):
        out = tmp_path / "scanout"
        result = runner.invoke(main, [
            "scan", "--surface", surfaces["cone"],
            "--grid", "0.5,-0.2,-0.2:1.5,0.2,0.2:4", "--out", str(out)])
        assert result.exit_code == 0
        lines = (out / "scan.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["x1", "x2", "x3", "f", "H"]
        assert header[-1] == "regime"
        assert len(lines) == 1 + 4 ** 3
        assert (out / "scan.manifest.json").exists()
        assert lines[1].split(",")[-1] == "NonnegSectional"

    def test_manifest_counts_filtered_points(self, runner, surfaces, tmp_path):
        # 5^3 nodes over [-1, 3] x [-1, 1]^2 on the cone over [-2, 2]^3: the 25 with
        # x1 = 3 leave the domain box and the origin lies in the apex ball
        out = tmp_path / "scanout"
        result = runner.invoke(main, ["scan", "--surface", surfaces["cone"],
                                      "--grid", "-1,-1,-1:3,1,1:5", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads((out / "scan.manifest.json").read_text())
        config = doc["manifest"]["config"]
        assert (config["scanned_points"], config["dropped_points"]) == (99, 26)
        kept = [x for x in np.stack(np.meshgrid(
            np.linspace(-1, 3, 5), *[np.linspace(-1, 1, 5)] * 2, indexing="ij"),
            -1).reshape(-1, 3).tolist() if x[0] < 3 and any(x)]
        rows = result.output.strip().splitlines()[1:]
        assert [[float(c) for c in row.split(",")[:3]] for row in rows] == kept

    def test_scan_of_dropped_points_prints_header_only(self, runner, tmp_path):
        surface = tmp_path / "masked.json"
        surface.write_text('{"kind": "equidistant_cone", "n": 3, "slope": 1.0, '
                           '"mask_radius": 5}')
        result = runner.invoke(main, ["scan", "--surface", str(surface),
                                      "--grid", "-0.1,-0.1,-0.1:0.1,0.1,0.1:3"])
        assert result.exit_code == 0
        assert result.output == ("x1,x2,x3,f,H,kappa1,kappa2,kappa3,min_ric_eig,A,B,"
                                 "AB_minus_nm1,density,regime\n")


class TestClassify:
    def test_cone_tube_verdict(self, runner, surfaces):
        result = runner.invoke(main, ["classify", "--surface", surfaces["cone"],
                                      "--seed", "7"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdict"] == "EquidistantTube"
        assert doc["boundary_points"] == 2

    def test_horosphere_verdict(self, runner, surfaces):
        result = runner.invoke(main, ["classify", "--surface", surfaces["horosphere"]])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdict"] == "Horosphere"
        assert doc["boundary_points"] == 1

    def test_profile_flag(self, runner, surfaces):
        result = runner.invoke(main, ["classify", "--surface", surfaces["cone"],
                                      "--tolerance-profile", "strict"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "EquidistantTube"

    def test_three_ends_contradict_nonneg_ricci(self, runner, surfaces, monkeypatch):
        real = asymptotics.recession_report

        def three_points(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), boundary_points=3)

        monkeypatch.setattr(asymptotics, "recession_report", three_points)
        result = runner.invoke(main, ["classify", "--surface", surfaces["cone"],
                                      "--grid", "-0.5,-0.5,-0.5:0.5,0.5,0.5:17",
                                      "--samples", "20"])
        assert result.exit_code == 1
        assert result.stdout == ""
        error = json.loads(result.stderr)["error"]
        assert "3 boundary points on a nonnegative-Ricci surface" in error


class TestSolveAndProbe:
    def test_solve_writes_artifacts(self, runner, surfaces, tmp_path):
        out = tmp_path / "solveout"
        result = runner.invoke(main, [
            "solve", "--surface", surfaces["cone"],
            "--grid", "0.5,-0.5,-0.5:1.5,0.5,0.5:9", "--p", "3", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["converged"]
        assert doc["stop_reason"] == "stalled"
        assert 0.0 <= doc["grad_norm"] <= 1e-6
        assert isinstance(doc["backtracks"], int) and doc["backtracks"] >= 0
        trace = (out / "energy_trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,energy,step"
        energies = [float(r.split(",")[1]) for r in trace[1:]]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert (out / "solution.csv").exists() and (out / "solution.json").exists()

    def test_probe_true_on_cone(self, runner, surfaces):
        result = runner.invoke(main, [
            "probe", "--surface", surfaces["cone"],
            "--grid", "0.5,-0.5,-0.5:1.5,0.5,0.5:17"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["subharmonic"] is True
        assert doc["stop_reason"] == "stalled"
        assert 1 <= doc["iterations"] <= 60
        assert isinstance(doc["backtracks"], int) and doc["backtracks"] >= 0

    def test_probe_reports_held_nodes_at_apex(self, runner, surfaces):
        # the excised apex and the 26 nodes tightened around it
        result = runner.invoke(main, [
            "probe", "--surface", surfaces["cone"], "--grid", "-0.5,-0.5,-0.5:0.5,0.5,0.5:9"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert (doc["excised_nodes"], doc["held_nodes"], doc["subharmonic"]) == (1, 27, True)

    def test_probe_non_commensurate_grid_rejected(self, runner, surfaces):
        # the y and z extents, 0.6, are not whole multiples of the spacing 1/16
        result = runner.invoke(main, [
            "probe", "--surface", surfaces["cone"],
            "--grid", "1.0,1.4,1.4:2.0,2.0,2.0:17"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "spacing" in json.loads(result.stderr)["error"]

    def test_probe_false_on_plane(self, runner, surfaces):
        result = runner.invoke(main, [
            "probe", "--surface", surfaces["plane"],
            "--grid", "1,-0.5,-0.5:2,0.5,0.5:33"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["subharmonic"] is False
        assert doc["min_margin"] < -doc["tolerance"]


class TestBoundary:
    def test_cone_boundary(self, runner, surfaces):
        result = runner.invoke(main, ["boundary", "--surface", surfaces["cone"],
                                      "--levels", "1,2,3,4"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["boundary_points"] == 2
        assert [c["count"] for c in doc["components"]] == [1, 1, 1, 1]


@pytest.mark.parametrize("command", ["classify", "boundary"])
def test_default_window_inside_off_origin_domain(runner, surfaces, command):
    # the tilted plane's domain, x_1 in [0.5, 2.5], does not contain the origin
    result = runner.invoke(main, [command, "--surface", surfaces["plane"]])
    assert result.exit_code == 0
    lo, hi = json.loads(result.output)["manifest"]["config"]["window"]
    assert lo == [1.25, -0.25, -0.25] and hi == [1.75, 0.25, 0.25]


def test_plane_single_end_without_nonneg_ricci_is_inconclusive(runner, surfaces):
    # the default window sees one end of the slope-1 plane, an umbilic surface with
    # Ricci curvature -1, where the paper's end count does not apply
    result = runner.invoke(main, ["classify", "--surface", surfaces["plane"]])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert (doc["boundary_points"], doc["nonneg_ricci_on_samples"]) == (1, False)
    assert doc["verdict"] == "Inconclusive"


@pytest.mark.parametrize("command", ["classify", "boundary"])
def test_default_window_within_node_budget_at_n4(runner, tmp_path, command):
    # 65 nodes per axis would make 65^4 nodes, over the budget; the default falls to
    # 21, an odd count, so a node sits on the apex (at 22 the cone reads a single end)
    path = tmp_path / "cone4.json"
    path.write_text(json.dumps({"kind": "equidistant_cone", "n": 4, "slope": 1.0}))
    result = runner.invoke(main, [command, "--surface", str(path)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["manifest"]["config"]["dims"] == [21] * 4
    assert doc["boundary_points"] == 2
    assert command == "boundary" or doc["verdict"] == "EquidistantTube"


def invoke_without_warnings(runner, args):
    """The in-process run of ``args``, failing on any warning it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert [str(w.message) for w in caught] == []
    return result


@pytest.mark.parametrize("command", ["boundary", "classify"])
def test_default_window_refused_from_n12(runner, tmp_path, command):
    # 3^12 > 65^3: not even 3 nodes per axis fit the default window's node count
    path = tmp_path / "horosphere12.json"
    path.write_text(json.dumps({"kind": "horosphere", "n": 12, "c": 1.0}))
    result = invoke_without_warnings(runner, [command, "--surface", str(path)])
    assert_exit_contract(result, command, huge_nodes=False)
    error = json.loads(result.stderr)["error"]
    assert result.exit_code == 1 and "cannot hold" in error and "--grid" in error


#: a slope-1e308 cone: 1 + |Df|^2 overflows at every point and f beyond |x| = 1.8
HUGE_CONE = {"kind": "equidistant_cone", "n": 3, "slope": 1e308}
#: horospheres whose f^4 or f^-4 (the Gauss terms' g (x) g reaches f^-4) leaves the
#: normal floats, and two whose powers stay inside them
EXTREME_HOROSPHERES = [{"kind": "horosphere", "n": 3, "c": c} for c in (1e200, 1e-200, 1e-150)]
MODERATE_HOROSPHERES = [{"kind": "horosphere", "n": 3, "c": c} for c in (1e70, 1e-70)]
JET_COMMANDS = [["analyze", "--point", "0.7,0.2,-0.3"],
                ["scan", "--grid", "0.5,-0.5,-0.5:1.5,0.5,0.5:3"], ["classify"]]


@pytest.mark.parametrize("desc,args,domain,match", [
    (HUGE_CONE, JET_COMMANDS[0], None, "1 + |Df|^2 finite, got"),
    (HUGE_CONE, JET_COMMANDS[1], None, "1 + |Df|^2 finite, got"),
    (HUGE_CONE, JET_COMMANDS[2], None, "1 + |Df|^2 finite, got"),
    (HUGE_CONE, ["classify"], 8.0, "f not finite at lattice node"),
    (HUGE_CONE, ["boundary"], 8.0, "f not finite at lattice node"),
] + [(desc, args, None, f"got f={desc['c']:g} at")
     for desc in EXTREME_HOROSPHERES for args in JET_COMMANDS],
    ids=["analyze", "scan", "classify", "classify-lattice", "boundary-lattice"]
    + [f"{args[0]}-c{desc['c']:g}" for desc in EXTREME_HOROSPHERES for args in JET_COMMANDS])
def test_overflowing_surface_exits_1_with_one_error(runner, tmp_path, desc, args, domain,
                                                    match):
    # on the domain [-8, 8]^3 the default window reaches |x| = 2 sqrt(3), where f is inf
    desc = dict(desc)
    if domain is not None:
        desc["domain"] = {"lo": [-domain] * 3, "hi": [domain] * 3}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(desc))
    result = invoke_without_warnings(runner, [args[0], "--surface", str(path), *args[1:]])
    assert_exit_contract(result, args, huge_nodes=False)
    assert result.exit_code == 1 and match in json.loads(result.stderr)["error"]


@pytest.mark.parametrize("desc", MODERATE_HOROSPHERES, ids=["c1e70", "c1e-70"])
@pytest.mark.parametrize("args", JET_COMMANDS, ids=[args[0] for args in JET_COMMANDS])
def test_moderate_horosphere_heights_run_clean(runner, tmp_path, desc, args):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(desc))
    result = invoke_without_warnings(runner, [args[0], "--surface", str(path), *args[1:]])
    assert (result.exit_code, result.stderr) == (0, "")


@pytest.mark.parametrize("command", ["classify", "boundary"])
@pytest.mark.parametrize("levels", ["2,1", "1,1", "a,b", "1,nan", "1,inf"])
def test_bad_levels_usage_error(runner, surfaces, command, levels):
    result = runner.invoke(main, [command, "--surface", surfaces["cone"],
                                  "--levels", levels])
    assert result.exit_code == 2
    assert "Error:" in result.output


@pytest.mark.parametrize("command", ["scan", "classify", "solve", "probe", "boundary"])
def test_grid_dimension_mismatch_usage_error(runner, surfaces, command):
    result = runner.invoke(main, [command, "--surface", surfaces["cone"],
                                  "--grid", "0.5,0.5:1.5,1.5:9"])
    assert result.exit_code == 2
    assert "grid dimension does not match the surface" in result.output


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_nonpositive_samples_usage_error(runner, surfaces, samples):
    result = runner.invoke(main, ["classify", "--surface", surfaces["cone"],
                                  "--samples", samples])
    assert result.exit_code == 2
    assert "--samples" in result.output


@pytest.mark.parametrize("command", ["solve", "probe"])
@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "1.5"])
def test_p_outside_solver_range_usage_error(runner, surfaces, command, p):
    result = runner.invoke(main, [command, "--surface", surfaces["cone"],
                                  "--grid", "0.5,-0.5,-0.5:1.5,0.5,0.5:9", "--p", p])
    assert result.exit_code == 2
    assert "finite p >= 2" in result.output


@pytest.mark.parametrize("args", [["scan", "--grid", "0.5,-0.5,nan:1.5,0.5,0.5:3"],
                                  ["classify", "--grid", "-0.5,-0.5,-0.5:0.5,inf,0.5:17"],
                                  ["probe", "--grid", "0.5,-0.5,-0.5:1.5,0.5,inf:9"],
                                  ["analyze", "--point", "nan,0,0"]])
def test_non_finite_number_usage_error(runner, surfaces, args):
    result = runner.invoke(main, [args[0], "--surface", surfaces["cone"], *args[1:]])
    assert result.exit_code == 2
    assert "non-finite" in result.output
    assert "x1," not in result.output


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_negative_seed_usage_error(runner, surfaces, command):
    surface = ["--surface", surfaces["cone"]] if command == "classify" else []
    result = runner.invoke(main, [command, *surface, "--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed" in result.output


#: the catalog kinds with a valid value of each constructor parameter
CATALOG_PARAMS = {
    "horosphere": {"c": 1.0},
    "equidistant_cone": {"slope": 1.0, "mask_radius": 1e-3},
    "geodesic_sphere_cap": {"center_height": 2.0, "euclidean_radius": 1.0},
    "tilted_plane": {"slope": 1.0},
}
#: the report fields documented to carry NaN (a constancy scan without the split)
NAN_FIELDS = {"kappa0", "kappa_transverse", "variances"}
#: node counts beyond any lattice: over the budget at every n, or beyond a float
HUGE_NODES = ["4097", "100000", str(2 ** 63), str(10 ** 400)]


@st.composite
def catalog_descriptors(draw):
    """Catalog descriptors at n = 2..4: each parameter kept, dropped, drawn over six
    decades either side of 1, or out of range (zero, negative, non-finite, a string);
    sometimes with a key that no constructor takes."""
    kind = draw(st.sampled_from(sorted(CATALOG_PARAMS)))
    desc = {"kind": kind, "n": draw(st.integers(2, 4))}
    for key, value in CATALOG_PARAMS[kind].items():
        choice = draw(st.sampled_from(["keep"] * 4 + ["drop", "scale", "scale", "bad"]))
        if choice == "keep":
            desc[key] = value
        elif choice == "scale":
            desc[key] = value * 10.0 ** draw(st.floats(-6, 6))
        elif choice == "bad":
            desc[key] = draw(st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, "x"]))
    if draw(st.integers(0, 7)) == 0:
        desc["bogus"] = 1.0
    return desc


@st.composite
def grid_specs(draw, n, most=33):
    """None (the default window) or a 'lo:hi:nodes' spec: a cube, or a box with one
    other extent, at most ``most`` nodes per axis, or a spec with a non-finite bound, a
    wrong dimension, or a NaN, infinite, huge, zero or negative node count."""
    if draw(st.integers(0, 3)) == 0:
        return None
    centre, half = draw(st.floats(-1.0, 2.0)), draw(st.floats(0.01, 1.0))
    lo, hi = [centre - half] * n, [centre + half] * n
    flaw = draw(st.sampled_from(["none"] * 5 + ["extent", "bound", "dimension"]))
    if flaw == "extent":
        hi[-1] = centre + draw(st.floats(0.01, 1.0))
    elif flaw == "bound":
        lo[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf]))
    elif flaw == "dimension":
        lo, hi = lo[1:], hi[1:]
    nodes = draw(st.one_of(st.integers(-1, most).map(str),
                           st.sampled_from(["nan", "inf", "0"] + HUGE_NODES)))
    return f"{','.join(map(repr, lo))}:{','.join(map(repr, hi))}:{nodes}"


@st.composite
def level_lists(draw):
    """Depths in [-3, 8], mostly strictly increasing; sometimes in any order, with a
    NaN or an infinite depth appended, or none at all."""
    levels = draw(st.lists(st.floats(-3.0, 8.0), min_size=1, max_size=4))
    flaw = draw(st.sampled_from([None] * 8 + ["order", "empty", math.nan, math.inf]))
    if flaw != "order":
        levels = sorted(set(levels))
    if flaw == "empty":
        levels = []
    elif isinstance(flaw, float):
        levels.append(flaw)
    return levels


def nan_keys(doc, key=None):
    """The top-level keys of the JSON document ``doc`` under which a NaN sits."""
    if isinstance(doc, float) and math.isnan(doc):
        yield key
    elif isinstance(doc, dict):
        for k, v in doc.items():
            yield from nan_keys(v, k if key is None else key)
    elif isinstance(doc, list):
        for v in doc:
            yield from nan_keys(v, key)


def assert_exit_contract(result, args, huge_nodes):
    """An in-process run's exit code and its output, never a traceback: 0 with nothing
    on stderr, 1 with one error document on stderr and nothing on stdout, 2 with a
    usage error; the node budget stops exactly the runs given ``huge_nodes``."""
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception)
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.stdout + result.stderr
    if result.exit_code == 0:
        assert result.stderr == ""
    elif result.exit_code == 1:
        assert result.stdout == ""
        error = json.loads(result.stderr)
        assert list(error) == ["error"] and isinstance(error["error"], str)
        assert ("exceeds the budget" in error["error"]) == huge_nodes, error
    else:
        assert "Error:" in result.stderr


def has_huge_nodes(grid_spec):
    return grid_spec is not None and grid_spec.endswith(
        tuple(":" + nodes for nodes in HUGE_NODES))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["classify", "boundary"]), desc=catalog_descriptors(),
       data=st.data(), levels=level_lists(),
       samples=st.sampled_from([1, 2, 5, 10, 20, 40, 40, 40, 0, -1]),
       seed=st.integers(-1, 2 ** 64))
def test_fuzz_classify_and_boundary(tmp_path, command, desc, data, levels, samples, seed):
    # in-process runs of drawn options: an exit code and its output, never a traceback
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(desc))
    grid_spec = data.draw(grid_specs(desc["n"]))
    args = [command, "--surface", str(surface), "--levels", ",".join(map(repr, levels))]
    if grid_spec is not None:
        args += ["--grid", grid_spec]
    if command == "classify":
        args += ["--samples", str(samples), "--seed", str(seed)]
    lattices = []
    axes = heightfield._lattice_axes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heightfield, "_lattice_axes",
                   lambda lo, dims, spacing: lattices.append(dims) or axes(lo, dims, spacing))
        result = CliRunner().invoke(main, args)
    # the node budget stops exactly the huge counts, never a default window
    assert_exit_contract(result, (args, desc), has_huge_nodes(grid_spec))
    # no lattice beyond the drawn 33 nodes per axis, or the default window's 65, is
    # allocated: a huge count is refused before
    assert all(max(dims) <= (65 if grid_spec is None else 33) for dims in lattices)
    if result.exit_code == 0:
        doc = json.loads(result.stdout)
        assert set(nan_keys(doc)) <= NAN_FIELDS


#: --step values: degenerate (0, NaN), negative, or tiny, down to the least subnormal
FUZZ_STEPS = ["0", "-0.0", "nan", "-1e-4", "-0.3", "1e-9", "1e-300", "5e-324"]


@st.composite
def analyze_points(draw, desc):
    """A point for the surface ``desc`` (its cap's domain may be widened to the chart's
    box): inside its domain box, outside it, near the cone apex (inside the mask ball,
    on it, or just outside) or at the cap's chart edge, on either side."""
    n = desc["n"]
    where = draw(st.sampled_from(["inside", "outside", "apex", "edge"]))
    radius = desc.get("euclidean_radius", 1.0)
    if where == "edge" and desc["kind"] == "geodesic_sphere_cap" and isinstance(
            radius, float) and math.isfinite(radius) and radius > 0:
        desc["domain"] = {"lo": [-radius] * n, "hi": [radius] * n}
    try:
        domain = heightfield.field_from_descriptor(dict(desc)).domain
        lo, hi = domain.lo, domain.hi
    except (hypcurv.HypcurvError, KeyError, TypeError, ValueError):
        lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    unit = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if where == "inside":
        x = lo + unit * (hi - lo)
    elif where == "outside":
        x = lo + unit * (hi - lo)
        x[draw(st.integers(0, n - 1))] = hi[0] + draw(st.floats(1e-9, 2.0)) * (hi[0] - lo[0])
    else:
        direction = unit - 0.5
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else np.eye(n)[0]
        if where == "apex":
            scale = desc.get("mask_radius", 1e-3)
            factors = [0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 3.0]
        else:
            scale = radius
            factors = [1.0 - 1e-12, 1.0 - 1e-6, 1.0 - 1e-3, 1.0, 1.0 + 1e-6]
        if not (isinstance(scale, float) and math.isfinite(scale)):
            scale = 1.0
        x = direction * scale * draw(st.sampled_from(factors))
    return x


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["scan", "analyze"]), desc=catalog_descriptors(),
       data=st.data())
def test_fuzz_scan_and_analyze(tmp_path, command, desc, data):
    # the kernel commands on drawn surfaces, points, steps and grids of at most 9
    # nodes per axis: an exit code and its output, never a traceback or a warning
    args = [command]
    grid_spec = None
    if command == "scan":
        grid_spec = data.draw(grid_specs(desc["n"], most=9).filter(bool))
        args += ["--grid", grid_spec]
    else:
        x = data.draw(analyze_points(desc))
        args += ["--point", ",".join(map(repr, x.tolist()))]
        step = data.draw(st.sampled_from([None] * 8 + FUZZ_STEPS))
        if step is not None:
            args += ["--step", step]
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(desc))
    args[1:1] = ["--surface", str(surface)]
    result = CliRunner().invoke(main, args)
    assert_exit_contract(result, (args, desc), has_huge_nodes(grid_spec))
    if result.exit_code == 0 and command == "analyze":
        assert set(nan_keys(json.loads(result.stdout))) == set()
    elif result.exit_code == 0:
        n = desc["n"]
        assert result.stdout.startswith(",".join(f"x{i + 1}" for i in range(n)) + ",f,H,")


#: --p values outside the solver's range: below 2, non-finite or not a number
BAD_P = ["1.5", "nan", "inf", "x"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["solve", "probe"]), desc=catalog_descriptors(),
       data=st.data(),
       p=st.one_of(st.none(), st.floats(2.0, 6.0).map(repr), st.sampled_from(BAD_P)))
def test_fuzz_solve_and_probe(tmp_path, command, desc, data, p):
    # the solver commands on drawn surfaces, exponents and grids of at most 9 nodes per
    # axis: an exit code and its output, never a traceback or a warning
    grid_spec = data.draw(grid_specs(desc["n"], most=9).filter(bool))
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps(desc))
    args = [command, "--surface", str(surface), "--grid", grid_spec]
    if p is not None:
        args += ["--p", p]
    if command == "solve" and data.draw(st.booleans()):
        args += ["--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, args)
    assert_exit_contract(result, (args, desc), has_huge_nodes(grid_spec))
    if p in BAD_P:
        assert result.exit_code == 2
    elif result.exit_code == 0:
        doc = json.loads(result.stdout)
        assert set(nan_keys(doc)) == set()
        assert doc["stop_reason"] in {"stalled", "zero_gradient", "line_search_exhausted",
                                      "max_iterations"}


#: each command's options, in the order its --help lists them
OPTIONS = {
    "analyze": ["--surface", "--point", "--step", "--out"],
    "scan": ["--surface", "--grid", "--out"],
    "classify": ["--surface", "--levels", "--grid", "--samples", "--seed",
                 "--tolerance-profile", "--out"],
    "solve": ["--surface", "--grid", "--p", "--out"],
    "probe": ["--surface", "--grid", "--p", "--out"],
    "boundary": ["--surface", "--levels", "--grid", "--out"],
    "verify": ["--suite", "--seed", "--out"],
}


def test_command_option_names_in_order():
    got = {name: [opt for param in cmd.params for opt in param.opts]
           for name, cmd in main.commands.items()}
    assert got == OPTIONS


@pytest.fixture()
def excised_grid(tmp_path):
    """A 7^3 sampled horosphere whose centre node is excised (-inf)."""
    rows = ["value,boundary"]
    for i in range(7 ** 3):
        idx = np.unravel_index(i, (7, 7, 7))
        face = any(k in (0, 6) for k in idx)
        centre = all(k == 3 for k in idx)
        rows.append(f"{'-inf' if centre else 1.0},{int(face or centre)}")
    (tmp_path / "grid.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "grid.header.json").write_text(json.dumps(
        {"dims": [7, 7, 7], "spacing": 0.5, "origin": [-1.5, -1.5, -1.5]}))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"kind": "sampled_grid", "values_csv": "grid.csv",
                                "header_json": "grid.header.json"}))
    return str(path)


def test_sampled_apex_cone_boundary_and_probe(runner, tmp_path):
    # a slope-1 cone sampled over [-1, 1]^3 at spacing 0.05, its apex sample excised:
    # lattice nodes whose interpolation window holds the apex are excised as well
    cone = heightfield.make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
    sampled = heightfield.SampledGridField.from_field(cone, [-1.0] * 3, [1.0] * 3, 0.05)
    save_grid_function(sampled.grid, tmp_path / "g.csv", tmp_path / "g.json")
    surface = tmp_path / "surface.json"
    surface.write_text(json.dumps({"kind": "sampled_grid", "values_csv": "g.csv",
                                   "header_json": "g.json"}))
    result = runner.invoke(main, ["boundary", "--surface", str(surface)])
    assert result.exit_code == 0, result.stderr
    result = runner.invoke(main, ["probe", "--surface", str(surface),
                                  "--grid", "-0.5,-0.5,-0.5:0.5,0.5,0.5:21"])
    assert result.exit_code == 0, result.stderr
    doc = json.loads(result.output)
    assert (doc["excised_nodes"], doc["held_nodes"]) == (125, 343)


OUTSIDE = "1,1,1:3,3,3:9"


@pytest.mark.parametrize("args", [
    ["scan", "--grid", "-0.5,-0.5,-0.5:0.5,0.5,0.5:3"],
    ["classify", "--grid", OUTSIDE],
    ["solve", "--grid", OUTSIDE],
    ["probe", "--grid", OUTSIDE],
    ["boundary", "--grid", OUTSIDE],
], ids=lambda args: args[0])
def test_library_error_exits_1_with_error_json(runner, surfaces, excised_grid, args):
    surface = excised_grid if args[0] == "scan" else surfaces["cone"]
    result = runner.invoke(main, [args[0], "--surface", surface] + args[1:])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]


@pytest.mark.parametrize("args", [["boundary", "--levels", "1,2"], ["classify"], ["solve"],
                                  ["probe"], ["scan"]], ids=lambda args: args[0])
def test_lattice_over_node_budget_exits_1_with_error_json(runner, surfaces, args):
    # 10^15 nodes: refused by the node budget before any node array is allocated, also
    # for the point grid that scan builds itself
    result = runner.invoke(main, [args[0], "--surface", surfaces["cone"], *args[1:],
                                  "--grid", "-0.5,-0.5,-0.5:0.5,0.5,0.5:100000"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "error": f"lattice of {10 ** 15} nodes (100000, 100000, 100000) exceeds the "
                 f"budget of {heightfield.MAX_LATTICE_NODES} nodes"}


@pytest.mark.parametrize("args", [
    ["analyze", "--point", "1,0,0"], ["scan", "--grid", "0.5,-0.2,-0.2:1.5,0.2,0.2:3"],
    ["analyze", "--point", "9,0,0"], ["verify", "--suite", "horosphere-identity"]],
    ids=["analyze", "scan", "error", "verify"])
def test_in_process_calls_release_redirected_streams(surfaces, args):
    # a caller running the CLI in-process, as the benchmark does, gets its streams back
    out, err = io.StringIO(), io.StringIO()
    refs = weakref.ref(out), weakref.ref(err)
    if args[0] != "verify":
        args = [args[0], "--surface", surfaces["cone"]] + args[1:]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="hypcurv", standalone_mode=False)
        except SystemExit:
            pass
    assert out.getvalue() or err.getvalue()
    del out, err
    gc.collect()
    assert [r() for r in refs] == [None, None]


class TestVerify:
    def test_single_criterion(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "horosphere-identity",
                                      "--seed", "7"])
        assert result.exit_code == 0
        assert "[PASS] horosphere-identity" in result.output

    def test_out_writes_report(self, runner, tmp_path):
        out = tmp_path / "verify"
        result = runner.invoke(main, ["verify", "--suite", "horosphere-identity",
                                      "--seed", "7", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert list(doc) == ["manifest", "passed", "criteria"]
        assert doc["manifest"]["command"] == "verify"
        assert doc["manifest"]["config"] == {"suite": "horosphere-identity"}
        assert doc["manifest"]["seed"] == 7
        assert doc["passed"] is True
        [criterion] = doc["criteria"]
        assert list(criterion) == ["name", "passed", "detail", "elapsed"]
        assert criterion["name"] == "horosphere-identity" and criterion["passed"] is True

    def test_unknown_criterion(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "not-a-criterion"])
        assert result.exit_code == 2

    def test_failure_exits_nonzero(self, runner, monkeypatch):
        from hypcurv import acceptance as acc

        def failing(seed):
            return acc.CriterionResult("horosphere-identity", False, "forced", 0.0)

        monkeypatch.setitem(acc.CRITERIA, "horosphere-identity", failing)
        result = runner.invoke(main, ["verify", "--suite", "horosphere-identity"])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output


#: values that %.17g and format_float spell apart, or at the ends of the double range
ODD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
              2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 1e-300, 1e300, 1e16, 1e17, 0.1]


class TestReportIO:
    def test_float_17_digits(self):
        text = dumps({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_numpy_values(self):
        text = dumps({"a": np.float64(2.5), "b": np.arange(3), "c": np.bool_(True)})
        doc = json.loads(text)
        assert doc == {"a": 2.5, "b": [0, 1, 2], "c": True}

    def test_special_floats(self):
        text = dumps({"x": float("-inf"), "y": float("nan")})
        doc = json.loads(text)
        assert doc["x"] == -float("inf")
        assert doc["y"] != doc["y"]

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.one_of(st.floats(), st.integers(), st.booleans(), st.text(),
                  st.floats().map(np.float64), st.floats(width=32).map(np.float32),
                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                  st.booleans().map(np.bool_)),
        lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids),
        max_leaves=20))
    @example({"z": -0.0})
    def test_json_round_trip(self, obj):
        assert_round_trip(json.loads(dumps(obj)), obj)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.one_of(st.integers(), st.booleans(), st.none(), st.text()),
        lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids), max_leaves=20))
    def test_json_layout_is_the_standard_encoders(self, obj):
        # without floats, the writer's bytes are those of json.dumps at indent 2
        assert dumps(obj) == json.dumps(obj, indent=2) + "\n"

    def test_csv_rows_empty(self):
        assert csv_rows(np.empty((0, 3))) == ""
        assert csv_rows(np.empty((0, 13)), {13: np.empty(0, dtype=object)}) == ""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(st.tuples(
        st.integers(), st.lists(st.floats() | st.sampled_from(ODD_FLOATS), min_size=k,
                                max_size=k),
        st.sampled_from(["NotConvex", "Horoconvex", "nan", "inf", "-0", "x-0"])),
        min_size=1, max_size=8)))
    @example([(0, [-0.0, 0.0, math.nan], "NonnegRicci")])
    def test_csv_rows_spell_floats_as_format_float(self, rows):
        assert_csv_rows_spelling([[i, *floats, text] for i, floats, text in rows])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from(ODD_FLOATS), min_size=1, max_size=4)
           .flatmap(lambda pool: st.integers(1, 6).flatmap(lambda k: st.lists(
               st.lists(st.sampled_from(pool), min_size=k, max_size=k),
               min_size=1, max_size=40))))
    def test_csv_rows_spell_pooled_floats_as_format_float(self, rows):
        # a few values repeat across rows and columns, as in a catalog scan
        assert_csv_rows_spelling([[i, *floats, "NotConvex"] for i, floats in enumerate(rows)])

    def test_csv_rows_keep_negative_zero_apart_from_zero(self):
        rows = [[0.0, 1.5], [-0.0, 1.5], [0.0, -0.0]]
        assert csv_rows(np.array(rows)) == "0,1.5\n-0.0,1.5\n0,-0.0\n"

    def test_csv_rows_spell_nan_payloads_alike(self):
        quiet, payload, negative = NAN_PAYLOADS
        rows = [[quiet, payload, 2.0], [payload, negative, 2.0], [negative, quiet, 2.0]]
        assert csv_rows(np.array(rows)) == "NaN,NaN,2\n" * 3

    def test_csv_rows_text_column_beside_odd_floats(self):
        quiet, payload, negative = NAN_PAYLOADS
        block = np.array([[-0.0, payload, math.inf], [0.0, negative, -math.inf],
                          [-0.0, quiet, 1.5]])
        names = np.array(["NotConvex", "-0.0", "NaN"], dtype=object)
        assert csv_rows(block, {1: names}) == (
            "-0.0,NotConvex,NaN,Infinity\n0,-0.0,NaN,-Infinity\n-0.0,NaN,NaN,1.5\n")
        assert csv_rows(block, {0: range(3), 4: names}) == (
            "0,-0.0,NaN,Infinity,NotConvex\n1,0,NaN,-Infinity,-0.0\n"
            "2,-0.0,NaN,1.5,NaN\n")

    @pytest.mark.parametrize("odd", [None, -0.0, math.inf])
    def test_csv_rows_all_distinct(self, odd):
        rows = np.random.default_rng(5).standard_normal((343, 13)).tolist()
        if odd is not None:
            rows[100][7] = odd
        assert_csv_rows_spelling([[i, *row, "NotConvex"] for i, row in enumerate(rows)])


#: a quiet NaN, one with a payload and a negative one, which format_float spells alike
NAN_PAYLOADS = tuple(struct.unpack("<d", struct.pack("<Q", bits))[0]
                     for bits in (0x7FF8000000000000, 0x7FF8000000000001,
                                  0xFFF8000000000000))


def assert_csv_rows_spelling(rows):
    """``csv_rows`` spells ``rows``, each ``[int, float, .., float, str]``, given as their
    float block with the int and str columns beside it, and the float block alone, as
    format_float and str do, one value at a time."""
    block = np.array([row[1:-1] for row in rows], dtype=np.float64)
    text = {0: [row[0] for row in rows], block.shape[1] + 1: [row[-1] for row in rows]}
    want = "".join(f"{row[0]},{','.join(map(format_float, row[1:-1]))},{row[-1]}\n"
                   for row in rows)
    assert csv_rows(block, text) == want
    assert csv_rows(block) == "".join(
        ",".join(map(format_float, row[1:-1])) + "\n" for row in rows)


def assert_round_trip(got, sent):
    """``got`` is ``sent`` read back: the same nesting, keys, strings, bools and ints,
    floats bitwise (integral ones may read back as ints), any NaN as a NaN."""
    if isinstance(sent, np.generic):
        sent = sent.item()
    if isinstance(sent, dict):
        assert isinstance(got, dict) and list(got) == list(sent)
        for key in sent:
            assert_round_trip(got[key], sent[key])
    elif isinstance(sent, list):
        assert isinstance(got, list) and len(got) == len(sent)
        for g, s in zip(got, sent):
            assert_round_trip(g, s)
    elif isinstance(sent, float):
        assert type(got) in (int, float)
        if math.isnan(sent):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", float(got)) == struct.pack("<d", sent)
    else:
        assert type(got) is type(sent) and got == sent
