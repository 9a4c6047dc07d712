"""Tests of the benchmark itself: every output check rejects a wrong answer, and the
command runs every workload end to end.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
from checks import CheckFailure, Surface

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from hypcurv import cli  # noqa: E402
from workloads import Builder, grid_spec  # noqa: E402

CONE = Surface("equidistant_cone", 3, {"slope": 1.3})
CAP = Surface("geodesic_sphere_cap", 3, {"center_height": 2.1, "euclidean_radius": 1.05})
HORO = Surface("horosphere", 3, {"c": 0.9})
PLANE = Surface("tilted_plane", 3, {"slope": 0.7})


@pytest.fixture(scope="module")
def run_cli(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    builder = Builder(cli, None, None, 5, str(work))

    def call(command, surface, *args):
        path = work / f"{surface.kind}.json"
        path.write_text(json.dumps(surface.descriptor()))
        return builder.run_cli(command, "--surface", str(path), *args)

    return call


def rejects(check, *args):
    with pytest.raises(CheckFailure):
        check(*args)


# -- scan -----------------------------------------------------------------------------------

@pytest.mark.parametrize("surface,lo", [(CONE, (0.5, -0.5, -0.5)), (CAP, (-0.2,) * 3),
                                        (HORO, (-1.0,) * 3), (PLANE, (1.0, -0.5, -0.5))])
def test_scan_rows_match_closed_forms_and_reject_wrong_ones(run_cli, surface, lo):
    lo = np.asarray(lo)
    text = run_cli("scan", surface, "--grid", grid_spec(lo, lo + 0.4, 3))
    rows = checks.parse_scan_csv(text, 3)
    checks.check_catalog_rows(rows, surface, 27)
    rejects(checks.check_catalog_rows, rows, surface, 28)
    for key, bad in (("kappas", lambda k: k * (1 + 1e-6)), ("f", lambda v: v + 1e-6),
                     ("density", lambda v: v - 1e-3), ("A", lambda v: v + 1e-6),
                     ("min_ric", lambda v: v + 1e-4), ("regime", lambda v: "NotConvex")):
        wrong = copy.deepcopy(rows)
        wrong[13][key] = bad(wrong[13][key])
        rejects(checks.check_catalog_rows, wrong, surface, 27)
    other = Surface(surface.kind, 3, {k: v * 1.01 if isinstance(v, float) else v
                                      for k, v in surface.params.items()})
    rejects(checks.check_catalog_rows, rows, other, 27)


def test_sampled_identities_and_order():
    row = {"x": np.zeros(3), "kappas": CONE.kappas() + 1e-4, "A": 0.0, "B": 0.0}
    row["H"] = row["kappas"].sum()
    row["A"], row["B"] = 0.5 * row["H"], 0.5 * row["H"]
    row["ab_defect"] = row["A"] * row["B"] - 2
    k = row["kappas"]
    row["min_ric"] = float(np.min(-2 + k * row["H"] - k * k))
    assert checks.sampled_kappa_error([row], CONE, 1) == pytest.approx(1e-4)
    rejects(checks.sampled_kappa_error, [dict(row, H=row["H"] + 1e-5)], CONE, 1)
    rejects(checks.sampled_kappa_error, [dict(row, kappas=k + 0.1)], CONE, 1)
    checks.check_sampled_order(8e-4, 1e-4, "third order")
    rejects(checks.check_sampled_order, 2e-4, 1e-4, "first order")


# -- analyze --------------------------------------------------------------------------------

def test_analyze_checks_reject_wrong_answers(run_cli):
    doc = json.loads(run_cli("analyze", CONE, "--point", "0.9,0.3,-0.2"))
    checks.check_analyze(doc, CONE)
    for path, value in ((("kappas", 0), doc["kappas"][0] * (1 + 1e-6)),
                        (("residuals", "gauss"), 2e-4), (("regime",), "NonnegRicci"),
                        (("density",), 1e-6), (("ricci_eigs", 0), 1e-5)):
        wrong = copy.deepcopy(doc)
        target = wrong
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        rejects(checks.check_analyze, wrong, CONE)


# -- classify -------------------------------------------------------------------------------

@pytest.mark.parametrize("surface,half", [(CONE, 0.5), (HORO, 0.5), (CAP, 0.3)])
def test_classify_checks_reject_wrong_answers(run_cli, surface, half):
    spacing = 2 * half / 32
    doc = json.loads(run_cli("classify", surface, "--grid",
                             grid_spec(-half * np.ones(3), half * np.ones(3), 33),
                             "--samples", "20"))
    checks.check_classify(doc, surface, spacing)
    flips = {"EquidistantTube": "Inconclusive", "Horosphere": "EquidistantTube",
             "Inconclusive": "Horosphere"}
    for key, value in (("verdict", flips[doc["verdict"]]), ("boundary_points", 3),
                       ("kappa0", doc["kappa0"] + 1e-6),
                       ("kappa_transverse", doc["kappa_transverse"] * 0.99)):
        rejects(checks.check_classify, dict(doc, **{key: value}), surface, spacing)
    if surface is CONE:
        wrong = copy.deepcopy(doc)
        wrong["recession"]["components"][1]["max_diameter"] += 5 * spacing
        rejects(checks.check_classify, wrong, surface, spacing)


# -- dirichlet ------------------------------------------------------------------------------

def test_solution_checks_reject_shifted_or_slow_solutions():
    exact = np.log(np.linspace(1.0, 2.0, 9))
    h = 1.0 / 16
    assert checks.fundamental_error(exact + 1e-4, exact, h, "close") == pytest.approx(1e-4)
    rejects(checks.fundamental_error, exact + 0.01, exact, h, "shifted")
    checks.check_ladder({17: 1.4e-3, 25: 6.0e-4, 33: 3.4e-4})
    rejects(checks.check_ladder, {17: 1.4e-3, 25: 6.0e-4, 33: 1.1e-3})
    rejects(checks.check_ladder, {17: 1.4e-3, 25: 1.0e-3, 33: 8.0e-4})
    checks.check_monotone([3.0, 2.0, 2.0, 1.0], "flat steps allowed")
    rejects(checks.check_monotone, [3.0, 2.0, 2.1], "rising")


def test_probe_checks_reject_flipped_verdicts():
    h = 1.0 / 16
    good = {"subharmonic": True, "min_margin": -1e-4, "tolerance": 10 * h * h,
            "excised_nodes": 0, "spacing": h}
    checks.check_probe(good, CONE, h, 0)
    rejects(checks.check_probe, dict(good, subharmonic=False), CONE, h, 0)
    rejects(checks.check_probe, good, PLANE, h, 0)
    rejects(checks.check_probe, dict(good, min_margin=-1.0), CONE, h, 0)
    rejects(checks.check_probe, good, CONE, h, 1)
    rejects(checks.check_probe, dict(good, tolerance=0.5), CONE, h, 0)


def test_closed_forms_agree_with_each_other():
    for surface in (CONE, CAP, HORO, PLANE):
        k = surface.kappas()
        A, B = surface.factors()
        assert A + B == pytest.approx(k.sum())
        assert surface.ricci_eigs()[0] == pytest.approx(min(-2 + k * k.sum() - k * k))
    assert PLANE.factors()[0] * PLANE.factors()[1] - 2 == pytest.approx(-2 * 0.49 / 1.49)
    assert math.prod(CONE.factors()) == pytest.approx(2.0)


def test_unreadable_output_fails_its_check():
    import run
    from workloads import Op, Workload

    op = Op("classify", "missing key", lambda: {}, lambda doc: doc["verdict"])
    runner = run.Runner(Workload([], [op], [lambda results: results["missing key"]]))
    runner.round()
    assert len(runner.check_failures) == 1 and runner.failed == 0


# -- the command ------------------------------------------------------------------------------

@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
                           "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke"],
                          capture_output=True, text=True, timeout=900, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    for workload in spec["workloads"]:
        for metric in wanted:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            if trace == "0":
                assert got["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
