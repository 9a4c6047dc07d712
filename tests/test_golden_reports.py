"""CLI reports against committed golden files.

Each ``tests/data/golden/<case>.json`` holds one `classify` or `boundary` report
without its manifest, as ``reportio.dumps`` writes it. The files were made by the
per-sample and per-label implementation that the batched sampling, sublevel and
clustering passes replaced; the payloads must stay byte for byte the same.

Each ``tests/data/golden/<case>/`` directory holds the whole output of one
`analyze`, `probe`, `solve`, `scan`, `classify` or `boundary` run with ``--out``,
manifest included: the files it writes, the first of which is also what it prints.

Regenerate only for an intended change of output: ``python tests/test_golden_reports.py``.
"""

import json
import pathlib

import pytest
from click.testing import CliRunner

from hypcurv.cli import main
from hypcurv.reportio import dumps

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

SURFACES = {
    "cone": {"kind": "equidistant_cone", "n": 3, "slope": 1.8},
    "cone_unit": {"kind": "equidistant_cone", "n": 3, "slope": 1.0, "mask_radius": 1e-3},
    "cone4": {"kind": "equidistant_cone", "n": 4, "slope": 1.2},
    "cone12": {"kind": "equidistant_cone", "n": 3, "slope": 1.2},
    "horosphere": {"kind": "horosphere", "n": 3, "c": 1.3},
    "cap": {"kind": "geodesic_sphere_cap", "n": 3, "center_height": 2.0,
            "euclidean_radius": 1.0},
}
WINDOW_65 = ["--grid", "-0.5,-0.5,-0.5:0.5,0.5,0.5:65"]
#: case name -> (surface, CLI arguments after --surface)
CASES = {
    "classify_cone": ("cone", ["classify", *WINDOW_65, "--samples", "400", "--seed", "41"]),
    "classify_cone_default": ("cone_unit", ["classify", "--seed", "7"]),
    "classify_cone_strict": ("cone_unit", ["classify", "--levels", "0.5,1.5,2.5",
                                           "--grid", "-1,-0.5,-0.5:0,0.5,0.5:33",
                                           "--samples", "150", "--seed", "3",
                                           "--tolerance-profile", "strict"]),
    "classify_cone4": ("cone4", ["classify", "--grid", "-0.5,-0.5,-0.5,-0.5:0.5,0.5,0.5,0.5:17",
                                 "--samples", "200", "--seed", "5"]),
    "classify_horosphere": ("horosphere", ["classify", *WINDOW_65, "--samples", "400",
                                           "--seed", "42"]),
    "classify_cap": ("cap", ["classify", "--grid", "-0.3,-0.3,-0.3:0.3,0.3,0.3:65",
                             "--samples", "400", "--seed", "43"]),
    "boundary_cone": ("cone", ["boundary", *WINDOW_65]),
    "boundary_cone_offset": ("cone_unit", ["boundary", "--levels", "0.5,1,2,3",
                                           "--grid", "-0.2,-0.6,-0.4:0.8,0.4,0.6:41"]),
    "boundary_horosphere": ("horosphere", ["boundary"]),
    "boundary_cap": ("cap", ["boundary", "--grid", "-0.3,-0.3,-0.3:0.3,0.3,0.3:65"]),
}
BOX_9 = ["--grid", "0.5,-0.5,-0.5:1.5,0.5,0.5:9"]
#: case name -> (surface, CLI arguments after --surface, the files --out writes); the
#: command prints the first file
DOCUMENTS = {
    "analyze_cone": ("cone_unit", ["analyze", "--point", "0.7,0.2,-0.3"], ["analyze.json"]),
    "probe_cone": ("cone_unit", ["probe", *BOX_9], ["probe.json"]),
    "solve_cone": ("cone_unit", ["solve", *BOX_9, "--p", "3"],
                   ["solve.json", "energy_trace.csv", "solution.json", "solution.csv"]),
    # scan spaces each axis of the spec evenly: 0.5, 0.6 and 0.5 here
    "scan_cone": ("cone_unit", ["scan", "--grid", "0.5,-0.5,-0.5:1.5,0.7,0.5:3"],
                  ["scan.csv", "scan.manifest.json"]),
    # 343 and 625 rows whose curvature and coordinate columns repeat across rows
    "scan_cone7": ("cone12", ["scan", "--grid", "0.5,-0.5,-0.5:1.5,0.5,0.5:7"],
                   ["scan.csv", "scan.manifest.json"]),
    "scan_cone4": ("cone4", ["scan", "--grid", "0.5,-0.5,-0.5,-0.5:1.5,0.5,0.5,0.5:5"],
                   ["scan.csv", "scan.manifest.json"]),
    "classify_cone_out": ("cone_unit", ["classify", "--levels", "0.5,1,2",
                                        "--grid", "-0.5,-0.5,-0.5:0.5,0.5,0.5:17",
                                        "--samples", "20", "--seed", "3"],
                          ["classify.json"]),
    "boundary_cone_out": ("cone_unit", ["boundary", "--levels", "0.5,1,2,3",
                                        "--grid", "-0.2,-0.6,-0.4:0.8,0.4,0.6:21"],
                          ["boundary.json"]),
}


def invoke(tmp_dir, surface, args) -> str:
    """What the command prints for the named surface."""
    path = pathlib.Path(tmp_dir) / f"{surface}.json"
    path.write_text(json.dumps(SURFACES[surface]))
    result = CliRunner().invoke(main, [args[0], "--surface", str(path), *args[1:]])
    assert result.exit_code == 0, result.output
    return result.output


def run_case(tmp_dir, case) -> dict:
    """The case's report, parsed."""
    return json.loads(invoke(tmp_dir, *CASES[case]))


def run_document(tmp_dir, case) -> dict:
    """File name -> text of what the case's command writes with ``--out``."""
    surface, args, files = DOCUMENTS[case]
    out = pathlib.Path(tmp_dir) / "out"
    printed = invoke(tmp_dir, surface, [*args, "--out", str(out)])
    written = {name: (out / name).read_text() for name in files}
    assert printed == written[files[0]]
    return written


def report_payload(tmp_dir, case) -> str:
    """The case's report without its manifest, serialised as ``dumps`` writes it.

    ``dumps`` writes floats at 17 significant digits, so the parse and re-serialise
    round trip leaves every value's bits as the command printed them.
    """
    doc = run_case(tmp_dir, case)
    del doc["manifest"]
    return dumps(doc)


@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_matches_golden(tmp_path, case):
    assert report_payload(tmp_path, case) == (GOLDEN / f"{case}.json").read_text()


@pytest.mark.parametrize("case", sorted(DOCUMENTS))
def test_document_matches_golden(tmp_path, case):
    for name, text in run_document(tmp_path, case).items():
        assert text == (GOLDEN / case / name).read_text(), name


@pytest.mark.parametrize("case,dims", [("classify_cone4", [17] * 4),
                                       ("boundary_cone_offset", [41] * 3)])
def test_manifest_records_lattice_dims(tmp_path, case, dims):
    config = run_case(tmp_path, case)["manifest"]["config"]
    assert list(config)[-1] == "dims"
    assert config["dims"] == dims


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(report_payload(tmp, name))
    for name in sorted(DOCUMENTS):
        (GOLDEN / name).mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for file, text in run_document(tmp, name).items():
                (GOLDEN / name / file).write_text(text)
