"""End-to-end command tests: golden reports, exit codes, JSON stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import curvepencils
from curvepencils import cli as cli_module
from curvepencils.catalog import build_catalog
from curvepencils.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden reports

GOLDEN_CASES = [
    ("validate_deletedB3.txt", ["validate", "deletedB3.json"]),
    ("tf_deletedB3.txt", ["tf", "deletedB3.json", "--pencil", "fW.json"]),
    ("tf_a2.txt", ["tf", "a2.json", "--pencil", "a2pencil.json"]),
    ("tf_a3.txt", ["tf", "a3.json", "--pencil", "a3pencil.json"]),
    ("tf_exfin3.txt", ["tf", "exfin3.json", "--pencil", "exfin3pencil.json"]),
    ("check_b3.txt", ["check", "b3.json", "--pencil", "b3pencil.json"]),
    ("check_ceva2.txt", ["check", "ceva2.json", "--pencil", "ceva2pencil.json"]),
    (
        "check_ceva3.txt",
        ["check", "ceva3.json", "--pencil", "ceva3pencil.json",
         "--clusters", "3,3,3,3,3,3,3,3,3"],
    ),
    (
        "check_ex2.txt",
        ["check", "ex2.json", "--pencil", "ex2pencil.json", "--clusters", "3,3,3,3"],
    ),
    ("classify_ex2.txt", ["classify", "ex2.json", "--pencil", "ex2pencil.json"]),
    ("catalog_triangle.txt", ["catalog", "triangle.json"]),
    ("catalog_ex2.txt", ["catalog", "ex2.json"]),
    ("reconstruct_ceva2.txt", ["reconstruct", "ceva2.json", "--subspace", "ceva2subspace.json"]),
    (
        "ray_deletedB3.txt",
        ["ray", "deletedB3.json", "--exponents", "1,-1,-1,1,2,0,-2,0", "--tf"],
    ),
    ("catalog_ex2.json", ["catalog", "ex2.json", "--json"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_report(capsys, golden, argv):
    argv = [str(FIXTURES / a) if a.endswith(".json") and "=" not in a else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "rescale",
    [
        lambda basis: [[str(Fraction(e) / 2) for e in basis[0]], basis[1]],
        lambda basis: [basis[0], [str(3 * Fraction(e)) for e in basis[1]]],
        lambda basis: [*basis, ["0"] * len(basis[0])],
    ],
    ids=["halved", "tripled", "zero-row"],
)
def test_reconstruct_reads_a_basis_up_to_scale(capsys, tmp_path, rescale):
    # rational rows become primitive integer rows, which span the same subspace
    basis = json.loads((FIXTURES / "ceva2subspace.json").read_text())["basis"]
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"basis": rescale(basis)}))
    code, out, err = run(capsys, "reconstruct", FIXTURES / "ceva2.json", "--subspace", path)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "reconstruct_ceva2.txt").read_text()


def test_main_twice_in_one_process(capsys, monkeypatch):
    # the parser is built once per process; one run's options must not reach the next
    caps = []

    def recording(arr, **kwargs):
        caps.append(kwargs)
        return build_catalog(arr, **kwargs)

    monkeypatch.setattr(cli_module, "build_catalog", recording)
    ex2 = FIXTURES / "ex2.json"
    code, _, _ = run(capsys, "catalog", ex2, "--max-mult", "3", "--strict")
    assert code == 0
    code, out, err = run(capsys, "catalog", ex2)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "catalog_ex2.txt").read_text()
    assert caps == [
        {"max_multiplicity": 3, "max_blocks": 3},
        {"max_multiplicity": 2, "max_blocks": 3},
    ]
    assert not cli_module._build_parser().parse_args(["catalog", str(ex2)]).strict


def test_json_reports_are_stable(capsys):
    code1, out1, _ = run(capsys, "catalog", FIXTURES / "ex2.json", "--json")
    code2, out2, _ = run(capsys, "catalog", FIXTURES / "ex2.json", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out1


def test_tf_json_document(capsys):
    code, out, _ = run(
        capsys, "tf", FIXTURES / "deletedB3.json", "--pencil", FIXTURES / "fW.json", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "Z/2"
    assert doc["invariant_factors"] == [2]
    assert doc["characters"][0]["rho"] == ["1", "-1", "-1", "1", "1", "-1", "1", "-1"]
    assert doc["subtorus"] == ["t", "t^-1", "t^-1", "t", "t^2", "1", "t^-2", "1"]
    assert doc["conditional"] is False


# ---------------------------------------------------------------------------
# parse failures (exit 2)


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "validate", tmp_path / "nope.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse: ")


def test_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert err.startswith("error: parse: ")


def test_inhomogeneous_component(capsys, tmp_path):
    doc = {"components": [{"label": "L1", "poly": "x + y^2"}]}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "not homogeneous" in err


def test_duplicate_labels(capsys, tmp_path):
    doc = {"components": [{"label": "L1", "poly": "x"}, {"label": "L1", "poly": "y"}]}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "labels must be unique" in err


@pytest.mark.parametrize("key", ["infinty", "extra_points"])
def test_unknown_arrangement_key(capsys, tmp_path, key):
    # a misspelt "infinity" or the retired "extra_points" must not parse silently
    doc = {"components": [{"label": "L1", "poly": "x"}], key: "L1"}
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse: ")
    assert repr(key) in err


def test_unknown_block_label(capsys, tmp_path):
    blocks = {
        "blocks": [
            {"members": ["T1", "T9"], "multiplicities": [1, 1]},
            {"members": ["T2", "T3"], "multiplicities": [1, 1]},
        ]
    }
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(blocks))
    code, _, err = run(capsys, "tf", FIXTURES / "triangle.json", "--pencil", path)
    assert code == 2
    assert "unknown component label 'T9'" in err


def test_third_block_outside_the_pencil(capsys, tmp_path):
    for third, fragment in [
        ({"members": ["T3"], "multiplicities": [5]}, "block 3 has degree 5"),
        ({"members": ["T3"], "multiplicities": [1]}, "block 3 is not a fiber"),
    ]:
        doc = {
            "blocks": [
                {"members": ["T1"], "multiplicities": [1]},
                {"members": ["T2"], "multiplicities": [1]},
                third,
            ]
        }
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", FIXTURES / "triangle.json", "--pencil", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: parse: ") and fragment in err


def test_degenerate_pencil_generators(capsys, tmp_path):
    for doc, fragment in [
        ({"P": "x*y", "Q": "2*x*y"}, "proportional generators"),
        ({"P": "x*y", "Q": "z"}, "degrees 2 and 1"),
        ({"P": 5, "Q": "y"}, "polynomial 5 is not a string"),
    ]:
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "classify", FIXTURES / "triangle.json", "--pencil", path)
        assert code == 2
        assert fragment in err


def test_classify_reads_a_rational_pencil_file(capsys, tmp_path):
    # a P/Q file may carry Fractions; one common integer clears them, so the
    # report is that of the cleared multiple, parameters and all
    outs = []
    for doc in [
        {"P": "1/2*x^2*y^2 - 1/2*x^2*z^2", "Q": "1/3*x^2*y^2 - 1/3*y^2*z^2"},
        {"P": "3*x^2*y^2 - 3*x^2*z^2", "Q": "2*x^2*y^2 - 2*y^2*z^2"},
    ]:
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(doc))
        for flags in ([], ["--json"]):
            code, out, err = run(
                capsys, "classify", FIXTURES / "exfin3.json", "--pencil", path, *flags
            )
            assert code == 0 and err == ""
            outs.append(out)
    assert outs[:2] == outs[2:]


@pytest.mark.parametrize("doc", [5, None, "P and Q"], ids=["number", "null", "string"])
def test_pencil_file_not_an_object(capsys, tmp_path, doc):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", FIXTURES / "triangle.json", "--pencil", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse: ") and "must hold a JSON object" in err


@pytest.mark.parametrize(
    "block,fragment",
    [
        ({"members": ["T1"], "multiplicities": ["two"]}, "multiplicity 'two' is not an integer"),
        ({"members": ["T1"], "multiplicities": [1.5]}, "multiplicity 1.5 is not an integer"),
        ({"members": ["T1"], "multiplicities": 1}, "must be lists"),
        ({"members": {"T1": 1}, "multiplicities": [1]}, "must be lists"),
        ({"members": 7, "multiplicities": [1]}, "must be lists"),
    ],
)
def test_malformed_pencil_block(capsys, tmp_path, block, fragment):
    doc = {"blocks": [block, {"members": ["T2"], "multiplicities": [1]}]}
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", FIXTURES / "triangle.json", "--pencil", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse: ") and fragment in err


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"components": 5}, "needs a 'components' list"),
        ({"components": [{"label": "L1", "poly": 5}]}, "polynomial 5 is not a string"),
    ],
    ids=["components-not-a-list", "poly-not-a-string"],
)
def test_malformed_arrangement_document(capsys, tmp_path, doc, fragment):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse: ") and fragment in err


@pytest.mark.parametrize("entry", ["x", "1/0"])
def test_exponent_not_rational(capsys, entry):
    code, out, err = run(capsys, "ray", FIXTURES / "triangle.json", "--exponents", f"{entry},1,-2")
    assert code == 2
    assert out == ""
    assert err == "error: parse: --exponents needs comma-separated rationals\n"


def test_exponent_length_mismatch(capsys):
    code, _, err = run(capsys, "ray", FIXTURES / "triangle.json", "--exponents", "1,-1")
    assert code == 2
    assert "needs 3 entries, got 2" in err


def test_subspace_row_length(capsys, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"basis": [["1", "-1"]]}))
    code, _, err = run(capsys, "reconstruct", FIXTURES / "ceva2.json", "--subspace", path)
    assert code == 2
    assert "basis rows need 6 entries" in err


def test_missing_required_option():
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(FIXTURES / "triangle.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--clusters", "0,3,3,3"], ["--clusters=-3,3,3,3"]])
def test_cluster_multiplicity_below_one(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(FIXTURES / "ex2.json"),
              "--pencil", str(FIXTURES / "ex2pencil.json"), *flag])
    assert exc.value.code == 2
    assert "cluster multiplicities must be >= 1" in capsys.readouterr().err


def test_python_dash_m_runs_the_command_line():
    src = str(Path(curvepencils.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "curvepencils", "validate", str(FIXTURES / "deletedB3.json")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / "validate_deletedB3.txt").read_text()


def test_closed_stdout_exits_quietly():
    # stdout is a pipe whose read end is closed before the report is written
    src = str(Path(curvepencils.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curvepencils", "catalog", str(FIXTURES / "deletedB3.json"),
             "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, check=False,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli_module.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# invariant violations (exit 3)


def test_positive_self_intersection_fails(capsys):
    code, out, err = run(
        capsys,
        "check", FIXTURES / "ex2.json", "--pencil", FIXTURES / "ex2pencil.json",
        "--clusters", "1,1",
    )
    assert code == 3
    assert err == "error: invariant: self-intersection = 23 > 0\n"
    # the full report still lands on stdout before the error line
    assert "self-intersection = 23 (> 0: FAIL)" in out
    assert "(i) base multiplicity constant per point: OK" in out


def test_ray_degree_pairing(capsys):
    code, _, err = run(capsys, "ray", FIXTURES / "triangle.json", "--exponents", "1,1,1")
    assert code == 3
    assert "do not pair to zero" in err


def test_subspace_degree_pairing(capsys, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"basis": [["1", "0", "0", "0", "0", "0"]]}))
    code, _, err = run(capsys, "reconstruct", FIXTURES / "ceva2.json", "--subspace", path)
    assert code == 3
    assert "does not pair to zero" in err


# ---------------------------------------------------------------------------
# computation failures (exit 4)


def test_common_factor_pencil(capsys, tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"P": "x*y", "Q": "x*z"}))
    code, _, err = run(capsys, "classify", FIXTURES / "triangle.json", "--pencil", path)
    assert code == 4
    assert err == "error: computation: degenerate pencil: common factor 'T1' in both generators\n"


@pytest.mark.parametrize(
    "flag,value,parameter",
    [("--max-blocks", "2", "max_blocks"), ("--max-mult", "0", "max_multiplicity")],
)
def test_catalog_caps_that_empty_the_global_stage(capsys, flag, value, parameter):
    code, out, err = run(capsys, "catalog", FIXTURES / "ceva2.json", flag, value)
    assert code == 4
    assert out == ""
    assert err.startswith("error: computation: ") and parameter in err


def reducible_arrangement(tmp_path) -> Path:
    doc = {
        "components": [
            {"label": "X", "poly": "x"},
            {"label": "Y", "poly": "y"},
            {"label": "XY", "poly": "x*y"},
            {"label": "Z", "poly": "z"},
        ],
        "infinity": "Z",
    }
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    return path


def test_catalog_rejects_reducible_component(capsys, tmp_path):
    code, out, err = run(capsys, "catalog", reducible_arrangement(tmp_path))
    assert code == 4
    assert out == ""
    assert err.startswith("error: computation: ") and "'XY' has linear factor" in err


def test_validate_rejects_reducible_component(capsys, tmp_path):
    path = reducible_arrangement(tmp_path)
    code, out, err = run(capsys, "validate", path)
    assert code == 4
    assert out == ""
    assert err == run(capsys, "catalog", path)[2]


# ---------------------------------------------------------------------------
# conditional results (exit 5)


@pytest.fixture()
def irrational_special_fibers(tmp_path):
    """Cubic pencil with conjugate double-line fibers at c = +-sqrt(2).

    The fibers (x -+ sqrt(2)y)^2 (z +- sqrt(2)y) are non-reduced, so the
    discriminant sweep keeps an irrational quadratic factor and the special
    fiber list stays conditional.  Not a corpus example, hence built here
    instead of living under fixtures/.
    """
    arr = tmp_path / "arr.json"
    arr.write_text(
        json.dumps(
            {
                "components": [
                    {"label": "L1", "poly": "x"},
                    {"label": "L2", "poly": "y"},
                    {"label": "C", "poly": "x^2 - 2*x*z + 2*y^2"},
                    {"label": "D", "poly": "x^2*z - 4*x*y^2 + 2*y^2*z"},
                ],
                "infinity": "L1",
            }
        )
    )
    pencil = tmp_path / "pencil.json"
    pencil.write_text(
        json.dumps({"P": "x^2*y - 2*x*y*z + 2*y^3", "Q": "-x^2*z + 4*x*y^2 - 2*y^2*z"})
    )
    return arr, pencil


def test_conditional_report_without_strict(capsys, irrational_special_fibers):
    arr, pencil = irrational_special_fibers
    code, out, err = run(capsys, "tf", arr, "--pencil", pencil)
    assert code == 0
    assert err == ""
    assert "conditional: special fiber parameters may be irrational" in out
    assert "warning: discriminant keeps a degree-2 factor" in out


def test_conditional_strict_classify(capsys, irrational_special_fibers):
    arr, pencil = irrational_special_fibers
    code, _, err = run(capsys, "classify", arr, "--pencil", pencil, "--strict")
    assert code == 5
    assert err == "error: conditional: special fiber list is conditional\n"


def test_conditional_strict_tf(capsys, irrational_special_fibers):
    arr, pencil = irrational_special_fibers
    code, _, err = run(capsys, "tf", arr, "--pencil", pencil, "--strict")
    assert code == 5
    assert err == "error: conditional: T(f) result is conditional\n"
