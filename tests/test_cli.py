import json
import re

import pytest

from conftest import sc
from virab.classify import InfeasibilityCertificate, solve_candidate
from virab.cli import main
from virab.grammar import parse_bipoly
from virab.polynomials import BiPoly, format_bipoly
from virab.report import Report
from virab.repmod import GenericFamily, ModuleSpec, Op
from virab.scalars import ONE, ZERO


@pytest.fixture
def phi_spec_path(tmp_path):
    spec = ModuleSpec.phi(b=sc(1), lam=sc(2), alpha=sc(1), coeffs=())
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


def write_candidate(tmp_path, spec, a="0", window=4):
    fam = GenericFamily.from_spec(spec, window)
    doc = {
        "a": a,
        "b": json.loads(json.dumps(spec.to_dict()))["b"],
        "N": window,
        "a_m": {str(m): format_bipoly(p) for m, p in fam.a_m.items()},
        "g_m": {str(m): format_bipoly(p) for m, p in fam.g_m.items()},
    }
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_bracket_golden(capsys):
    assert main(["bracket", "--case", "vir00", "--x", "L:2", "--y", "L:-2"]) == 0
    assert capsys.readouterr().out.strip() == "-4*L:0 + 1/2*C:1"


def _qpoly_json(n, k, result):
    return ('{\n  "suite": "qpoly",\n  "params": {\n    "n": "%s",\n'
            '    "k": "%s",\n    "alpha": "1-2i",\n    "b": "-1"\n  },\n'
            '  "checks": 1,\n  "failures": [],\n  "status": "pass",\n'
            '  "elapsed_s": 0.0,\n  "data": {\n    "result": "%s"\n  }\n}\n'
            % (n, k, result))


def test_qpoly_golden(capsys):
    assert main(["qpoly", "--n", "3", "--k", "1", "--alpha", "2", "--b", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3*t - 6"
    # whole bodies at b = -1 with a mixed Gaussian alpha
    for n, k, result in (
        ("3", "2", "3*t^2 + (-6+12i)*t + (18+24i)"),
        ("-2", "3", "-2*t^3 + (-6+12i)*t^2 + (18+24i)*t + (66-12i)"),
        ("0", "1", "0"),
    ):
        argv = ["qpoly", "--n", n, "--k", k, "--alpha", "1-2i", "--b", "-1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == result + "\n"
        assert main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == _qpoly_json(n, k, result)


def test_bracket_json_wraps_result(capsys):
    assert main([
        "bracket", "--case", "vir120", "--x", "W:3", "--y", "W:-4",
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"]["result"] == "7*C:3"
    assert doc["status"] == "pass"


def test_bracket_needs_parameters_for_generic_case(capsys):
    assert main(["bracket", "--case", "vir-gen", "--x", "L:1", "--y", "W:0"]) == 2
    assert main([
        "bracket", "--case", "vir-gen", "--a", "1", "--b", "2",
        "--x", "L:1", "--y", "W:0",
    ]) == 0
    assert capsys.readouterr().out.strip() == "3*W:1"


def test_bracket_rejects_mismatched_case(capsys):
    assert main([
        "bracket", "--case", "vir-gen", "--a", "0", "--b", "0",
        "--x", "L:1", "--y", "L:2",
    ]) == 2
    assert "vir00" in capsys.readouterr().err


def test_verify_algebra_passes(capsys):
    assert main(["verify-algebra", "--case", "vir01", "--window", "2"]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out and "failures: 0" in out


def test_act(capsys, phi_spec_path):
    assert main([
        "act", "--spec", phi_spec_path, "--op", "L:1", "--poly", "t",
    ]) == 0
    assert capsys.readouterr().out.strip() == "2*s*t + 2*t - 2"


def test_verify_module_exit_and_report(capsys, phi_spec_path):
    assert main([
        "verify-module", "--spec", phi_spec_path, "--window", "2", "--deg", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out


def test_verify_module_json_round_trips(capsys, phi_spec_path):
    assert main([
        "verify-module", "--spec", phi_spec_path, "--window", "2", "--deg", "2",
        "--format", "json",
    ]) == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    again = Report.from_dict(doc).to_json()
    assert json.loads(again) == doc


@pytest.mark.parametrize("window, deg", [("-1", "2"), ("2", "-1")])
def test_verify_module_rejects_negative_sizes(capsys, phi_spec_path, window, deg):
    assert main(["verify-module", "--spec", phi_spec_path,
                 "--window", window, "--deg", deg]) == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("coeffs", [0.1]), ("lambda", 2.0), ("b", True),
])
def test_spec_with_inexact_scalar_is_usage_error(capsys, tmp_path, field, value):
    doc = ModuleSpec.phi(b=sc(1), lam=sc(2), alpha=sc(1), coeffs=()).to_dict()
    doc[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-module", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be a scalar string or an integer" in err


@pytest.mark.parametrize("field, value", [("N", 4.7), ("N", True), ("b", 2.0)])
def test_candidate_with_inexact_field_is_usage_error(capsys, tmp_path, field, value):
    spec = ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=())
    path = write_candidate(tmp_path, spec)
    doc = json.loads((tmp_path / "candidate.json").read_text())
    doc[field] = value
    (tmp_path / "candidate.json").write_text(json.dumps(doc))
    assert main(["classify", "--candidate", path]) == 2
    assert f"field {field!r} must be" in capsys.readouterr().err


def test_classify_feasible(capsys, tmp_path):
    spec = ModuleSpec.phi(b=sc(3), lam=sc(2), alpha=ZERO, coeffs=(ONE, ZERO, sc(2)))
    path = write_candidate(tmp_path, spec)
    assert main(["classify", "--candidate", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "family": "phi", "lambda": "2", "alpha": "0", "coeffs": ["1", "0", "2"],
    }


def test_classify_infeasible_exit_code(capsys, tmp_path):
    spec = ModuleSpec.phi(b=sc(2), lam=ONE, alpha=ZERO, coeffs=())
    path = write_candidate(tmp_path, spec, a="1")
    assert main(["classify", "--candidate", path, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["infeasible"]["constraint"] == "lw-compat"
    assert main(["classify", "--candidate", path]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_classify_text_renders_certificates_of_any_arity(capsys, tmp_path):
    spec = ModuleSpec.phi(b=sc(2), lam=ONE, alpha=ZERO, coeffs=())
    path = write_candidate(tmp_path, spec, a="1")
    assert main(["classify", "--candidate", path]) == 1
    assert capsys.readouterr().out == (
        "infeasible: lw-compat at (0, 1), residue -t\n")
    # an s^2 term in g_1 breaks the degree bound: a one-index certificate
    spec = ModuleSpec.phi(b=sc(3), lam=sc(2), alpha=ZERO, coeffs=(ONE,))
    path = write_candidate(tmp_path, spec)
    doc = json.loads((tmp_path / "candidate.json").read_text())
    doc["g_m"]["1"] += " + s^2"
    (tmp_path / "candidate.json").write_text(json.dumps(doc))
    assert main(["classify", "--candidate", path]) == 1
    assert capsys.readouterr().out == "infeasible: deg-g at (1), residue s^2\n"


def _certificate_json(constraint, indices, residue):
    at = ",\n".join(f"        {i}" for i in indices)
    return ('{\n  "infeasible": {\n    "constraint": "%s",\n'
            '    "witness": {\n      "indices": [\n%s\n      ],\n'
            '      "residue": "%s"\n    }\n  }\n}\n'
            % (constraint, at, residue))


# (b, lambda, alpha, coeffs, N, edits to the candidate document, answer)
_CLASSIFY_GOLDENS = [
    # g_3 += t and a_-4 += t^3: the seeds at m = +-1 are untouched
    (2, 2, 0, (1,), 4, {("g_m", "3"): "{} + t", ("a_m", "-4"): "{} + t^3"},
     ("window-mismatch", (-4,), "t^3")),
    # g_1 += t: F_1 gains t/2, which F_-1 does not match
    (2, 2, 0, (1,), 2, {("g_m", "1"): "{} + t"},
     ("leading-coeff", (-1, 1), "1/2*t")),
    # a vanishing W-seed at b = 1
    (1, 2, 1, (), 2, {("a_m", "1"): "0"},
     ("W-degenerate", (-2, 1), "-1/2*t + 1/2")),
    # A_1 = k*lambda on the spurious root k = (1-b)/b, A_-1 = A_1/lambda^2
    (3, 2, 0, (), 2, {("a_m", "1"): "-4/3*t", ("a_m", "-1"): "-1/3*t"},
     ("scale-branch", (2, -1), "-20/3")),
]


def test_classify_checks_the_whole_window(capsys, tmp_path):
    # text and JSON bodies byte for byte, for the window check and for
    # the solver's own stages
    for b, lam, alpha, coeffs, window, edits, want in _CLASSIFY_GOLDENS:
        spec = ModuleSpec.phi(b=sc(b), lam=sc(lam), alpha=sc(alpha),
                              coeffs=tuple(sc(c) for c in coeffs))
        path = write_candidate(tmp_path, spec, window=window)
        doc = json.loads((tmp_path / "candidate.json").read_text())
        for (field, m), text in edits.items():
            doc[field][m] = text.format(doc[field][m])
        (tmp_path / "candidate.json").write_text(json.dumps(doc))
        constraint, indices, residue = want
        assert main(["classify", "--candidate", path]) == 1
        at = ", ".join(str(i) for i in indices)
        assert capsys.readouterr().out == (
            f"infeasible: {constraint} at ({at}), residue {residue}\n")
        assert main(["classify", "--candidate", path, "--format", "json"]) == 1
        assert capsys.readouterr().out == _certificate_json(*want)


def test_classify_reads_l0_terms_in_a_m(capsys, tmp_path):
    # a_m is read like g_m, in s and t; the solver certifies the L0 term
    spec = ModuleSpec.phi(b=sc(3), lam=sc(2), alpha=ZERO, coeffs=(ONE,))
    path = write_candidate(tmp_path, spec)
    doc = json.loads((tmp_path / "candidate.json").read_text())
    doc["a_m"]["1"] = "2*t + s"
    (tmp_path / "candidate.json").write_text(json.dumps(doc))
    out = solve_candidate(GenericFamily(
        ZERO, sc(3), 4,
        {int(m): parse_bipoly(p) for m, p in doc["a_m"].items()},
        {int(m): parse_bipoly(p) for m, p in doc["g_m"].items()}))
    assert isinstance(out, InfeasibilityCertificate)
    assert main(["classify", "--candidate", path]) == 1
    at = ", ".join(str(i) for i in out.indices)
    assert capsys.readouterr().out == (
        f"infeasible: {out.constraint} at ({at}), residue {out.residue_text}\n")
    assert main(["classify", "--candidate", path, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == out.to_dict()


def test_classify_refuses_data_outside_the_window(capsys, tmp_path):
    # a_5 at N = 1 is a datum the classifier would not read
    spec = ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=())
    path = write_candidate(tmp_path, spec, window=1)
    doc = json.loads((tmp_path / "candidate.json").read_text())
    doc["a_m"]["5"] = "s^9"
    (tmp_path / "candidate.json").write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        assert main(["classify", "--candidate", path, "--format", fmt]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: a_m has data at index 5, outside the "
                           "window [-1, 1]\n")


def test_classify_rejects_bad_document(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": "0", "b": "1"}))
    assert main(["classify", "--candidate", str(path)]) == 2
    assert "missing fields" in capsys.readouterr().err


def test_isom(capsys, tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"family": "phi", "lambda": "2",
                             "alpha": "1", "coeffs": ["1"]}))
    q.write_text(json.dumps({"family": "phi", "lambda": "2",
                             "alpha": "2", "coeffs": ["1"]}))
    assert main(["isom", "--p", str(p), "--q", str(q), "--b", "1"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["isom", "--p", str(p), "--q", str(q), "--b", "3",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": True}


@pytest.mark.parametrize("change, message", [
    ({"lambda": 2.0}, "field 'lambda' must be a scalar string or an integer"),
    ({"alpha": True}, "field 'alpha' must be a scalar string or an integer"),
    ({"coeffs": "12"}, "field 'coeffs' must be a list of scalars"),
    ({"coeffs": [0.5]}, "coeffs entry must be a scalar string or an integer"),
    ({"extra": "1"}, "has unknown fields: ['extra']"),
    ({"alpha": None}, "missing fields: ['alpha']"),
], ids=["float-lambda", "bool-alpha", "string-coeffs", "float-coeff",
        "unknown-field", "missing-field"])
def test_isom_rejects_bad_canonical_document(capsys, tmp_path, change, message):
    good = {"family": "phi", "lambda": "2", "alpha": "0", "coeffs": ["1"]}
    bad = {k: v for k, v in {**good, **change}.items() if v is not None}
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    p.write_text(json.dumps(bad))
    q.write_text(json.dumps(good))
    assert main(["isom", "--p", str(p), "--q", str(q), "--b", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("a_m", {"1": 5}),
    ("a_m", ["t"]),
    ("g_m", {"x": "s"}),
    ("g_m", {"01": "s"}),
    ("a_m", {"1": "t^"}),
], ids=["int-value", "list", "bad-key", "noncanonical-key", "unparsable"])
def test_candidate_with_malformed_table_is_usage_error(capsys, tmp_path, field, value):
    spec = ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=())
    path = write_candidate(tmp_path, spec)
    doc = json.loads((tmp_path / "candidate.json").read_text())
    doc[field] = value
    (tmp_path / "candidate.json").write_text(json.dumps(doc))
    assert main(["classify", "--candidate", path]) == 2
    assert f"field {field!r} must" in capsys.readouterr().err


def test_verify_module_readme_example_golden(capsys, tmp_path):
    path = tmp_path / "phi.json"
    path.write_text('{"family": "phi", "a": "0", "b": "1", "lambda": "2",\n'
                    ' "alpha": "1", "coeffs": [], "extension": true}\n')
    assert main(["verify-module", "--spec", str(path), "--window", "4",
                 "--deg", "4", "--format", "json"]) == 0
    out = re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0',
                 capsys.readouterr().out)
    assert out == """{
  "suite": "verify-module",
  "params": {
    "family": "phi",
    "a": "0",
    "b": "1",
    "lambda": "2",
    "alpha": "1",
    "coeffs": "[]",
    "extension": "True",
    "window": "4",
    "degree": "4"
  },
  "checks": 6615,
  "failures": [],
  "status": "pass",
  "elapsed_s": 0,
  "data": {}
}
"""


ORBIT_README_GOLDEN = """\
{
  "suite": "orbit",
  "params": {
    "family": "phi",
    "a": "0",
    "b": "1",
    "lambda": "2",
    "alpha": "1",
    "coeffs": "[]",
    "extension": "True",
    "seeds": "t; s; t^2",
    "window": "3",
    "bounds": "8,8",
    "max_rounds": "6"
  },
  "checks": 6,
  "failures": [
    {
      "constraint": "orbit-invariance",
      "indices": [
        6,
        0
      ],
      "residue": "s^6*t"
    }
  ],
  "status": "fail",
  "elapsed_s": 0,
  "data": {
    "dimension_trace": [
      3,
      8,
      13,
      19,
      26,
      34,
      43
    ],
    "reaches_one": true,
    "overflow": 0,
    "stabilized": false,
    "invariant_in_box": false
  }
}
"""

ORBIT_OVERFLOW_GOLDEN = """\
{
  "suite": "orbit",
  "params": {
    "family": "phi",
    "a": "0",
    "b": "1",
    "lambda": "2",
    "alpha": "1",
    "coeffs": "[]",
    "extension": "True",
    "seeds": "t",
    "window": "3",
    "bounds": "2,2",
    "max_rounds": "9"
  },
  "checks": 4,
  "failures": [
    {
      "constraint": "orbit-invariance",
      "indices": [
        4,
        42
      ],
      "residue": "1/8*t^3 - 1/8*t^2"
    }
  ],
  "status": "fail",
  "elapsed_s": 0,
  "data": {
    "dimension_trace": [
      1,
      4,
      7,
      8,
      8
    ],
    "reaches_one": true,
    "overflow": 42,
    "stabilized": true,
    "invariant_in_box": false
  }
}
"""


@pytest.mark.parametrize("extra, golden", [
    (["--seed", "t", "--seed", "s", "--seed", "t^2"], ORBIT_README_GOLDEN),
    (["--seed", "t", "--bounds", "2,2", "--max-rounds", "9"],
     ORBIT_OVERFLOW_GOLDEN),
], ids=["readme", "overflow"])
def test_orbit_json_golden(capsys, tmp_path, extra, golden):
    # whole bodies, elapsed aside: the dimension trace, the overflow count
    # and the residue of the first image that left the box
    path = tmp_path / "phi.json"
    path.write_text('{"family": "phi", "a": "0", "b": "1", "lambda": "2",\n'
                    ' "alpha": "1", "coeffs": [], "extension": true}\n')
    assert main(["orbit", "--spec", str(path), *extra,
                 "--format", "json"]) == 1
    out = re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0',
                 capsys.readouterr().out)
    assert out == golden


def test_isom_family_mismatch_is_usage_error(capsys, tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"family": "phi", "lambda": "2",
                             "alpha": "0", "coeffs": []}))
    q.write_text(json.dumps({"family": "theta", "lambda": "2",
                             "alpha": "0", "coeffs": []}))
    assert main(["isom", "--p", str(p), "--q", str(q), "--b", "1"]) == 2


def test_orbit_closure_report(capsys, phi_spec_path):
    assert main([
        "orbit", "--spec", phi_spec_path,
        "--seed", "t", "--seed", "s", "--seed", "t^2",
    ]) == 1
    out = capsys.readouterr().out
    assert "reaches_one: True" in out


def test_orbit_status_follows_invariance(capsys, phi_spec_path, monkeypatch):
    # the closure of t overflows the box: one orbit-invariance failure at
    # (rounds, overflow), whose residue is the first image that left it
    assert main([
        "orbit", "--spec", phi_spec_path, "--seed", "t", "--bounds", "2,2",
        "--max-rounds", "9", "--format", "json",
    ]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail" and not doc["data"]["invariant_in_box"]
    [failure] = doc["failures"]
    assert failure["constraint"] == "orbit-invariance"
    assert failure["indices"] == [doc["checks"], doc["data"]["overflow"]]
    escaped = parse_bipoly(failure["residue"])
    assert any(i > 2 or j > 2 for i, j in escaped.terms)
    # no round run: the closure never stabilizes, whatever the data
    assert main(["orbit", "--spec", phi_spec_path, "--seed", "t",
                 "--max-rounds", "0"]) == 1
    out = capsys.readouterr().out
    assert "checks: 0" in out and "FAIL orbit-invariance @ (0, 0): residue = t" in out
    # under the trivial action every span is invariant: the closure
    # stabilizes in one round with zero overflow and passes
    zero = Op(ZERO, BiPoly.zero(), BiPoly.zero())
    monkeypatch.setattr(ModuleSpec, "op", lambda self, sym: zero)
    assert main(["orbit", "--spec", phi_spec_path, "--seed", "t"]) == 0
    out = capsys.readouterr().out
    assert "invariant_in_box: True" in out and "status: pass" in out


def test_orbit_invariant_mode(capsys, phi_spec_path):
    assert main([
        "orbit", "--spec", phi_spec_path, "--invariant", "t>=1",
        "--window", "2", "--bounds", "4,4",
    ]) == 0
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--case", "vir00", "--window", "-1"],
    ["orbit", "--window", "-2", "--seed", "t"],
    ["orbit", "--bounds=-1,-1", "--invariant", "t>=1"],
    ["orbit", "--seed", "t", "--max-rounds", "-3"],
])
def test_negative_window_or_bounds_is_usage_error(capsys, phi_spec_path, argv):
    if argv[0] == "orbit":
        argv = argv + ["--spec", phi_spec_path]
    assert main(argv) == 2
    assert "negative" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["a,b", "8", "8,x", "8,8,8", "8.5,8"])
def test_bad_bounds_is_usage_error(capsys, phi_spec_path, bounds):
    assert main(["orbit", "--spec", phi_spec_path, "--invariant", "t>=1",
                 "--bounds", bounds]) == 2
    assert capsys.readouterr().err == (
        "error: --bounds expects two comma-separated integers, e.g. 8,8\n")


@pytest.mark.parametrize("predicate", [
    "t>=\u0661", "t>=\u00b2", "s>=1\u0663", "t>=--1", "t>=", "u>=1"])
def test_bad_invariant_is_usage_error(capsys, phi_spec_path, predicate):
    # K is written in ASCII digits 0-9 with an optional minus sign
    assert main(["orbit", "--spec", phi_spec_path, "--invariant",
                 predicate]) == 2
    assert capsys.readouterr().err == (
        "error: --invariant expects 's>=K' or 't>=K'\n")


def test_orbit_needs_seeds(capsys, phi_spec_path):
    assert main(["orbit", "--spec", phi_spec_path]) == 2


@pytest.mark.parametrize("extra, flag", [
    (["--seed", "s"], "--seed"),
    (["--max-rounds", "6"], "--max-rounds"),
    (["--seed", "s", "--max-rounds", "-3"], "--seed"),
])
def test_invariant_refuses_closure_flags(capsys, phi_spec_path, extra, flag):
    argv = ["orbit", "--spec", phi_spec_path, "--invariant", "t>=1"] + extra
    assert main(argv) == 2
    assert f"--invariant cannot be combined with {flag}" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main([
        "bracket", "--case", "vir00", "--x", "L:2", "--y", "L:-2",
        "--out", str(target),
    ]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().strip() == "-4*L:0 + 1/2*C:1"


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["bracket", "--case", "vir00", "--x", "L;2", "--y", "L:1"]) == 2
    assert main(["verify-module", "--spec", "/definitely/missing.json"]) == 2
    capsys.readouterr()


def test_rejected_arguments_leave_the_parser_as_it_was(capsys):
    # the argument parser is built once per process and reused, so a call
    # argparse rejects must not change what the next call gets
    errors = []
    for _ in range(2):
        assert main(["bracket", "--case", "vir00", "--x", "L:2"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].endswith(
        "virab bracket: error: the following arguments are required: --y\n")
    assert main(["bracket", "--case", "vir00", "--x", "L:2",
                 "--y", "L:-2"]) == 0
    assert capsys.readouterr().out == "-4*L:0 + 1/2*C:1\n"
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: virab")


def test_report_text_round_trip_idempotent(capsys, phi_spec_path):
    # serialize -> parse -> serialize is byte-identical for report JSON
    assert main([
        "orbit", "--spec", phi_spec_path, "--seed", "t",
        "--format", "json", "--max-rounds", "2",
    ]) == 1
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert json.loads(Report.from_dict(doc).to_json()) == doc
