import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import sc
from golden import record
from virab.algebra import _table_vanishes, classify_case
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


def write_candidate(tmp_path, spec, a="0"):
    fam = GenericFamily.from_spec(spec, 4)
    doc = {
        "a": a,
        "b": json.loads(json.dumps(spec.to_dict()))["b"],
        "N": 4,
        "a_m": {str(m): format_bipoly(p) for m, p in fam.a_m.items()},
        "g_m": {str(m): format_bipoly(p) for m, p in fam.g_m.items()},
    }
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_bracket_json_wraps_result(capsys):
    assert main([
        "bracket", "--case", "vir120", "--x", "W:3", "--y", "W:-4",
        "--format", "json",
    ]) == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert doc["data"]["result"] == "7*C:3"
    assert doc["status"] == "pass"
    # untimed subcommands report exactly 0.0, which the golden corpus,
    # zeroing every elapsed field, cannot see
    assert '\n  "elapsed_s": 0.0,\n' in raw
    assert main(["qpoly", "--n", "3", "--k", "1", "--alpha", "2", "--b", "1",
                 "--format", "json"]) == 0
    assert '\n  "elapsed_s": 0.0,\n' in capsys.readouterr().out


def test_exact_numbers_past_the_digit_limit(capsys, digit_limit):
    # 5,000 digits in and out: the call lifts the limit on int-string
    # conversion and puts the caller's back
    ones = "1" * (digit_limit + 700)
    assert main(["qpoly", "--n", "3", "--k", "1", "--alpha", ones,
                 "--b", "1"]) == 0
    assert capsys.readouterr().out == f"3*t - {'3' * len(ones)}\n"
    assert sys.get_int_max_str_digits() == digit_limit


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


def test_verify_algebra_decides_a_window_no_sweep_reaches(capsys):
    # decided at symbolic indices; a sweep would take about n^3 steps (and
    # n^2 memory), so the decision is checked before the command runs
    assert _table_vanishes(classify_case(ZERO, ZERO))
    assert main(["verify-algebra", "--case", "vir00", "--window", "1000000",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    n = 4 * 1000000 + 2 + 3
    assert n == 4_000_005
    assert doc["status"] == "pass"
    assert doc["checks"] == n * (n + 1) // 2 + n ** 3


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
    with pytest.raises(ValueError, match="status is inconsistent"):
        Report.from_dict({**doc, "status": "fail"})


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


@pytest.mark.parametrize("family, lam, alphas, message", [
    ("theta", "0", ("3", "5"), "lambda must be nonzero"),
    ("phi", "0", ("0", "0"), "lambda must be nonzero"),
    ("theta", "2", ("3", "3"), "theta modules have no alpha parameter"),
])
def test_isom_refuses_parameters_no_module_has(capsys, tmp_path, family, lam,
                                               alphas, message):
    paths = []
    for name, alpha in zip("pq", alphas):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"family": family, "lambda": lam,
                                    "alpha": alpha, "coeffs": ["1"]}))
        paths.append(str(path))
    assert main(["isom", "--p", paths[0], "--q", paths[1], "--b", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_isom_refuses_a_b_the_family_cannot_live_over(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"family": "theta", "lambda": "2",
                                "alpha": "0", "coeffs": ["1"]}))
    argv = ["isom", "--p", str(path), "--q", str(path), "--b"]
    assert main(argv + ["1"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(argv + ["2"]) == 2
    assert capsys.readouterr() == (
        "", "error: theta modules exist only over (a, b) = (0, 1)\n")


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
    # spaces and tabs around the parts are dropped, as the grammars skip them
    assert main([
        "orbit", "--spec", phi_spec_path, "--invariant", " t\t>= 1",
        "--window", "2", "--bounds", "4,4",
    ]) == 0
    assert capsys.readouterr().out == "false\n"


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


@pytest.mark.parametrize("bounds", ["a,b", "8", "8,x", "8,8,8", "8.5,8",
                                    "\u0663,1_0", "8,1_0", "\u0668,8", "+8,8",
                                    "8,\u20038"])
def test_bad_bounds_is_usage_error(capsys, phi_spec_path, bounds):
    assert main(["orbit", "--spec", phi_spec_path, "--invariant", "t>=1",
                 "--bounds", bounds]) == 2
    assert capsys.readouterr().err == (
        "error: --bounds expects two comma-separated integers, e.g. 8,8\n")


def test_bounds_take_spaces_around_each_integer(capsys, phi_spec_path):
    assert main(["orbit", "--spec", phi_spec_path, "--invariant", "t>=1",
                 "--window", "2", "--bounds", " 4,\t4 "]) == 0
    assert capsys.readouterr().out == "false\n"


@pytest.mark.parametrize("flag", ["--window", "--deg"])
@pytest.mark.parametrize("value", ["1_0", "\u0662", "+2", "2\u2003", "2.0"])
def test_integer_arguments_are_ascii_digits(capsys, phi_spec_path, flag,
                                            value):
    # as --bounds and --invariant: an optional minus and digits 0-9 only
    assert main(["verify-module", "--spec", phi_spec_path, flag, value]) == 2
    assert (f"argument {flag}: invalid integer value: {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, text, key", [
    (["verify-module", "--spec"], '{"family": "phi", "a": "0", "b": "0", '
     '"b": "1", "lambda": "2", "alpha": "1", "coeffs": [], '
     '"extension": true}', "b"),
    (["isom", "--b", "1", "--q", "good.json", "--p"], '{"family": "phi", '
     '"lambda": "2", "alpha": "0", "coeffs": ["1"], "lambda": "3"}', "lambda"),
], ids=["spec", "canonical-params"])
def test_a_repeated_json_key_is_usage_error(capsys, tmp_path, monkeypatch,
                                            command, text, key):
    # the last value would otherwise win silently: b = 1 would pass
    (tmp_path / "good.json").write_text(json.dumps(
        {"family": "phi", "lambda": "2", "alpha": "0", "coeffs": ["1"]}))
    (tmp_path / "doc.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(command + ["doc.json"]) == 2
    assert capsys.readouterr().err == (
        f"error: JSON object repeats the key {key!r}\n")


def test_a_candidate_repeating_an_index_is_usage_error(capsys, tmp_path):
    # a nested a_m listing index 1 twice, with either value
    spec = ModuleSpec.phi(b=sc(2), lam=sc(3), coeffs=(ONE,))
    path = write_candidate(tmp_path, spec)
    text = (tmp_path / "candidate.json").read_text()
    (tmp_path / "candidate.json").write_text(
        text.replace('"a_m": {', '"a_m": {"1": "3*t", ', 1))
    assert main(["classify", "--candidate", path]) == 2
    assert capsys.readouterr().err == (
        "error: JSON object repeats the key '1'\n")


@pytest.mark.parametrize("predicate", [
    "t>=\u0661", "t>=\u00b2", "s>=1\u0663", "t>=--1", "t>=", "u>=1",
    "t\u2003>=1", "t>=\u30001", "t>=1\n", "t>=1 2", "t >= 1\t2", "t> =1",
    "t>=- 1"])
def test_bad_invariant_is_usage_error(capsys, phi_spec_path, predicate):
    # K is written in ASCII digits 0-9 with an optional minus sign, and
    # the only whitespace is the ASCII space and tab, as in every grammar,
    # between and around the tokens s or t, >= and K, never inside one
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


def test_entry_points_run_main(capsys):
    # `python -m virab` and the `virab` console script both reach cli.main
    argv = ["bracket", "--case", "vir00", "--x", "L:2", "--y", "L:-2"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    assert in_process == "-4*L:0 + 1/2*C:1\n"
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "virab", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, in_process, "")
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^virab = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert target is not None
    assert getattr(importlib.import_module(target[1]), target[2]) is main


def test_report_text_round_trip_idempotent(capsys, phi_spec_path):
    # serialize -> parse -> serialize is byte-identical for report JSON
    assert main([
        "orbit", "--spec", phi_spec_path, "--seed", "t",
        "--format", "json", "--max-rounds", "2",
    ]) == 1
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert json.loads(Report.from_dict(doc).to_json()) == doc


def test_cli_golden_corpus():
    # every subcommand in text and JSON, both classify outcomes and the
    # usage errors, replayed byte for byte with the elapsed fields zeroed;
    # tests/golden/record.py rewrites the corpus from its own case list
    corpus = json.loads(record.CORPUS.read_text(encoding="utf-8"))
    with record.workdir(corpus["documents"]):
        for case in corpus["cases"]:
            assert record.run(case["argv"]) == case, case["argv"]
