"""The names the benchmark binds in virab must keep resolving.

bench/tracing.py wraps virab functions and methods by name, and
bench/workloads.py calls into virab; both are read here, never edited, so
that removing a name they use fails tier-1 and not only ``pytest bench``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import virab
from conftest import sc
from virab.polynomials import BiPoly, UniPoly
from virab.repmod import GenericFamily, ModuleSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # binds its owners at import
    for name, (targets, _) in tracing.TARGETS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), (name, owner, attr)


def _chain(node: ast.expr) -> list[str] | None:
    """["virab", "cli", "main"] for virab.cli.main; None for any other
    expression than a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def test_workload_calls_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    bound = {}  # name in workloads.py -> the virab object it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "virab":
                    importlib.import_module(alias.name)
                    bound["virab"] = importlib.import_module("virab")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("virab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                bound[alias.asname or alias.name] = getattr(module, alias.name)
    assert "virab" in bound
    used = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            used.add(tuple(chain))
    assert ("virab", "GenericFamily", "from_spec") in used
    for chain in used:
        obj = bound[chain[0]]
        for attr in chain[1:]:
            assert hasattr(obj, attr), ".".join(chain)
            obj = getattr(obj, attr)
    # the workloads embed GenericFamily's a_m to build candidate windows
    fam = GenericFamily.from_spec(ModuleSpec.phi(b=sc(2), lam=sc(3)), 1)
    assert all(callable(p.embed) for p in fam.a_m.values())


def test_window_shims_keep_bench_working():
    # what bench/workloads.py does to a from_spec window: perturb an a_m
    # entry by UniPoly.monomial and rebuild it, and embed each a_m
    fam = GenericFamily.from_spec(ModuleSpec.phi(b=sc(2), lam=sc(3)), 2)
    delta = UniPoly.monomial(2, sc(-3))
    assert delta == BiPoly.monomial(0, 2, sc(-3))
    a_m = dict(fam.a_m)
    a_m[2] = a_m[2] + delta
    rebuilt = GenericFamily(fam.a, fam.b, fam.window, a_m, fam.g_m)
    assert not virab.verify_module(rebuilt, window=2, degree=1).passed
    assert all(p.embed() == p for p in fam.a_m.values())
    # one window class under both names; the tracer wraps UniPoly.__mul__
    # and format_unipoly as attributes of their own
    assert virab.CandidateFamily is virab.GenericFamily
    assert "__mul__" in vars(UniPoly)
    assert virab.polynomials.format_unipoly is not virab.format_bipoly
