from fractions import Fraction

import pytest

import virab.algebra
from conftest import sc, sci
from virab.algebra import (
    AlgebraParams,
    AlgElement,
    BasisSymbol,
    C,
    Case,
    L,
    W,
    bracket,
    bracket_lin,
    classify_case,
    format_element,
    verify_algebra,
)
from virab.polynomials import Undecided
from virab.scalars import MINUS_ONE, ONE, ZERO, Scalar


VIR00 = classify_case(sc(0), sc(0))
VIR0M1 = classify_case(sc(0), sc(-1))
VIR120 = classify_case(sc("1/2"), sc(0))
VIR01 = classify_case(sc(0), sc(1))
GEN = classify_case(sc(1), sc(2))


def test_case_selection():
    assert VIR00.case is Case.VIR_00
    assert VIR0M1.case is Case.VIR_0_MINUS_1
    assert VIR120.case is Case.VIR_HALF_0
    assert VIR01.case is Case.VIR_01
    assert GEN.case is Case.VIR_GENERIC
    assert classify_case(sc(0), sc(0), want_extension=False).case is Case.W_ONLY


def test_params_consistency_guard():
    with pytest.raises(ValueError):
        AlgebraParams(sc(0), sc(0), Case.VIR_GENERIC)
    with pytest.raises(ValueError):
        AlgebraParams(sc(1), sc(2), Case.VIR_00)


def test_witt_bracket_all_cases():
    for p in (VIR00, VIR0M1, VIR120, VIR01, GEN):
        out = bracket(L(3), L(-1), p)
        assert out == AlgElement({L(2): sc(-4)})


def test_witt_central_charge_term():
    out = bracket(L(2), L(-2), VIR00)
    assert out == AlgElement({L(0): sc(-4), C(1): sc("1/2")})
    assert format_element(out) == "-4*L:0 + 1/2*C:1"
    # (x^3 - x)/12 vanishes at |x| = 1
    assert bracket(L(1), L(-1), VIR00) == AlgElement({L(0): sc(-2)})


def test_lw_brackets_per_case():
    # vir00: [L_x, W_y] = y W_{x+y} + delta (x^2 + x) C2
    assert bracket(L(2), W(-2), VIR00) == AlgElement({W(0): sc(-2), C(2): sc(6)})
    assert bracket(L(2), W(1), VIR00) == AlgElement({W(3): ONE})
    # vir0m1: (y - x) W + delta (x^3 - x)/12 C2
    assert bracket(L(2), W(-2), VIR0M1) == AlgElement({W(0): sc(-4), C(2): sc("1/2")})
    # vir120: (y + 1/2) W, no L-W central term
    assert bracket(L(3), W(-3), VIR120) == AlgElement({W(0): sc("-5/2")})
    # vir01: (x + y) W + delta (x C2 + C4)
    assert bracket(L(2), W(-2), VIR01) == AlgElement({C(2): sc(2), C(4): ONE})
    assert bracket(L(1), W(1), VIR01) == AlgElement({W(2): sc(2)})
    # generic: (a + y + b x) W
    assert bracket(L(2), W(1), GEN) == AlgElement({W(3): sc(6)})


def test_ww_brackets_per_case():
    # vir00: [W_x, W_y] = x delta_{x+y,0} C3
    assert bracket(W(2), W(-2), VIR00) == AlgElement({C(3): sc(2)})
    assert bracket(W(2), W(1), VIR00).is_zero
    # vir120: (2x + 1) delta_{x+y,-1} C3
    assert bracket(W(3), W(-4), VIR120) == AlgElement({C(3): sc(7)})
    assert bracket(W(3), W(-3), VIR120).is_zero
    # abelian everywhere else
    for p in (VIR0M1, VIR01, GEN):
        assert bracket(W(2), W(-2), p).is_zero


def test_centrals_annihilate():
    from virab.algebra import CENTRAL_INDICES

    assert CENTRAL_INDICES[Case.VIR_00] == (1, 2, 3)
    assert CENTRAL_INDICES[Case.VIR_0_MINUS_1] == (1, 2)
    assert CENTRAL_INDICES[Case.VIR_HALF_0] == (1, 3)
    assert CENTRAL_INDICES[Case.VIR_01] == (1, 2, 4)
    assert CENTRAL_INDICES[Case.VIR_GENERIC] == (1,)
    assert CENTRAL_INDICES[Case.W_ONLY] == ()
    for p in (VIR00, VIR0M1, VIR120, VIR01, GEN):
        for idx in CENTRAL_INDICES[p.case]:
            assert bracket(C(idx), L(3), p).is_zero
            assert bracket(W(-1), C(idx), p).is_zero


def test_central_index_validation():
    with pytest.raises(ValueError):
        bracket(C(3), L(0), VIR0M1)  # vir0m1 has C1, C2 only
    with pytest.raises(ValueError):
        bracket(C(4), L(0), VIR00)
    with pytest.raises(ValueError):
        bracket(C(1), L(0), classify_case(sc(0), sc(0), want_extension=False))
    with pytest.raises(ValueError, match="unknown symbol kind 'X'"):
        bracket(BasisSymbol("X", 1), L(0), VIR00)


def test_w_only_has_no_centrals():
    p = classify_case(sci(0, 1), sc("1/2"), want_extension=False)
    out = bracket(L(2), W(-2), p)
    assert out == AlgElement({W(0): sci(-2, 1) + sc(1)})


def test_bracket_linearity():
    x = AlgElement({L(1): sc(2), W(0): MINUS_ONE})
    y = AlgElement({L(-1): ONE})
    lhs = bracket_lin(x, y, VIR00)
    ref = bracket(L(1), L(-1), VIR00).scale(sc(2)) - bracket(W(0), L(-1), VIR00)
    assert lhs == ref


def test_antisymmetry_and_jacobi_sweep():
    for p in (VIR00, VIR01, GEN):
        report = verify_algebra(p, window=2)
        assert report.passed, report.to_text()
        assert report.checks > 0


def test_verify_algebra_rejects_negative_window():
    with pytest.raises(ValueError, match="nonnegative"):
        verify_algebra(VIR00, window=-1)


def test_format_element_zero_and_order():
    assert format_element(AlgElement.zero()) == "0"
    e = AlgElement({W(-1): ONE, L(2): MINUS_ONE, C(1): sc("1/3")})
    assert format_element(e) == "-L:2 + W:-1 + 1/3*C:1"


# --- an oracle that shares no code with virab.algebra --------------------
#
# The six tables written out again with Fraction coefficients, from the
# formulas in the module docstring and the comments above: the W
# coefficient of [L_x, W_y] is a + y + b*x in every case, and each case
# adds its own central terms.

ORACLE_CENTRALS = {"w": (), "vir-gen": (1,), "vir00": (1, 2, 3),
                   "vir0m1": (1, 2), "vir120": (1, 3), "vir01": (1, 2, 4)}


def _oracle_case(a: Fraction, b: Fraction, extension: bool) -> str:
    if not extension:
        return "w"
    special = {(0, 0): "vir00", (0, -1): "vir0m1", (Fraction(1, 2), 0): "vir120",
               (0, 1): "vir01"}
    return special.get((a, b), "vir-gen")


def _oracle(case: str, a: Fraction, b: Fraction, x, y) -> dict:
    (kx, i), (ky, j) = x, y
    if "C" in (kx, ky):
        return {}
    if kx == "W" and ky == "L":
        return {k: -c for k, c in _oracle(case, a, b, y, x).items()}
    out: dict = {}

    def put(key, c):
        if c:
            out[key] = Fraction(c)

    if kx == ky == "L":
        put(("L", i + j), j - i)
        if case != "w" and i + j == 0:
            put(("C", 1), Fraction(i ** 3 - i, 12))
    elif kx == "L":
        put(("W", i + j), a + j + b * i)
        if i + j == 0:
            if case == "vir00":
                put(("C", 2), i * i + i)
            elif case == "vir0m1":
                put(("C", 2), Fraction(i ** 3 - i, 12))
            elif case == "vir01":
                put(("C", 2), i)
                put(("C", 4), 1)
    elif case == "vir00" and i + j == 0:
        put(("C", 3), i)
    elif case == "vir120" and i + j == -1:
        put(("C", 3), 2 * i + 1)
    return out


ORACLE_TABLES = [
    (Fraction(0), Fraction(0), True),
    (Fraction(0), Fraction(-1), True),
    (Fraction(1, 2), Fraction(0), True),
    (Fraction(0), Fraction(1), True),
    (Fraction(1, 3), Fraction(2), True),
    (Fraction(-1), Fraction(3, 2), True),
    (Fraction(1, 3), Fraction(2), False),
    (Fraction(2), Fraction(-1), False),
]


@pytest.mark.parametrize("a, b, extension", ORACLE_TABLES)
def test_bracket_matches_fraction_oracle(a, b, extension):
    case = _oracle_case(a, b, extension)
    p = classify_case(sc(a), sc(b), want_extension=extension)
    assert p.case.value == case
    syms = [(k, n) for k in ("L", "W") for n in range(-4, 5)]
    syms += [("C", i) for i in ORACLE_CENTRALS[case]]
    for x in syms:
        for y in syms:
            got = bracket(BasisSymbol(*x), BasisSymbol(*y), p)
            assert all(not c.im for c in got.terms.values())
            got = {(s.kind, s.index): c.re for s, c in got.terms.items()}
            assert got == _oracle(case, a, b, x, y), (case, x, y)


def _broken_lw(n, m, p, lw=virab.algebra._lw):
    # one wrong W coefficient: [L_1, W_m] gains an extra W_{m+1}
    out = lw(n, m, p)
    return out + AlgElement({W(m + n): ONE}) if n == 1 else out


def _broken_ll(n, m, p, ll=virab.algebra._ll):
    # [L_1, L_m] gains C_1, so [L_1, L_-1] is no longer antisymmetric
    out = ll(n, m, p)
    return out + AlgElement({C(1): ONE}) if n == 1 else out


def _broken_ww(n, m, p, ww=virab.algebra._ww):
    # [W_1, W_m] gains W_{m+1}, which [W_m, W_1] does not lose
    out = ww(n, m, p)
    return out + AlgElement({W(m + n): ONE}) if n == 1 else out


def _broken_ww_antisymmetric(n, m, p, ww=virab.algebra._ww):
    # [W_1, W_m] gains W_{m+1} and [W_m, W_1] loses it: a broken table
    # that stays antisymmetric, so it fails Jacobi only
    out = ww(n, m, p)
    if n == 1:
        out = out + AlgElement({W(m + n): ONE})
    if m == 1:
        out = out - AlgElement({W(m + n): ONE})
    return out


def _broken_ll_at_zero(n, m, p, ll=virab.algebra._ll):
    # [L_0, L_m] doubled: a test of n == 0, which no pattern of the
    # symbolic check decides (n may be 0 on each), and the only test added
    out = ll(n, m, p)
    return out.scale(sc(2)) if n == 0 else out


def _naive_replay(p, window):
    """verify_algebra's failures and checks, replayed pair by pair and
    triple by triple, with no memo and no symbols."""

    def ad(x, e):
        out = AlgElement.zero()
        for sym, c in e.terms.items():
            out = out + bracket(x, sym, p).scale(c)
        return out

    syms = [BasisSymbol(k, n) for k in ("L", "W")
            for n in range(-window, window + 1)]
    syms += [C(i) for i in p.central_indices]
    expected, checks = [], 0
    for ix, x in enumerate(syms):
        for y in syms[ix:]:
            checks += 1
            res = bracket(x, y, p) + bracket(y, x, p)
            if res:
                expected.append(("antisymmetry", (str(x), str(y)), str(res)))
    for x in syms:
        for y in syms:
            for z in syms:
                checks += 1
                res = (ad(x, bracket(y, z, p)) + ad(y, bracket(z, x, p))
                       + ad(z, bracket(x, y, p)))
                if res:
                    expected.append(
                        ("jacobi", (str(x), str(y), str(z)), str(res)))
    n = len(syms)
    assert n == 4 * window + 2 + len(p.central_indices)
    assert checks == n * (n + 1) // 2 + n ** 3
    return expected, checks


def _assert_matches_replay(p, window):
    """verify_algebra's report is the naive replay's; returns its failures."""
    report = verify_algebra(p, window=window)
    expected, checks = _naive_replay(p, window)
    assert report.checks == checks
    got = [(f.constraint, f.indices, f.residue) for f in report.failures]
    assert got == expected
    return expected


# (a, b, window): vir-gen, and vir00 with three central symbols, so that
# triples with repeated and central symbols pin the failure order; the
# vir-gen case keeps the bare id
BROKEN_SWEEPS = [("1/3", 2, 2), (0, 0, 1), (0, 0, 2)]


@pytest.mark.parametrize("name, broken, a, b, window", [
    pytest.param(name, broken, a, b, window,
                 id=f"{name}-{broken.__name__}"
                 + (f"-vir00-w{window}" if a == 0 else ""))
    for name, broken in (("_lw", _broken_lw), ("_ll", _broken_ll),
                         ("_ww", _broken_ww), ("_ww", _broken_ww_antisymmetric))
    for a, b, window in BROKEN_SWEEPS
])
def test_verify_algebra_matches_naive_replay_on_broken_table(
        monkeypatch, name, broken, a, b, window):
    monkeypatch.setattr(virab.algebra, name, broken)
    p = classify_case(sc(a), sc(b))
    expected = _assert_matches_replay(p, window)
    assert any(f[0] == "jacobi" for f in expected)
    assert (any(f[0] == "antisymmetry" for f in expected)
            == (broken in (_broken_ll, _broken_ww)))


@pytest.mark.parametrize("extension", [True, False], ids=["vir-gen", "w"])
def test_an_undecided_zero_test_leaves_the_table_to_the_sweep(
        monkeypatch, extension):
    # on w every n that _ll tests is a bare variable i, j or k (the table
    # has no plane, so k is free): a one-term rule that did not read the
    # pattern's nonzero variables would call n nonzero and pass the table
    monkeypatch.setattr(virab.algebra, "_ll", _broken_ll_at_zero)
    p = classify_case(sc("1/3"), sc(2), want_extension=extension)
    with pytest.raises(Undecided):
        virab.algebra._table_vanishes(p)
    assert _assert_matches_replay(p, window=2)


def _with_row(case, row):
    """The case's COCYCLES rows with the row of the same kind and central
    index replaced by ``row``."""
    rows = virab.algebra.COCYCLES[case]
    assert any(r[:2] == row[:2] for r in rows)
    return tuple(row if r[:2] == row[:2] else r for r in rows)


# Rows in int-like arithmetic, so that the symbolic check computes them:
# four that are no cocycle, and LL f = n^3, 12 times the Virasoro row plus
# the coboundary n (the bracket with the functional L_0 -> 1, up to -2)
MUTATED_ROWS = [
    ("vir-gen-LL-n2", ("1/3", 2), ("LL", 1, 0, lambda n: n * n * ONE), False),
    ("vir00-WW-n2", (0, 0), ("WW", 3, 0, lambda n: n * n * ONE), False),
    ("vir00-LW-n3", (0, 0), ("LW", 2, 0, lambda n: n * n * n * ONE), False),
    ("vir120-WW-plane0", ("1/2", 0),
     ("WW", 3, 0, lambda n: (2 * n + 1) * ONE), False),
    ("vir-gen-LL-n3", ("1/3", 2), ("LL", 1, 0, lambda n: n * n * n * ONE),
     True),
]


@pytest.mark.parametrize("ab, row, cocycle",
                         [pytest.param(*m[1:], id=m[0]) for m in MUTATED_ROWS])
def test_symbolic_check_computes_mutated_rows_as_the_replay_does(
        monkeypatch, ab, row, cocycle):
    p = classify_case(*(sc(v) for v in ab))
    monkeypatch.setitem(virab.algebra.COCYCLES, p.case, _with_row(p.case, row))
    # decided without an undecided test: a non-cocycle's residue is
    # computed and found nonzero, and the sweep then reports it
    assert virab.algebra._table_vanishes(p) is cocycle
    expected = _assert_matches_replay(p, window=2)
    assert (not expected) is cocycle


def _fraction_cubic(n):
    return Fraction(n ** 3 - n, 12)


# every COCYCLES row written out again over Fraction, by (case, kind,
# central index, plane)
ORACLE_ROWS = {
    "w": {},
    "vir-gen": {("LL", 1, 0): _fraction_cubic},
    "vir00": {("LL", 1, 0): _fraction_cubic, ("LW", 2, 0): lambda n: n * n + n,
              ("WW", 3, 0): lambda n: n},
    "vir0m1": {("LL", 1, 0): _fraction_cubic, ("LW", 2, 0): _fraction_cubic},
    "vir120": {("LL", 1, 0): _fraction_cubic, ("WW", 3, -1): lambda n: 2 * n + 1},
    "vir01": {("LL", 1, 0): _fraction_cubic, ("LW", 2, 0): lambda n: n,
              ("LW", 4, 0): lambda n: 1},
}


def test_cocycle_rows_match_fraction_oracle():
    for case, rows in virab.algebra.COCYCLES.items():
        oracle = ORACLE_ROWS[case.value]
        assert [row[:3] for row in rows] == list(oracle)
        for kind, i, plane, f in rows:
            for n in range(-40, 41):
                c = f(n)
                assert isinstance(c, Scalar) and not c.im, (case, kind, n)
                assert c.re == oracle[kind, i, plane](n), (case, kind, n)


ALL_TABLES = [VIR00, VIR0M1, VIR120, VIR01, GEN,
              classify_case(sc("1/3"), sc(2), want_extension=False)]


@pytest.mark.parametrize("p", ALL_TABLES, ids=lambda p: p.case.value)
def test_verify_algebra_decision_does_not_depend_on_the_window(
        monkeypatch, p):
    # decided at symbolic indices, so the bracket calls are the same at
    # any window, and the report counts the sweep's checks
    assert virab.algebra._table_vanishes(p)
    calls = []

    def counted(x, y, q, bracket=virab.algebra.bracket):
        calls.append((x, y))
        return bracket(x, y, q)

    monkeypatch.setattr(virab.algebra, "bracket", counted)
    counts = []
    for window in (2, 40):
        calls.clear()
        report = verify_algebra(p, window=window)
        n = 4 * window + 2 + len(p.central_indices)
        assert report.passed and report.checks == n * (n + 1) // 2 + n ** 3
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
