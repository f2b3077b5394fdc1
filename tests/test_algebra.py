import pytest

from conftest import sc, sci
from virab.algebra import (
    AlgebraParams,
    AlgElement,
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
from virab.scalars import MINUS_ONE, ONE, ZERO


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
