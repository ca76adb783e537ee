"""Ternary forms: grammar, restriction, exact division, pencil membership."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from curvepencils.arrangement import CurveComponent, meeting_points
from curvepencils.exactalg import projective_profile
from curvepencils.polyform import (
    P1Point,
    PolyParseError,
    ProjLine,
    ProjPoint,
    TernaryForm,
    divide,
    divisibility_multiplicity,
    exact_divide,
    line_through,
    member_of_pencil_dividing,
    span_rows,
)

X = TernaryForm.parse("x")
Y = TernaryForm.parse("y")
Z = TernaryForm.parse("z")


def sym(form: TernaryForm):
    x, y, z = sympy.symbols("x y z")
    expr = sympy.Integer(0)
    for (a, b, c), coef in form.terms.items():
        expr += sympy.Rational(coef.numerator, coef.denominator) * x**a * y**b * z**c
    return sympy.expand(expr)


def random_form(rng, degree, density=0.6):
    terms = {}
    for m in TernaryForm.monomials_of_degree(degree):
        if rng.random() < density:
            terms[m] = Fraction(rng.randint(-4, 4))
    terms[(degree, 0, 0)] = Fraction(rng.randint(1, 4))
    return TernaryForm(terms)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_basic():
    f = TernaryForm.parse("x^2*y - 3/2*y*z^2 + z^3")
    assert f.degree == 3
    assert f.coefficient((2, 1, 0)) == 1
    assert f.coefficient((0, 1, 2)) == Fraction(-3, 2)
    assert f.coefficient((0, 0, 3)) == 1


def test_parse_merges_and_normalizes():
    assert TernaryForm.parse("x + x") == TernaryForm.parse("2*x")
    assert TernaryForm.parse("x - x + y").terms == {(0, 1, 0): Fraction(1)}
    assert TernaryForm.parse("2*x*x") == TernaryForm.parse("2*x^2")


def test_parse_rejects_bad_input():
    for bad in ["", "x + ", "x^", "w", "x^-2", "1/0*x", "x..y", "x^2 + y"]:
        with pytest.raises(PolyParseError):
            TernaryForm.parse(bad)


def test_str_round_trip():
    rng = random.Random(42)
    for trial in range(40):
        f = random_form(rng, rng.randint(1, 4))
        assert TernaryForm.parse(str(f)) == f


def test_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        TernaryForm({(1, 0, 0): Fraction(1), (2, 0, 0): Fraction(1)})


# ---------------------------------------------------------------------------
# arithmetic against sympy


def test_arithmetic_matches_sympy():
    rng = random.Random(9)
    for trial in range(25):
        f = random_form(rng, rng.randint(1, 3))
        g = random_form(rng, rng.randint(1, 3))
        assert sym(f * g) == sympy.expand(sym(f) * sym(g))
        if f.degree == g.degree:
            assert sym(f + g) == sympy.expand(sym(f) + sym(g))


def test_evaluate():
    f = TernaryForm.parse("x^2 - y*z")
    assert f.evaluate((0, 0, 1)) == 0
    assert f.evaluate((1, 1, 1)) == 0
    assert f.evaluate((2, 1, 1)) == 3


def test_primitive_normalization():
    f = TernaryForm.parse("2*x - 2*y")
    assert f.primitive() == TernaryForm.parse("x - y")
    g = TernaryForm.parse("-1/2*x + 1/2*y")
    assert g.primitive() == TernaryForm.parse("x - y")
    assert f.proportional_to(g)
    assert not f.proportional_to(TernaryForm.parse("x + y"))


def random_rational_form(rng, degree):
    terms = {
        m: Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))
        for m in TernaryForm.monomials_of_degree(degree)
        if rng.random() < 0.5
    }
    return TernaryForm(terms) if terms else X.power(degree)


def test_proportional_to_matches_primitive_equality():
    rng = random.Random(2718)
    for _ in range(60):
        f = random_rational_form(rng, rng.randint(1, 4))
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
        other = random_rational_form(rng, f.degree)
        # a scaled copy, a copy with one coefficient changed, another form
        changed = dict(f.terms)
        key = rng.choice(list(changed))
        changed[key] += 1
        for g in (f.scale(c), TernaryForm(changed), other, f + other):
            oracle = f.primitive() == g.primitive()
            assert f.proportional_to(g) == oracle == g.proportional_to(f), (f, g)
        assert f.proportional_to(f.scale(c))
    # different supports are never proportional, even when they share a term
    assert not TernaryForm.parse("x^2 + y^2").proportional_to(TernaryForm.parse("x^2"))
    assert not TernaryForm.parse("x^2").proportional_to(TernaryForm.parse("x^2 + y*z"))
    assert TernaryForm.zero().proportional_to(TernaryForm.zero())
    assert not TernaryForm.zero().proportional_to(X)
    assert not X.proportional_to(TernaryForm.zero())


def sympy_rref_rows(*forms):
    """The nonzero rows of sympy's RREF of the coefficient vectors."""
    degree = forms[0].degree
    matrix = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in f.coefficient_vector(degree)]
         for f in forms]
    )
    rref, _ = matrix.rref()
    return [list(rref.row(i)) for i in range(rref.rows) if any(rref.row(i))]


def test_span_rows_matches_sympy_rref():
    rng = random.Random(1618)
    for _ in range(60):
        d = rng.randint(1, 4)
        P, Q = random_rational_form(rng, d), random_rational_form(rng, d)
        rows = span_rows(P, Q)
        expected = sympy_rref_rows(P, Q)
        if len(expected) < 2:
            assert rows is None
            continue
        assert rows is not None
        for row, want in zip(rows, expected):
            pivot = next(c for c in row if c)
            assert pivot > 0
            assert [sympy.Rational(c, pivot) for c in row] == want
            assert gcd(*row) == 1
        # the rows name the span, not the generators
        a, b = (Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2))
        assert span_rows(Q, P) == rows
        assert span_rows(P.scale(-a), Q.scale(b)) == rows
        assert span_rows(P + Q.scale(a), Q) == rows
        assert span_rows(P, P.scale(a)) is None


# ---------------------------------------------------------------------------
# restriction to a line


def test_restrict_matches_sympy():
    rng = random.Random(31)
    s, t = sympy.symbols("s t")
    for trial in range(25):
        f = random_form(rng, rng.randint(1, 4))
        line = ProjLine(TernaryForm.parse(
            rng.choice(["x - y", "y - z", "x + y - 2*z", "x + z", "3*x - y + z"])
        ))
        p, q = line.span
        restricted = f.restrict_span(p, q)
        subs = {
            v: p[i] * s + q[i] * t
            for i, v in enumerate(sympy.symbols("x y z"))
        }
        expected = sympy.expand(sym(f).subs(subs, simultaneous=True))
        ours = sum(
            sympy.Rational(c.numerator, c.denominator) * s ** (f.degree - i) * t**i
            for i, c in enumerate(restricted)
        )
        assert sympy.expand(ours) == expected


def test_binary_profile_counts_infinity():
    # x*y^2 on the line z = 0: y^2 vanishes at the point q, which the chart
    # t -> p + t*q puts at t = infinity
    f = TernaryForm.parse("x*y^2")
    p, q = ProjLine(Z).span
    g = f.restrict_span(p, q)
    assert g[1] != 0 and g[2:] == (0, 0) and f.evaluate(q) == 0
    assert projective_profile(g, f.degree) == ((1, 1), (2, 1))
    with pytest.raises(ValueError):
        projective_profile((), 2)


# ---------------------------------------------------------------------------
# projective points and lines


def test_point_normalization():
    assert ProjPoint((2, 4, 6)).coords == (1, 2, 3)
    assert ProjPoint((-1, 2, 0)).coords == (1, -2, 0)
    assert ProjPoint((0, Fraction(-1, 2), Fraction(3, 2))).coords == (0, 1, -3)
    with pytest.raises(ValueError):
        ProjPoint((0, 0, 0))
    assert P1Point(2, -4).coords == (1, -2)
    assert P1Point(0, -5).coords == (0, 1)


def test_line_incidence():
    l1 = ProjLine(TernaryForm.parse("x - y"))
    for pt in l1.rational_points(5):
        assert l1.form.evaluate(pt.coords) == 0
    p = meeting_points(CurveComponent("a", l1.form), CurveComponent("b", Z))
    assert p == [ProjPoint((1, 1, 0))]
    back = line_through(ProjPoint((0, 0, 1)), ProjPoint((1, 1, 0)))
    assert back.form.proportional_to(TernaryForm.parse("x - y"))


# ---------------------------------------------------------------------------
# exact division


def test_exact_divide_basic():
    f = TernaryForm.parse("x^2 - y^2")
    g = TernaryForm.parse("x - y")
    h = exact_divide(f, g)
    assert h == TernaryForm.parse("x + y")
    assert exact_divide(f, TernaryForm.parse("x - z")) is None
    assert exact_divide(TernaryForm.zero(), g) == TernaryForm.zero()
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, TernaryForm.zero())


def test_exact_divide_random():
    rng = random.Random(606)
    for trial in range(40):
        g = random_form(rng, rng.randint(1, 2))
        h = random_form(rng, rng.randint(1, 2))
        f = g * h
        got = exact_divide(f, g)
        assert got == h
        mult = divisibility_multiplicity(f * g, g)
        assert mult >= 2


def test_divide_matches_sympy_reduced():
    x, y, z = sympy.symbols("x y z")
    rng = random.Random(4242)
    for trial in range(60):
        f = random_form(rng, rng.randint(1, 5))
        g = random_form(rng, rng.randint(1, 3), density=0.5)
        q, r = divide(f, g)
        (sq,), sr = sympy.reduced(sym(f), [sym(g)], x, y, z, order="lex")
        assert sym(q) == sympy.expand(sq), (f, g)
        assert sym(r) == sympy.expand(sr), (f, g)


def _integral(form: TernaryForm) -> bool:
    return all(type(c) is int for c in form.terms.values())


def test_integer_division_matches_sympy():
    # on integer forms and a primitive divisor the quotient is an int form,
    # and one extra monomial makes the division fail
    x, y, z = sympy.symbols("x y z")
    rng = random.Random(1818)
    failed = 0
    for trial in range(40):
        g = random_form(rng, rng.randint(1, 3)).primitive()
        h = random_form(rng, rng.randint(0, 3))
        f = g * h
        q, r = divide(f, g)
        assert sympy.div(sym(f), sym(g), x, y, z, domain="QQ") == (sym(h), 0)
        assert q == h and r.is_zero() and exact_divide(f, g) == h
        assert _integral(f) and _integral(q)
        m = rng.choice(TernaryForm.monomials_of_degree(f.degree))
        f = f + TernaryForm({m: rng.choice((-1, 1))})
        if sympy.div(sym(f), sym(g), x, y, z, domain="QQ")[1] == 0:
            continue  # g is a monomial dividing m
        failed += 1
        assert exact_divide(f, g) is None
        assert not divide(f, g)[1].is_zero()
    assert failed >= 30


def test_exact_divide_quotient_off_the_integers():
    # no integrality exit unless the dividend is integral and the divisor
    # primitive: then an exact quotient may have Fraction coefficients
    rng = random.Random(2323)
    for trial in range(20):
        g0 = random_form(rng, rng.randint(1, 2)).primitive()
        h0 = random_form(rng, rng.randint(1, 2)).primitive()
        c = rng.randint(2, 5)
        g, h = g0.scale(c), h0.scale(Fraction(1, c))
        f = g * h
        assert _integral(f) and not _integral(h)
        assert exact_divide(f, g) == h
        assert divide(f, g) == (h, TernaryForm.zero())
        assert exact_divide(f.scale(Fraction(1, c)), g0) == h
        assert exact_divide(f.scale(Fraction(1, c)), g) == h0.scale(Fraction(1, c * c))


def test_divisibility_multiplicity():
    f = TernaryForm.parse("x^2*y - 2*x*y^2 + y^3")  # y*(x-y)^2
    assert divisibility_multiplicity(f, TernaryForm.parse("x - y")) == 2
    assert divisibility_multiplicity(f, Y) == 1
    assert divisibility_multiplicity(f, Z) == 0
    with pytest.raises(ValueError):
        divisibility_multiplicity(f, TernaryForm.constant(2))


# ---------------------------------------------------------------------------
# pencil membership


def test_member_of_pencil_line_fibers():
    P = TernaryForm.parse("x^2 - y^2")
    Q = TernaryForm.parse("y^2 - z^2")
    # x - y divides P = fiber over (0:1)
    hit = member_of_pencil_dividing(TernaryForm.parse("x - y"), P, Q)
    assert hit == (P1Point(0, 1), 1)
    # y - z divides Q = fiber over (1:0)
    hit = member_of_pencil_dividing(TernaryForm.parse("y - z"), P, Q)
    assert hit == (P1Point(1, 0), 1)
    # x - z divides P + Q = fiber over (1:-1):  -1*P - 1*Q ~ P + Q
    hit = member_of_pencil_dividing(TernaryForm.parse("x - z"), P, Q)
    assert hit == (P1Point(1, -1), 1)
    # x + y + z is horizontal
    assert member_of_pencil_dividing(TernaryForm.parse("x + y + z"), P, Q) is None


def test_member_of_pencil_multiplicity():
    # fiber over (1:1) of (x^2(y-z)^2 : y^2(x-z)^2)-style squares
    P = TernaryForm.parse("x^2")
    Q = TernaryForm.parse("y*z")
    hit = member_of_pencil_dividing(X, P, Q)
    assert hit == (P1Point(0, 1), 2)
    hit = member_of_pencil_dividing(Y, P, Q)
    assert hit == (P1Point(1, 0), 1)
    hit = member_of_pencil_dividing(Z, P, Q)
    assert hit == (P1Point(1, 0), 1)


def test_member_of_pencil_conic_member():
    # the conic x^2 - y*z divides the fiber over (1:1) of <x^2 : y*z> shifted:
    # b1*P - b0*Q with (b0:b1) = (1:1) gives exactly x^2 - y*z
    P = TernaryForm.parse("x^2")
    Q = TernaryForm.parse("y*z")
    conic = TernaryForm.parse("x^2 - y*z")
    hit = member_of_pencil_dividing(conic, P, Q)
    assert hit == (P1Point(1, 1), 1)
    other = TernaryForm.parse("x^2 + y^2 + z^2")
    assert member_of_pencil_dividing(other, P, Q) is None


def test_member_of_pencil_quartic_member():
    # degree-4 member inside a quartic pencil
    P = TernaryForm.parse("x^2*y^2 - x^2*z^2")
    Q = TernaryForm.parse("x^2*y^2 - y^2*z^2")
    q1 = P + Q  # 2x^2y^2 - x^2z^2 - y^2z^2, fiber over (1:-1)
    hit = member_of_pencil_dividing(q1, P, Q)
    assert hit == (P1Point(1, -1), 1)
    q2 = P.scale(2) - Q  # fiber over (1:2)
    hit = member_of_pencil_dividing(q2, P, Q)
    assert hit == (P1Point(1, 2), 1)


def _oracle_fiber(fj, P, Q):
    """The fiber of span(P, Q) that fj divides, and the multiplicity, by sympy."""
    x, y, z, b0, b1 = sympy.symbols("x y z b0 b1")
    _, r = sympy.reduced(sym(P) * b1 - sym(Q) * b0, [sym(fj)], x, y, z, order="lex")
    # each coefficient of the remainder is linear in (b0, b1)
    rows = [[c.coeff(b0), c.coeff(b1)] for c in sympy.Poly(r, x, y, z).coeffs()]
    null = sympy.Matrix(rows).nullspace()
    assert len(null) <= 1, "fj divides both generators"
    if not null:
        return None
    v0, v1 = null[0]
    fiber, e = sympy.expand(sym(P) * v1 - sym(Q) * v0), 0
    while True:
        quotient, rest = sympy.div(fiber, sym(fj), x, y, z)
        if rest != 0:
            return P1Point(Fraction(str(v0)), Fraction(str(v1))), e
        fiber, e = quotient, e + 1


def test_member_of_pencil_matches_sympy_division():
    rng = random.Random(7331)
    for trial in range(30):
        d = rng.randint(2, 4)
        b = P1Point(rng.randint(-3, 3), rng.randint(1, 3))
        P = random_form(rng, d)
        if trial % 2:
            # the fiber over b gets a repeated linear factor fj
            fj = random_form(rng, 1)
            fiber = fj * fj * random_form(rng, d - 2)
            if b.coords[0] == 0:
                continue
            Q = (P.scale(b.coords[1]) - fiber).scale(Fraction(1, b.coords[0]))
        else:
            Q = random_form(rng, d)
            fiber = P.scale(b.coords[1]) - Q.scale(b.coords[0])
            factors = sympy.factor_list(sym(fiber))[1]
            text = str(factors[rng.randrange(len(factors))][0]).replace("**", "^")
            fj = TernaryForm.parse(text)
        if P.proportional_to(Q):
            continue
        horizontal = random_form(rng, rng.randint(1, d))
        for form in (fj, horizontal):
            assert member_of_pencil_dividing(form, P, Q) == _oracle_fiber(form, P, Q)
        point, e = member_of_pencil_dividing(fj, P, Q)
        assert point == b and e >= 1 + trial % 2


def test_member_of_pencil_integer_forms_match_sympy():
    rng = random.Random(9191)
    for trial in range(20):
        d = rng.randint(2, 4)
        b0, e = rng.randint(-3, 3), 1 + trial % 2
        fj = random_form(rng, 1).primitive()
        Q = random_form(rng, d)
        P = fj.power(e) * random_form(rng, d - e) + Q.scale(b0)  # fiber over (b0:1)
        if P.is_zero() or P.proportional_to(Q):
            continue
        assert _integral(P) and _integral(Q)
        found = member_of_pencil_dividing(fj, P, Q)
        assert found == _oracle_fiber(fj, P, Q)
        assert found[0] == P1Point(b0, 1) and found[1] >= e


def test_member_of_pencil_degenerate_rejected():
    P = TernaryForm.parse("x^2")
    with pytest.raises(ValueError):
        member_of_pencil_dividing(X, P, P.scale(3))
    with pytest.raises(ValueError):
        member_of_pencil_dividing(X, P, TernaryForm.parse("x*y*z"))
    # a common factor leaves both remainders zero: it divides every fiber
    with pytest.raises(ValueError, match="divides both generators"):
        member_of_pencil_dividing(X, P, TernaryForm.parse("x*y"))


def test_member_votes_respect_base_points():
    # the line x - y passes through base points of <x*z : y*z>; membership
    # still resolves because non-base rational points exist on it
    P = TernaryForm.parse("x*z")
    Q = TernaryForm.parse("y*z")
    hit = member_of_pencil_dividing(TernaryForm.parse("x - y"), P, Q)
    assert hit == (P1Point(1, 1), 1)
