"""Arrangement structure, block products, multiple points, subtori."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
import sympy

from arrfixtures import F, a3, deleted_b3, ex2, lines, triangle
from latticeref import lattice_key, saturate_lattice
from curvepencils.arrangement import (
    Arrangement,
    ArrangementError,
    CurveComponent,
    ExponentSubtorus,
    TorsionCharacter,
    _rational_points_on_curve,
    local_pencil_points,
    meeting_points,
)
from curvepencils.polyform import ProjPoint, TernaryForm


def test_construction_rejects_bad_input():
    with pytest.raises(ArrangementError):
        Arrangement([])
    with pytest.raises(ArrangementError):
        Arrangement(
            [CurveComponent("a", F("x")), CurveComponent("a", F("y"))]
        )
    with pytest.raises(ArrangementError):
        Arrangement(
            [CurveComponent("a", F("x")), CurveComponent("b", F("2*x"))]
        )
    with pytest.raises(ArrangementError):
        Arrangement([CurveComponent("a", F("x^2 - y*z"))], infinity_index=0)
    with pytest.raises(ArrangementError):
        Arrangement([CurveComponent("a", F("x"))], infinity_index=3)


def test_json_round_trip():
    doc = {
        "components": [
            {"label": "L1", "poly": "x"},
            {"label": "L2", "poly": "y - z"},
        ],
        "infinity": "L2",
    }
    arr = Arrangement.from_json(doc)
    assert arr.infinity_index == 1
    assert arr.to_json() == doc


def test_json_errors():
    with pytest.raises(ArrangementError):
        Arrangement.from_json({})
    with pytest.raises(ArrangementError):
        Arrangement.from_json({"components": [{"label": "a"}]})
    with pytest.raises(ArrangementError):
        Arrangement.from_json(
            {"components": [{"label": "a", "poly": "x + 1"}]}
        )
    with pytest.raises(ArrangementError):
        Arrangement.from_json(
            {"components": [{"label": "a", "poly": "x"}], "infinity": "b"}
        )
    with pytest.raises(ArrangementError, match="unknown key 'infinty'"):
        Arrangement.from_json(
            {"components": [{"label": "a", "poly": "x"}], "infinty": "a"}
        )
    with pytest.raises(ArrangementError, match="unknown key 'extra_points'"):
        Arrangement.from_json(
            {"components": [{"label": "a", "poly": "x"}], "extra_points": [[0, 0, 1]]}
        )


def test_local_pencil_points_deleted_b3():
    arr = deleted_b3()
    points = [p for p in local_pencil_points(arr) if p.yields_local_pencil]
    expected = {
        (0, 0, 1): (0, 2, 5),
        (0, 1, 0): (0, 1, 7),
        (0, 1, 1): (0, 3, 6),
        (1, 0, 0): (2, 3, 7),
        (1, 0, 1): (1, 2, 4),
        (1, 1, 0): (4, 5, 6, 7),
        (1, 1, 1): (1, 3, 5),
    }
    assert {p.point.coords: p.incident for p in points} == expected
    assert all(p.degree == 1 and p.span_dim == 2 for p in points)


def test_local_pencil_points_double_points_do_not_yield():
    arr = triangle()
    points = local_pencil_points(arr)
    assert len(points) == 3
    assert not any(p.yields_local_pencil for p in points)


def test_local_pencil_points_ex2_has_none():
    # the conic passes through two corners, but never with two same-degree
    # companions
    assert not any(p.yields_local_pencil for p in local_pencil_points(ex2()))


def test_local_pencil_points_extra_points_for_curves():
    # three conics of one pencil, c = 2a + b, with no line among them: the
    # base points of the pencil are (0:0:1), (1:1:1) and two conjugate
    # points, and the meeting points of the conics find both rational ones
    conics = [
        CurveComponent("a", F("x^2 - y*z")),
        CurveComponent("b", F("y^2 - x*z")),
        CurveComponent("c", F("2*x^2 + y^2 - x*z - 2*y*z")),
    ]
    pts = local_pencil_points(Arrangement(conics))
    assert [p.point for p in pts] == [ProjPoint((0, 0, 1)), ProjPoint((1, 1, 1))]
    for p in pts:
        assert p.incident == (0, 1, 2)
        assert p.degree == 2
        assert p.yields_local_pencil


def _form_through(rng, degree, points):
    """A random integer form of the degree through the points, or None."""
    monomials = TernaryForm.monomials_of_degree(degree)
    conditions = sympy.Matrix(
        [[p[0] ** a * p[1] ** b * p[2] ** c for a, b, c in monomials] for p in points]
    )
    vec = sympy.zeros(len(monomials), 1)
    for v in conditions.nullspace():
        vec += rng.randint(-3, 3) * v
    form = TernaryForm({m: Fraction(int(c.p), int(c.q)) for m, c in zip(monomials, vec)})
    return form if form.degree == degree else None


def _sympy_meeting_points(f, g):
    """Rational common points of f and g in the charts z = 1, (x:1:0) and (1:0:0)."""
    x, y, z = sympy.symbols("x y z")
    F = sympy.Poly(sympy.sympify(str(f).replace("^", "**")), x, y, z).as_expr()
    G = sympy.Poly(sympy.sympify(str(g).replace("^", "**")), x, y, z).as_expr()
    out = set()
    res = sympy.resultant(F.subs(z, 1), G.subs(z, 1), y)
    for x0 in sympy.Poly(res, x).ground_roots():
        common = sympy.gcd(F.subs({x: x0, z: 1}), G.subs({x: x0, z: 1}))
        for y0 in sympy.Poly(common, y).ground_roots():
            out.add(ProjPoint((Fraction(int(x0.p), int(x0.q)), Fraction(int(y0.p), int(y0.q)), 1)))
    common = sympy.gcd(F.subs({y: 1, z: 0}), G.subs({y: 1, z: 0}))
    for x0 in sympy.Poly(common, x).ground_roots():
        out.add(ProjPoint((Fraction(int(x0.p), int(x0.q)), 1, 0)))
    if F.subs({x: 1, y: 0, z: 0}) == 0 and G.subs({x: 1, y: 0, z: 0}) == 0:
        out.add(ProjPoint((1, 0, 0)))
    return out


@pytest.mark.parametrize("degree,draws", [(2, 40), (3, 15)])
def test_meeting_points_match_sympy(degree, draws):
    # curves of one degree through 1-3 chosen rational points, some at
    # infinity; sympy solves the system chart by chart
    rng = random.Random(1100 + degree)
    checked = 0
    while checked < draws:
        chosen = [
            tuple(rng.randint(-3, 3) for _ in range(2)) + (rng.choice((0, 1, 1, 1)),)
            for _ in range(rng.randint(1, 3))
        ]
        if any(not any(p) for p in chosen):
            continue
        f = _form_through(rng, degree, chosen)
        g = _form_through(rng, degree, chosen)
        if f is None or g is None:
            continue
        x, y, z = sympy.symbols("x y z")
        exprs = [sympy.sympify(str(h).replace("^", "**")) for h in (f, g)]
        if sympy.Poly(sympy.gcd(*exprs), x, y, z).total_degree() > 0:
            continue
        ours = meeting_points(CurveComponent("f", f), CurveComponent("g", g))
        assert set(ours) == _sympy_meeting_points(f, g), (str(f), str(g))
        assert ours == sorted(set(ours))
        assert {ProjPoint(p) for p in chosen} <= set(ours)
        checked += 1


def test_shared_factor_raises_under_optimization():
    # the check must survive python -O, which strips asserts
    code = """
from curvepencils.arrangement import Arrangement, ArrangementError, CurveComponent, local_pencil_points
from curvepencils.polyform import TernaryForm
arr = Arrangement([CurveComponent("A", TernaryForm.parse("x*y")), CurveComponent("B", TernaryForm.parse("x*z - x*y"))])
try:
    local_pencil_points(arr)
except ArrangementError as exc:
    print(exc)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert "components 'A' and 'B' share a factor" in done.stdout


def test_irreducibility_warning_on_split_conic():
    arr = Arrangement(
        [CurveComponent("a", F("x*y")), CurveComponent("b", F("z"))]
    )
    assert arr.irreducibility_warnings()
    assert not triangle().irreducibility_warnings()


def test_rational_points_lie_on_the_curve():
    # a probe restriction that drops degree has its root at the point q of
    # the chart t -> p + t*q, not at p
    rng = random.Random(606)
    forms = [F("x^2 - 2*x*y - 2*x*z - 2*z^2")]
    for degree in [2] * 40 + [4] * 40:
        terms = {m: Fraction(rng.randint(-3, 3)) for m in TernaryForm.monomials_of_degree(degree)}
        form = TernaryForm(terms)
        if form.degree == degree:
            forms.append(form)
    for form in forms:
        for point in _rational_points_on_curve(form, want=6):
            assert form.evaluate(point.coords) == 0, (str(form), str(point))


def test_torsion_character_basics():
    chi = TorsionCharacter([0, Fraction(1, 2), Fraction(1, 3)])
    assert not chi.is_trivial()
    assert lcm(*(e.denominator for e in chi.exponents)) == 6
    assert chi.value_strings() == ("1", "-1", "e(1/3)")
    # the degree relation sum_j d_j e_j = 0 mod 1
    assert sum(d * e for d, e in zip([1, 2, 3], chi.exponents)) % 1 == 0
    assert sum(d * e for d, e in zip([1, 1, 1], chi.exponents)) % 1 != 0


def test_torsion_character_normalizes_exponents():
    # exponents are reduced into [0, 1) as Fractions
    a, b = Fraction(3, 4), Fraction(1, 2)
    chi = TorsionCharacter([a + b, a - b, -a, 3 * a, Fraction(7, 3)])
    assert chi.exponents == (Fraction(1, 4),) * 4 + (Fraction(1, 3),)
    assert all(type(e) is Fraction for e in chi.exponents)
    assert TorsionCharacter([a]).exponents[0].denominator == 4
    assert TorsionCharacter([0, 1, -2, Fraction(5, 1)]).is_trivial()
    assert not TorsionCharacter([0, a]).is_trivial()
    assert TorsionCharacter([]).exponents == ()


def test_torsion_character_value_strings():
    chi = TorsionCharacter([0, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(3, 2)])
    assert chi.value_strings() == ("1", "-1", "e(1/3)", "e(2/3)", "-1")
    assert str(chi) == "(1,-1,e(1/3),e(2/3),-1)"


def test_subtorus_monomials_and_zero_rows():
    sub = ExponentSubtorus(
        tuple((v,) for v in (1, -1, -1, 1, 2, 0, -2, 0))
    )
    assert sub.dimension == 1
    assert sub.monomial_strings() == (
        "t", "t^-1", "t^-1", "t", "t^2", "1", "t^-2", "1"
    )
    assert sub.zero_rows() == (5, 7)


def test_subtorus_perp_lattice():
    sub = ExponentSubtorus(((2, 0), (0, 1), (0, 1), (-1, -1)))
    assert sub.dimension == 2
    expected = lattice_key(
        saturate_lattice([(1, 2, 0, 2), (1, 1, 1, 2)], 4), 4
    )
    assert sub.perp_lattice_key() == expected


def test_subtorus_saturated_key_ignores_scaling():
    sub1 = ExponentSubtorus(((1,), (-1,), (0,)))
    sub2 = ExponentSubtorus(((2,), (-2,), (0,)))
    assert sub1.saturated_key() == sub2.saturated_key()


def test_with_infinity_and_queries():
    arr = lines("x", "y", "z")
    assert arr.infinity_index is None
    arr2 = arr.with_infinity(2)
    assert arr2.infinity_index == 2
    assert arr2.affine_indices() == (0, 1)
    assert arr2.is_line_arrangement()
    assert arr2.index_of("L2") == 1
    with pytest.raises(KeyError):
        arr2.index_of("nope")
