"""Arrangement structure, block products, multiple points, subtori."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from arrfixtures import F, a3, deleted_b3, ex2, lines, triangle
from curvepencils.arrangement import (
    Arrangement,
    ArrangementError,
    CurveComponent,
    ExponentSubtorus,
    TorsionCharacter,
    _rational_points_on_curve,
    local_pencil_points,
)
from curvepencils.exactalg import lattice_key, saturate_lattice
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
        "extra_points": [[1, 0, 0]],
    }
    arr = Arrangement.from_json(doc)
    assert arr.infinity_index == 1
    assert arr.extra_points == (ProjPoint((1, 0, 0)),)
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
    with pytest.raises(ArrangementError):
        Arrangement.from_json(
            {"components": [{"label": "a", "poly": "x"}], "extra_points": [[1, 2]]}
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
    # three conics sharing (1:1:1) inside a 2-dimensional span; without the
    # extra point no pair of lines witnesses the intersection
    conics = [
        CurveComponent("a", F("x^2 - y*z")),
        CurveComponent("b", F("y^2 - x*z")),
        CurveComponent("c", F("2*x^2 + y^2 - x*z - 2*y*z")),
    ]
    assert local_pencil_points(Arrangement(conics)) == []
    pts = local_pencil_points(Arrangement(conics, extra_points=[ProjPoint((1, 1, 1))]))
    assert len(pts) == 1
    assert pts[0].incident == (0, 1, 2)
    assert pts[0].degree == 2
    assert pts[0].yields_local_pencil


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
    assert chi.order == 6
    assert chi.value_strings() == ("1", "-1", "e(1/3)")
    assert chi.satisfies_degree_relation([1, 2, 3])
    assert not chi.satisfies_degree_relation([1, 1, 1])


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
