"""Classification, special fibers, base-locus identities, and the search."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from arrfixtures import (
    F,
    a2,
    a2_pencil,
    a3,
    a3_pencil,
    b3,
    b3_pencil,
    braid_pencil,
    ceva2,
    ceva2_pencil,
    ceva3,
    ceva3_pencil,
    deleted_b3,
    deleted_b3_plus_a_line,
    ex2,
    ex2_pencil,
    exfin3,
    exfin3_pencil,
    four_generic_lines,
    fw_pencil,
    triangle,
)
from drawref import Reference, combination_pairs, disjoint_pairs
from latticeref import lattice_key, saturate_lattice
from curvepencils.arrangement import (
    Arrangement,
    CurveComponent,
    pullback_subtorus,
)
from curvepencils.exactalg import projective_profile
from curvepencils import pencil as pencil_module
from curvepencils.pencil import (
    BlowupCluster,
    Pencil,
    PencilError,
    ProbeDegeneracyError,
    ProbeSequence,
    _Block,
    _SearchTables,
    _certified_profile,
    _classify_pair,
    _finish_classification,
    _formal_discriminant,
    _partition_saturated,
    _projected_resultant_profile,
    _vote,
    classify,
    detect_special_fibers,
    fy_identities,
    iter_block_pairs,
    pencil_search,
    self_intersection,
)
from curvepencils.polyform import P1Point, ProjLine, TernaryForm, cross

FIXTURES = Path(__file__).parent / "fixtures"


def P1(b0, b1) -> P1Point:
    return P1Point(b0, b1)


def placement_map(classification):
    return {
        j: (p.kind, p.point, p.multiplicity)
        for j, p in enumerate(classification.placements)
    }


# -- construction and validation ---------------------------------------------


def test_pencil_rejects_degenerate_generators():
    with pytest.raises(PencilError):
        Pencil(F("x"), F("y*z"))
    with pytest.raises(PencilError):
        Pencil(F("x*y"), F("3*x*y"))
    with pytest.raises(PencilError):
        Pencil(F("x"), F("0"))


def test_validate_pencil_common_factor():
    arr = triangle()
    with pytest.raises(PencilError, match="common factor 'T1' in both generators"):
        classify(arr, Pencil(F("x*y"), F("x*z")))
    classify(arr, Pencil(F("x*y"), F("z^2")))


def test_place_reraises_other_value_errors(monkeypatch):
    # only a common factor becomes the PencilError; a broken invariant stays loud
    def broken(fj, P, Q):
        raise ValueError("members are nonconstant forms")

    monkeypatch.setattr(pencil_module, "member_of_pencil_dividing", broken)
    with pytest.raises(ValueError, match="members are nonconstant forms"):
        pencil_module._place(Pencil(F("x*y"), F("x*z")), triangle().components[0], None)


def test_pencil_from_json_blocks():
    arr = triangle()
    pencil = Pencil.from_json(
        {
            "blocks": [
                {"members": ["T1"], "multiplicities": [2]},
                {"members": ["T2", "T3"], "multiplicities": [1, 1]},
            ]
        },
        arr,
    )
    assert pencil.P.proportional_to(F("x^2"))
    assert pencil.Q.proportional_to(F("y*z"))
    with pytest.raises(PencilError):
        Pencil.from_json({"blocks": [{"members": ["T1"], "multiplicities": [1]}]}, arr)
    with pytest.raises(PencilError):
        Pencil.from_json(
            {
                "blocks": [
                    {"members": ["nope"], "multiplicities": [2]},
                    {"members": ["T2"], "multiplicities": [2]},
                ]
            },
            arr,
        )


def test_pencil_from_json_later_blocks():
    # a braid partition of deleted B3: L1*L5 | L2*L6 | L3*L8
    arr = deleted_b3()
    blocks = [
        {"members": ["L1", "L5"], "multiplicities": [1, 1]},
        {"members": ["L2", "L6"], "multiplicities": [1, 1]},
        {"members": ["L3", "L8"], "multiplicities": [1, 1]},
    ]
    three = Pencil.from_json({"blocks": blocks}, arr)
    assert three == Pencil.from_json({"blocks": blocks[:2]}, arr)
    assert three.P.proportional_to(braid_pencil().P)
    assert three.Q.proportional_to(braid_pencil().Q)
    for third, fragment in [
        ({"members": ["L3"], "multiplicities": [1]}, "block 3 has degree 1"),
        ({"members": ["L3", "L4"], "multiplicities": [1, 1]}, "block 3 is not a fiber"),
        ({"members": ["L3", "L9"], "multiplicities": [1, 1]}, "unknown component label"),
    ]:
        with pytest.raises(PencilError, match=fragment):
            Pencil.from_json({"blocks": blocks[:2] + [third]}, arr)


# -- classification ------------------------------------------------------------


@pytest.mark.parametrize("name", ["a2", "a3", "b3", "ceva2", "ceva3", "ex2", "exfin3"])
def test_pencil_layer_forms_are_integer(name):
    # components are primitive integer forms, so block products, fibers at
    # integer points and cofactors by components are integer forms
    arr = Arrangement.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    pencil = Pencil.from_json(json.loads((FIXTURES / f"{name}pencil.json").read_text()), arr)
    classification = classify(arr, pencil)
    forms = [arr.block_form((j, 2) for j in range(arr.size))]
    for b, data in classification.fibers.items():
        forms += [arr.block_form(data.members), pencil.fiber(b), data.cofactor]
    for form in forms:
        assert all(type(c) is int for c in form.terms.values()), form
    for comp in arr.components:
        assert comp.vote_points is comp.vote_points
        assert all(type(c) is int for p in comp.vote_points for c in p)
        assert len(comp.vote_points) == (4 if comp.degree == 1 else 0)


@pytest.mark.parametrize("name", ["exfin3", "ex2", "a2"])
def test_rational_pencil_classifies_as_its_cleared_multiple(name):
    # one common integer clears the generators' denominators, so (P/2, Q/3)
    # classifies as (3P, 2Q); its fiber over (b0 : b1) is that of (P, Q)
    # over (2*b0 : 3*b1)
    arr = Arrangement.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    doc = json.loads((FIXTURES / f"{name}pencil.json").read_text())
    P, Q = TernaryForm.parse(doc["P"]), TernaryForm.parse(doc["Q"])
    rational = Pencil(P.scale(Fraction(1, 2)), Q.scale(Fraction(1, 3)))
    assert all(type(c) is int for F in (rational.P, rational.Q) for c in F.terms.values())

    def summary(pencil, move=lambda b: b):
        cl = detect_special_fibers(classify(arr, pencil))
        return (
            [(p.kind, p.point and move(p.point), p.multiplicity) for p in cl.placements],
            sorted(move(b) for b in cl.base_points),
            sorted((move(sp.point), sp.members, sp.m_prime, sp.m_dprime) for sp in cl.special_points),
        )

    got = summary(rational)
    assert got == summary(Pencil(P.scale(3), Q.scale(2)))
    assert summary(rational, lambda b: P1(2 * b.coords[0], 3 * b.coords[1])) == summary(
        Pencil(P, Q)
    )
    assert any(point for _, point, _ in got[0])


def test_classify_fw():
    arr = deleted_b3()
    c = classify(arr, fw_pencil())
    assert c.base_points == (P1(0, 1), P1(1, 0))
    assert c.type2_points == (P1(1, 1),)
    assert c.k == 2
    assert c.special and not c.minimal
    pm = placement_map(c)
    assert pm[0] == ("type1", P1(0, 1), 1)
    assert pm[3] == ("type1", P1(0, 1), 1)
    assert pm[4] == ("type1", P1(0, 1), 2)
    assert pm[1] == ("type1", P1(1, 0), 1)
    assert pm[2] == ("type1", P1(1, 0), 1)
    assert pm[6] == ("type1", P1(1, 0), 2)
    assert pm[5] == ("type2", P1(1, 1), 1)
    assert pm[7] == ("type2", P1(1, 1), 1)
    cof = c.fibers[P1(1, 1)].cofactor
    assert cof.proportional_to(F("x + y - z").power(2))
    assert c.divisor_string(P1(0, 1)) == "L1 + L4 + 2*L5"


def test_classify_braid():
    arr = deleted_b3()
    c = classify(arr, braid_pencil())
    assert c.base_points == (P1(0, 1), P1(1, 0), P1(1, 1))
    assert c.k == 3
    assert not c.special and not c.minimal
    pm = placement_map(c)
    assert pm[3][0] == "horizontal"
    assert pm[6][0] == "horizontal"
    assert pm[0] == ("type1", P1(0, 1), 1)
    assert pm[4] == ("type1", P1(0, 1), 1)
    assert pm[1] == ("type1", P1(1, 0), 1)
    assert pm[5] == ("type1", P1(1, 0), 1)
    assert pm[2] == ("type1", P1(1, 1), 1)
    assert pm[7] == ("type1", P1(1, 1), 1)


def test_classify_ex2():
    arr = ex2()
    c = classify(arr, ex2_pencil())
    assert c.base_points == (P1(0, 1), P1(1, 0), P1(1, 1))
    assert c.minimal and not c.special
    assert c.fiber_members(P1(0, 1)) == ((0, 2),)
    assert c.fiber_members(P1(1, 0)) == ((1, 1), (2, 1))
    assert c.fiber_members(P1(1, 1)) == ((3, 1),)
    assert c.divisor_string(P1(0, 1)) == "2*C1"
    assert c.divisor_string(P1(1, 0)) == "C2 + C3"


def test_classify_a2():
    arr = a2()
    c = classify(arr, a2_pencil())
    assert c.base_points == (P1(0, 1), P1(1, 0))
    assert c.type2_points == (P1(1, 1),)
    assert c.fiber_members(P1(0, 1)) == ((0, 2), (6, 1), (7, 1))
    assert c.fiber_members(P1(1, 0)) == ((1, 2), (4, 1), (5, 1))
    assert c.fiber_members(P1(1, 1)) == ((2, 1), (3, 1))


def test_classify_a3():
    arr = a3()
    c = classify(arr, a3_pencil())
    assert c.base_points == (P1(0, 1), P1(1, 0))
    assert c.fiber_members(P1(0, 1)) == ((0, 3), (6, 1), (7, 1))
    assert c.fiber_members(P1(1, 0)) == ((1, 3), (4, 1), (5, 1))
    assert c.fiber_members(P1(1, 1)) == ((2, 1), (3, 1))
    assert c.fibers[P1(1, 1)].cofactor.proportional_to(F("z").power(3))


def test_classify_exfin3():
    arr = exfin3()
    c = classify(arr, exfin3_pencil())
    assert c.base_points == (P1(1, -1), P1(1, 2))
    assert c.fiber_members(P1(1, -1)) == ((6, 1),)
    assert c.fiber_members(P1(1, 2)) == ((7, 1),)
    assert c.type2_points == (P1(0, 1), P1(1, 0), P1(1, 1))
    assert c.fiber_members(P1(0, 1)) == ((4, 1), (5, 1))
    assert c.fiber_members(P1(1, 0)) == ((2, 1), (3, 1))
    assert c.fiber_members(P1(1, 1)) == ((0, 1), (1, 1))


def test_classify_line_without_votes_uses_the_kernel_solve(monkeypatch):
    # the four vote points of z, (0:1:0), (1:0:0), (1:1:0), (2:1:0), are
    # exactly where z meets the four concurrent lines of Q: all base points,
    # so z reaches the last rung, the normal-form test (the test id keeps
    # its older name for that rung, the kernel solve)
    arr = Arrangement(
        [CurveComponent(label, F(poly)) for label, poly in
         [("Z", "z"), ("X", "x"), ("Y", "y"), ("M", "x - y"), ("N", "x - 2*y")]]
    )
    pencil = Pencil(F("z^4"), F("x") * F("y") * F("x - y") * F("x - 2*y"))
    assert all(
        pencil.P.evaluate(p.coords) == 0 and pencil.Q.evaluate(p.coords) == 0
        for p in ProjLine(F("z")).rational_points(4)
    )
    solved = []
    kernel_solve = pencil_module.member_of_pencil_dividing

    def spy(fj, P, Q):
        solved.append(fj)
        return kernel_solve(fj, P, Q)

    monkeypatch.setattr(pencil_module, "member_of_pencil_dividing", spy)
    c = classify(arr, pencil)
    # only the vote-less line reaches the normal-form rung; the others voted
    assert solved == [F("z")]
    assert kernel_solve(F("z"), pencil.P, pencil.Q) == (P1(0, 1), 4)
    pm = placement_map(c)
    assert pm[0] == ("type1", P1(0, 1), 4)
    assert all(pm[j] == ("type1", P1(1, 0), 1) for j in range(1, 5))
    assert c.base_points == (P1(0, 1), P1(1, 0))


def test_reducible_component_raises():
    # XY = X*Y: its fiber members overshoot the pencil degree
    comps = [("X", "x"), ("Y", "y"), ("XY", "x*y"), ("Z", "z")]
    arr = Arrangement([CurveComponent(label, F(poly)) for label, poly in comps], 3)
    with pytest.raises(PencilError, match=r"over \(0:1\) exceed the fiber"):
        classify(arr, Pencil(F("x*y"), F("z^2")))
    with pytest.raises(PencilError, match=r"fiber degrees failed to add up over"):
        pencil_search(_SearchTables(arr, 2), 3)


# -- special fibers -------------------------------------------------------------


def test_detect_fw():
    arr = deleted_b3()
    c = detect_special_fibers(classify(arr, fw_pencil()))
    assert len(c.special_points) == 1
    sp = c.special_points[0]
    assert sp.point == P1(1, 1)
    assert sp.members == ((5, 1), (7, 1))
    assert sp.m_prime == 1
    assert sp.m_dprime == 2
    assert sp.new_part_profile == ((2, 1),)
    assert not c.conditional


def test_detect_braid_and_ex2_empty():
    arr = deleted_b3()
    c = detect_special_fibers(classify(arr, braid_pencil()))
    assert c.special_points == ()
    arr = ex2()
    c = detect_special_fibers(classify(arr, ex2_pencil()))
    assert c.special_points == ()


def test_detect_a2_a3():
    arr = a2()
    c = detect_special_fibers(classify(arr, a2_pencil()))
    assert [(sp.point, sp.m_prime, sp.m_dprime) for sp in c.special_points] == [
        (P1(1, 1), 1, 2)
    ]
    arr = a3()
    c = detect_special_fibers(classify(arr, a3_pencil()))
    assert [(sp.point, sp.m_prime, sp.m_dprime) for sp in c.special_points] == [
        (P1(1, 1), 1, 3)
    ]


def test_detect_exfin3():
    arr = exfin3()
    c = detect_special_fibers(classify(arr, exfin3_pencil()))
    got = [
        (sp.point, sp.members, sp.m_prime, sp.m_dprime) for sp in c.special_points
    ]
    assert got == [
        (P1(0, 1), ((4, 1), (5, 1)), 1, 2),
        (P1(1, 0), ((2, 1), (3, 1)), 1, 2),
        (P1(1, 1), ((0, 1), (1, 1)), 1, 2),
    ]


def test_detect_conic_fibers():
    # a type-2 cofactor and a double fiber that are the conic x*z = y^2,
    # which holds every point of a moment curve
    arr = triangle()
    pencil = Pencil(F("x*y^2 - x^2*z"), F("y^3 + z^3"))
    c = detect_special_fibers(classify(arr, pencil))
    assert [(sp.point, sp.members, sp.m_dprime, sp.new_part_profile) for sp in c.special_points] == [
        (P1(0, 1), ((0, 1),), 1, ((1, 2),))
    ]
    pencil = Pencil(F("x*z - y^2").power(2), F("x*y") * F("x^2 + y^2 + z^2 + x*z"))
    c = detect_special_fibers(classify(arr, pencil))
    assert [(sp.point, sp.members, sp.m_dprime, sp.new_part_profile) for sp in c.special_points] == [
        (P1(0, 1), (), 2, ((2, 2),)),
        (P1(1, 0), ((0, 1), (1, 1)), 1, ((1, 2),)),
    ]
    assert not c.conditional


def test_conic_pencil_through_the_probe_conic():
    # y^2 - x*z is a full fiber, so the first FY center (1 : 1 : 1), a base
    # point, and every other point of a moment curve lie on a fiber
    arr = Arrangement(
        [
            CurveComponent("a", F("x^2 - y*z")),
            CurveComponent("b", F("y^2 - x*z")),
            CurveComponent("c", F("2*x^2 + y^2 - x*z - 2*y*z")),
        ]
    )
    pencil = Pencil(F("x^2 - y*z"), F("y^2 - x*z"))
    c = classify(arr, pencil)
    assert c.base_points == (P1(0, 1), P1(1, -2), P1(1, 0))
    report = fy_identities(c)
    assert report.passed and report.profile == ((1, 4),)
    c = detect_special_fibers(c)
    assert c.special_points == () and not c.conditional


def test_detect_irrational_double_fibers(monkeypatch):
    # the fibers over c = +-2*sqrt(2) are squares of lines that are not
    # rational: the rootless factor outlasts the whole bounded walk
    valid = []

    def counting(pencil, line):
        disc = family_discriminant(pencil, line)
        valid.append(disc is not None)
        assert len(valid) <= 40, "the discriminant walk does not stop"
        return disc

    family_discriminant = pencil_module._family_discriminant
    monkeypatch.setattr(pencil_module, "_family_discriminant", counting)
    arr = triangle()
    pencil = Pencil(F("x^2 + 2*y^2"), F("x*y"))
    c = detect_special_fibers(classify(arr, pencil))
    assert c.special_points == ()
    assert c.warnings == (
        "discriminant keeps a degree-2 factor without rational roots; "
        "possible special fibers over irrational points",
    )
    assert c.conditional
    D = pencil.degree
    assert sum(valid) == 3 * D * (D - 1) + D + 1


def test_probe_sequence_general_position():
    # no three probe lines meet in a point and no three probe points lie on
    # a line, so every count of bad probes in `pencil` holds
    lines = [line.form.coefficient_vector() for line in itertools.islice(ProbeSequence.lines(), 30)]
    points = [p.coords for p in itertools.islice(ProbeSequence.points(), 30)]
    for rows in (lines, points):
        for a, b, c in itertools.combinations(rows, 3):
            assert sum(u * v for u, v in zip(a, cross(b, c))) != 0


def test_probe_points_lie_on_no_curve():
    # a form of degree d vanishes at no (d + 1)(d + 2)/2 of the probe
    # points: the evaluation matrix of the first ones has full rank
    points = [p.coords for p in itertools.islice(ProbeSequence.points(), 15)]
    for d in range(1, 5):
        monomials = TernaryForm.monomials_of_degree(d)
        rows = [[x**a * y**b * z**c for a, b, c in monomials] for x, y, z in points]
        assert sympy.Matrix(rows[: len(monomials)]).rank() == len(monomials)


def test_discriminant_degree_bound_violation_raises(monkeypatch):
    # each sample is a (2D - 1)-square determinant with entries linear in c,
    # so a discriminant of degree 2D is a broken invariant, not a bad probe
    monkeypatch.setattr(
        pencil_module, "_formal_discriminant", lambda g, D: (sum(g) ** 2 + g[D] ** 2) ** D
    )
    arr = deleted_b3()
    with pytest.raises(PencilError, match="degree bound"):
        detect_special_fibers(classify(arr, fw_pencil()))


def test_certified_profile_walks_past_a_special_first_line():
    # c = (1 : 1 : 1) is off both conics, and the first line through it, to
    # (0 : 1 : 0), is x = z: tangent to the smooth conic at (1 : 0 : 1) and
    # through the node (1 : 0 : 1) of the line pair, so both read as a
    # double line there
    for text in ("y^2 - x*z + z^2", "x^2 - 2*x*z + z^2 - y^2"):
        form = F(text)
        assert projective_profile(form.restrict_span((1, 1, 1), (0, 1, 0)), 2) == ((2, 1),)
        assert _certified_profile(form) == ((1, 2),)
    # (1 : 1 : 1) lies on this conic, which holds every point of a moment
    # curve, so c moves on to (1 : 2 : 3)
    conic = F("x*z - y^2")
    assert _certified_profile(conic) == ((1, 2),)
    assert _certified_profile(conic.power(2)) == ((2, 2),)


@st.composite
def _power_product(draw) -> TernaryForm:
    """A product of powers of random forms, of total degree 1 to 6."""
    form, degree = TernaryForm.constant(1), 0
    for _ in range(draw(st.integers(1, 3))):
        if degree == 6:
            break
        d = draw(st.integers(1, min(3, 6 - degree)))
        e = draw(st.integers(1, (6 - degree) // d))
        monomials = TernaryForm.monomials_of_degree(d)
        size = len(monomials)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size).filter(any))
        form = form * TernaryForm(dict(zip(monomials, coeffs))).power(e)
        degree += d * e
    return form


@settings(max_examples=60, deadline=None)
@given(_power_product())
def test_certified_profile_matches_sympy(form):
    x, y, z = sympy.symbols("x y z")
    merged: dict[int, int] = {}
    for factor, m in sympy.factor_list(sympy.sympify(str(form).replace("^", "**")))[1]:
        merged[m] = merged.get(m, 0) + sympy.Poly(factor, x, y, z).total_degree()
    assert _certified_profile(form) == tuple(sorted(merged.items()))


# -- base-locus identities ------------------------------------------------------


def test_fy_b3():
    arr = b3()
    report = fy_identities(classify(arr, b3_pencil()))
    assert report.passed
    assert report.total == 16 and report.total_expected == 16
    assert report.member_degree_sum == 12 and report.member_degree_expected == 12
    values = sorted(n for _, n in report.point_table)
    assert values == [1, 1, 1, 1, 4, 4, 4]


def test_fy_ceva2():
    arr = ceva2()
    report = fy_identities(classify(arr, ceva2_pencil()))
    assert report.passed
    assert sorted(n for _, n in report.point_table) == [1, 1, 1, 1]


def test_fy_braid():
    arr = deleted_b3()
    report = fy_identities(classify(arr, braid_pencil()))
    assert report.passed
    assert sorted(n for _, n in report.point_table) == [1, 1, 1, 1]


def test_fy_ceva3_resultant_path():
    arr = ceva3()
    report = fy_identities(classify(arr, ceva3_pencil()))
    assert report.passed
    assert report.point_table is None
    assert report.profile == ((1, 9),)
    assert report.total == 9
    assert report.member_degree_sum == 9


def test_fy_gives_up_after_twelve_centers(monkeypatch):
    # every usable center is counted, so centers that all fail end the
    # search with an error instead of drawing points forever
    calls = []

    def failing_profile(f1, f2, center):
        calls.append(center)
        return None

    monkeypatch.setattr(pencil_module, "_projected_resultant_profile", failing_profile)
    arr = ceva3()
    with pytest.raises(ProbeDegeneracyError, match="no usable projection centers"):
        fy_identities(classify(arr, ceva3_pencil()))
    assert len(set(calls)) == 12


@st.composite
def _pencil_with_fibers(draw):
    """Two random forms of degree 2 or 3 and three or four distinct fiber points."""
    D = draw(st.integers(2, 3))
    monomials = TernaryForm.monomials_of_degree(D)
    coeffs = st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials))
    P, Q = (TernaryForm(dict(zip(monomials, draw(coeffs)))) for _ in range(2))
    points = draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(lambda b: P1Point(*b)),
            min_size=3,
            max_size=4,
            unique=True,
        )
    )
    return P, Q, points


@settings(max_examples=40, deadline=None)
@given(_pencil_with_fibers())
def test_every_fiber_pair_gives_one_projected_resultant_profile(case):
    # why `_fy_resultant_profile` reads one pair: distinct fibers are invertible
    # combinations of P and Q, and Res scales by the determinant to the D
    P, Q, points = case
    try:
        pencil = Pencil(P, Q)
    except PencilError:
        assume(False)
    fibers = [pencil.fiber(b) for b in points]
    center = next(
        p.coords
        for p in ProbeSequence.points()
        if all(f.evaluate(p.coords) for f in fibers)
    )
    profiles = {
        _projected_resultant_profile(f1, f2, center)
        for f1, f2 in itertools.combinations(fibers, 2)
    }
    assert len(profiles) == 1


def test_fy_rejects_incomplete():
    arr = deleted_b3()
    with pytest.raises(PencilError, match="type-2"):
        fy_identities(classify(arr, fw_pencil()))
    arr = triangle()
    c = classify(arr, Pencil(F("x^2 + y^2"), F("x*z")))
    with pytest.raises(PencilError, match="two full fibers"):
        fy_identities(c)


# -- self-intersection ----------------------------------------------------------


def test_self_intersection_b3_auto():
    arr = b3()
    report = self_intersection(classify(arr, b3_pencil()))
    assert report.value == -3
    assert report.curve_degree == 9
    mults = sorted(c.multiplicity for c in report.clusters)
    assert mults == [3, 3, 3, 3, 4, 4, 4]
    assert report.non_positive


def test_self_intersection_ceva2_auto():
    arr = ceva2()
    report = self_intersection(classify(arr, ceva2_pencil()))
    assert report.value == 0
    assert report.curve_degree == 6


def test_self_intersection_braid_auto():
    arr = deleted_b3()
    report = self_intersection(classify(arr, braid_pencil()))
    assert report.value == 0
    assert report.curve_degree == 6


def test_self_intersection_with_clusters():
    arr = ceva3()
    c = classify(arr, ceva3_pencil())
    with pytest.raises(PencilError):
        self_intersection(c)  # conic members: no auto clusters
    report = self_intersection(c, [BlowupCluster(3)] * 9)
    assert report.value == 0
    arr = ex2()
    report = self_intersection(classify(arr, ex2_pencil()), [BlowupCluster(3)] * 4)
    assert report.value == -11
    assert report.curve_degree == 5


# -- discriminant samples ------------------------------------------------------------


def sylvester_determinant(g, D):
    """sympy's determinant of the Sylvester matrix of g, g' at formal degree D."""
    rational = [sympy.Rational(c.numerator, c.denominator) for c in g]
    high = list(reversed(rational))
    dhigh = [k * rational[k] for k in range(D, 0, -1)]
    rows = [[0] * i + high + [0] * (D - 2 - i) for i in range(D - 1)]
    rows += [[0] * i + dhigh + [0] * (D - 1 - i) for i in range(D)]
    return sympy.Matrix(rows).det()


def test_discriminant_sample_matches_sylvester_oracle():
    rng = random.Random(2006)
    probe = ProjLine.from_coefficients(2, -3, 5)
    drops = 0
    for trial in range(30):
        D = rng.randint(2, 4)
        P, Q = (
            TernaryForm(
                {m: Fraction(rng.randint(-3, 3)) for m in TernaryForm.monomials_of_degree(D)}
            )
            for _ in range(2)
        )
        p, q = (form.restrict_span(*probe.span) for form in (P, Q))
        params = [Fraction(c) for c in range(-3, 4)]
        if p[D] != 0:
            params.append(Fraction(q[D], p[D]))  # the leading coefficient of c*p - q vanishes
        for c in params:
            g = [c * a - b for a, b in zip(p, q)]
            drops += g[D] == 0
            theirs = sylvester_determinant(g, D)
            # the integer sample is that of d*g, d the denominator of c
            d = c.denominator
            scaled = [int(d * x) for x in g]
            assert _formal_discriminant(scaled, D) == d ** (2 * D - 1) * theirs
    assert drops > 0


# -- span keys ----------------------------------------------------------------------


def test_span_key_depends_on_the_span_only():
    P, Q = F("x^2 - y*z"), F("x*y + 2*z^2")
    key = Pencil(P, Q).span_key()
    assert Pencil(Q, P).span_key() == key
    assert Pencil(P + Q, Q.scale(2)).span_key() == key
    assert Pencil(P, F("x*z")).span_key() != key
    assert fw_pencil().span_key() != braid_pencil().span_key()


def sympy_rank(*forms):
    degree = forms[0].degree
    return sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in f.coefficient_vector(degree)]
         for f in forms]
    ).rank()


def test_contains_matches_sympy_rank():
    rng = random.Random(4242)

    def coefficient():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    def form(degree):
        monomials = TernaryForm.monomials_of_degree(degree)
        return TernaryForm({m: coefficient() for m in rng.sample(monomials, 3)})

    outside = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        P, Q = form(d), form(d)
        if sympy_rank(P, Q) < 2:
            continue
        pencil = Pencil(P, Q)
        a, b = coefficient(), coefficient()
        # members: combinations, scaled and swapped generators, zero
        for member in (P.scale(a) + Q.scale(b), Q.scale(a), P, TernaryForm.zero()):
            assert pencil.contains(member)
        assert Pencil(Q.scale(a), P.scale(b)).span_key() == pencil.span_key()
        other = form(d)
        assert pencil.contains(other) == (sympy_rank(P, Q, other) == 2)
        outside += not pencil.contains(other)
    assert outside > 0
    # a form outside the span, by construction
    pencil = Pencil(F("x^2 - y*z"), F("x*y + 2*z^2"))
    assert not pencil.contains(F("x*z"))
    assert pencil.contains(F("x^2 + 3*x*y - y*z + 6*z^2"))


def test_vote_matches_point_comparison():
    # the old verdict: compare the P1Points of the voting values
    def oracle(values):
        points = [P1Point(pv, qv) for pv, qv in values if pv or qv]
        if not points:
            return None
        return points[0] if all(p == points[0] for p in points) else "horizontal"

    rng = random.Random(99)
    for _ in range(300):
        b0, b1 = rng.randint(-3, 3), rng.randint(-3, 3)
        values = []
        for _ in range(rng.randint(0, 4)):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if rng.random() < 0.2:
                values.append((Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))))
            else:
                values.append((c * b0, c * b1))
        assert _vote(values) == oracle(values), values


def test_partition_saturated_matches_smith_form():
    # the lattice of the columns v_i - v_k, saturated when the Smith form
    # says so; 3,000 random partitions with disjoint supports
    rng = random.Random(31)
    verdicts = set()
    for _ in range(3000):
        size = rng.randint(3, 8)
        order = list(range(size))
        rng.shuffle(order)
        k = rng.randint(2, min(4, size))
        cuts = sorted(rng.sample(range(1, size), k - 1))
        partition = [
            [(j, rng.choice([1, 1, 2, 3, 4, 6])) for j in sorted(order[lo:hi])]
            for lo, hi in zip([0] + cuts, cuts + [size])
        ]
        last = dict(partition[-1])
        cols = []
        for fiber in partition[:-1]:
            col = [0] * size
            for j, m in fiber:
                col[j] = m
            for j, m in last.items():
                col[j] = -m
            cols.append(tuple(col))
        oracle = lattice_key(cols, size) == lattice_key(saturate_lattice(cols, size), size)
        assert _partition_saturated(partition) == oracle, partition
        verdicts.add(oracle)
    assert verdicts == {True, False}


# -- search ----------------------------------------------------------------------


def fiber_partition(cl):
    return tuple(cl.fiber_members(b) for b in cl.base_points)


def partition_key(result):
    return frozenset(frozenset(fiber) for fiber in fiber_partition(result))


BRAID_PARTITIONS = [
    [{(0, 1), (4, 1)}, {(1, 1), (5, 1)}, {(2, 1), (7, 1)}],
    [{(1, 1), (7, 1)}, {(2, 1), (5, 1)}, {(3, 1), (4, 1)}],
    [{(0, 1), (3, 1)}, {(1, 1), (2, 1)}, {(5, 1), (7, 1)}],
    [{(0, 1), (5, 1)}, {(1, 1), (6, 1)}, {(3, 1), (7, 1)}],
    [{(0, 1), (7, 1)}, {(2, 1), (6, 1)}, {(3, 1), (5, 1)}],
]

TRIPLE_POINT_PARTITIONS = [
    [{(0, 1)}, {(2, 1)}, {(5, 1)}],
    [{(0, 1)}, {(1, 1)}, {(7, 1)}],
    [{(0, 1)}, {(3, 1)}, {(6, 1)}],
    [{(2, 1)}, {(3, 1)}, {(7, 1)}],
    [{(1, 1)}, {(2, 1)}, {(4, 1)}],
    [{(1, 1)}, {(3, 1)}, {(5, 1)}],
]


def test_search_deleted_b3_k3(db3_search):
    keys = {partition_key(r) for r in db3_search}
    expected = {
        frozenset(frozenset(f) for f in p)
        for p in BRAID_PARTITIONS + TRIPLE_POINT_PARTITIONS
    }
    assert keys == expected
    assert len(db3_search) == 11
    assert all(r.k == 3 for r in db3_search)


def test_search_roundtrip_classification(db3_search):
    arr = deleted_b3()
    for result in db3_search:
        redo = classify(arr, result.pencil)
        assert fiber_partition(redo) == fiber_partition(result)


def test_search_b3_k3():
    arr = b3()
    results = pencil_search(_SearchTables(arr, 2), 3)
    assert len(results) == 16
    assert all(r.k == 3 for r in results)
    for result in results:
        redo = classify(arr, result.pencil)
        assert fiber_partition(redo) == fiber_partition(result)


def test_search_four_generic_lines_empty():
    assert pencil_search(_SearchTables(four_generic_lines(), 2), 3) == []


def test_search_rejects_composed():
    # blocks {C1^2} | {C2^2} of ex2 span the squares of the pencil (x : y);
    # no pair with a common multiplicity factor is ever drawn.  ex2 has a
    # conic, so no closure rule applies and only the contents decide
    square_x, square_y = _Block(1, (0,), (2,), 2), _Block(2, (1,), (2,), 2)
    assert (square_x, square_y) in disjoint_pairs(ex2(), 2)
    pairs = list(iter_block_pairs(_SearchTables(ex2(), 2)))
    assert pairs and (square_x, square_y) not in pairs
    for a, b in pairs:
        assert gcd(*a.mults, *b.mults) == 1
    # x^2 | y^2 | (x - y)(x + y) is the same composed map, now with a reduced
    # third fiber: its columns (2,0,-1,-1), (0,2,-1,-1) span an unsaturated
    # lattice
    assert not _partition_saturated([[(0, 2)], [(1, 2)], [(2, 1), (3, 1)]])
    braid = [[(0, 1), (4, 1)], [(1, 1), (5, 1)], [(2, 1), (7, 1)]]
    assert _partition_saturated(braid)


# -- the block-pair draw and its brute-force reference (`drawref`) -----------------


@pytest.mark.parametrize(
    "make, cap",
    [(make, cap) for make in (triangle, ex2, ceva2, ceva3) for cap in (2, 3)] + [(deleted_b3, 2)],
)
def test_reference_pairs_follow_itertools_combinations(make, cap):
    # the reference skips the overlapping pairs by mask, which keeps the
    # order of the literal combinations of each degree's blocks
    assert list(disjoint_pairs(make(), cap)) == combination_pairs(make(), cap)


_FIXTURES = (triangle, four_generic_lines, ex2, ceva2, ceva3, deleted_b3, a2, b3, exfin3, a3)


# b3 at cap 3 is left out: its 1,318,131 disjoint pairs take the reference
# about 11 s; the draws matched it there when checked by hand
@pytest.mark.parametrize(
    "make, cap",
    [(make, cap) for make in _FIXTURES for cap in (2, 3) if (make, cap) != (b3, 3)],
)
def test_block_pair_walk_keeps_the_combinations_order(make, cap):
    # catalog sources name the first pair to reach a span, so the depth-first
    # draw must yield what the pairwise rules keep of every disjoint pair in
    # combinations order, in that order: the multinet screen for the search,
    # content, concurrency and the base-point gcd for the sweep
    tables = _SearchTables(make(), cap)
    search, sweep = Reference(tables).draws()
    assert list(iter_block_pairs(tables)) == search
    assert list(iter_block_pairs(tables, sweep=True)) == sweep


def test_block_pair_draw_interns_its_blocks(monkeypatch):
    # a draw builds the blocks of the pairs it yields, once per (mask,
    # mults), where the submask walk it replaced indexed the 2,032 pairable
    # blocks of deleted B3: the search's 57 pairs hold 36 blocks and the
    # sweep's 50 pairs 73, and a block in several pairs is one object
    tables = _SearchTables(deleted_b3(), 2)
    original = pencil_module._Block
    for sweep, pairs, blocks in ((False, 57, 36), (True, 50, 73)):
        built = []

        def counting(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(pencil_module, "_Block", counting)
        drawn = list(iter_block_pairs(tables, sweep=sweep))
        assert (len(drawn), len(built), len(set(built))) == (pairs, blocks, blocks)
        assert {id(b) for pair in drawn for b in pair} == {id(b) for b in built}


# -- the multinet rule -------------------------------------------------------------


@pytest.mark.parametrize(
    "make, pairs, spans", [(deleted_b3, 57, 28), (a2, 57, 28), (ceva2, 15, 5)]
)
def test_multinet_screen_survivor_counts(make, pairs, spans):
    # on line arrangements the search draws only the multinet survivors
    arr = make()
    tables = _SearchTables(arr, 2)
    kept = list(iter_block_pairs(tables))
    assert len(kept) == pairs
    keys = {Pencil(tables.block_form(a), tables.block_form(b)).span_key() for a, b in kept}
    assert len(keys) == spans


@pytest.mark.parametrize("make", [deleted_b3, a2, ceva2])
def test_vote_screen_passes_every_multinet_survivor(make):
    # why `pencil_search` runs the vote screen only on curve arrangements
    arr = make()
    tables = _SearchTables(arr, 2)
    kept = list(iter_block_pairs(tables))
    assert kept and all(tables.vote_screen(a, b) for a, b in kept)


def test_multinet_screen_keeps_every_pair_of_full_fibers():
    # exact classification is the oracle: a pair it gives k >= 3 is drawn
    for make in (deleted_b3, a2, ceva2):
        arr = make()
        tables = _SearchTables(arr, 2)
        drawn = set(iter_block_pairs(tables))
        full = 0
        for a, b in disjoint_pairs(arr, 2):
            if gcd(a.content, b.content) != 1 or not tables.vote_screen(a, b):
                continue
            pencil = Pencil(tables.block_form(a), tables.block_form(b))
            if _classify_pair(tables, pencil, a, b).k >= 3:
                full += 1
                assert (a, b) in drawn, (make.__name__, a, b)
        assert full > 0


def test_multinet_screen_skips_curve_arrangements():
    # no point closes on a curve arrangement: the search draws every
    # disjoint pair of equal degree with coprime contents
    tables = _SearchTables(exfin3(), 2)
    assert tables.point_masks is None
    drawn = list(iter_block_pairs(tables))
    assert drawn == [(a, b) for a, b in disjoint_pairs(exfin3(), 2) if gcd(a.content, b.content) == 1]


def _double_point_survivors(tables):
    """The coprime pairs with no double point between a line of a and a line
    of b, which the search's submask walk drew before the depth-first draw,
    and their multinet survivors."""
    doubles = [mp.mask for mp in tables.points if mp.count == 2]
    reference = Reference(tables)
    walked = [
        (a, b)
        for a, b in reference.pairs()
        if gcd(a.content, b.content) == 1
        and not any(mask & a.mask and mask & b.mask for mask in doubles)
    ]
    return walked, [(a, b) for a, b in walked if reference.multinet_screen(a, b)]


@pytest.mark.parametrize(
    "make, walked", [(deleted_b3, 3466), (a2, 3466), (b3, 7450), (ceva2, 186)]
)
def test_double_point_masks_keep_every_multinet_survivor_in_order(make, walked):
    # a line of each block through a double point fails the multinet rule,
    # so leaving those pairs out loses no survivor and keeps the order: the
    # draw is the multinet survivors of the pruned submask walk
    tables = _SearchTables(make(), 2)
    pruned, kept = _double_point_survivors(tables)
    assert len(pruned) == walked
    assert kept and list(iter_block_pairs(tables)) == kept


@st.composite
def _line_arrangement(draw):
    """Three to seven distinct random lines with small coefficients."""
    line = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
    coefficients = draw(st.lists(line, min_size=3, max_size=7))
    forms = [
        TernaryForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) for a, b, c in coefficients
    ]
    assume(not any(f.proportional_to(g) for f, g in itertools.combinations(forms, 2)))
    return Arrangement([CurveComponent(f"L{i}", f) for i, f in enumerate(forms)])


@settings(max_examples=40, deadline=None)
@given(_line_arrangement(), st.integers(1, 3))
def test_double_point_masks_keep_every_multinet_survivor_on_random_lines(arr, cap):
    # both draws equal the reference's, and the search's equals the
    # multinet survivors of the pairs with no double point between the blocks
    tables = _SearchTables(arr, cap)
    search, sweep = Reference(tables).draws()
    assert list(iter_block_pairs(tables)) == search == _double_point_survivors(tables)[1]
    assert list(iter_block_pairs(tables, sweep=True)) == sweep


# an example takes about 1 s, so shrinking a failure would rerun it for
# minutes; the assertion compares whole draws instead
@settings(max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(deleted_b3_plus_a_line(2))
def test_block_pair_draws_match_the_reference_on_deleted_b3_plus_a_line(arr):
    # these arrangements keep the translated pencil of deleted B3, whose
    # special fiber has m'' = 2, so the base-point rule keeps pairs whose
    # running gcd is 2 as well as pairs with no qualifying point
    tables = _SearchTables(arr, 2)
    search, sweep = Reference(tables).draws()
    assert list(iter_block_pairs(tables)) == search
    assert list(iter_block_pairs(tables, sweep=True)) == sweep


def test_unplaced_component_raises():
    arr = triangle()
    with pytest.raises(PencilError, match="neither voted nor were fiber members"):
        _finish_classification(arr, Pencil(F("x"), F("y")), {}, [])


# -- pullback subtori -------------------------------------------------------------


def test_pullback_subtorus_fw():
    arr = deleted_b3()
    sub = pullback_subtorus(classify(arr, fw_pencil()))
    assert sub.rows == tuple(
        (v,) for v in (1, -1, -1, 1, 2, 0, -2, 0)
    )
    assert sub.monomial_strings() == (
        "t", "t^-1", "t^-1", "t", "t^2", "1", "t^-2", "1"
    )


def test_pullback_subtorus_ex2():
    arr = ex2()
    sub = pullback_subtorus(classify(arr, ex2_pencil()))
    assert sub.rows == ((2, 0), (0, 1), (0, 1), (-1, -1))
    assert sub.dimension == 2


def test_pullback_subtorus_a2():
    arr = a2()
    sub = pullback_subtorus(classify(arr, a2_pencil()))
    assert sub.rows == tuple(
        (v,) for v in (2, -2, 0, 0, -1, -1, 1, 1)
    )
