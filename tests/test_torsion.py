"""Torsion groups of pencil maps, their characters, and canonical lifts."""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from arrfixtures import (
    F,
    a2,
    a2_pencil,
    a3,
    a3_pencil,
    braid_pencil,
    deleted_b3,
    double_line_pencil,
    ex2,
    ex2_pencil,
    exfin3,
    exfin3_pencil,
    fw_pencil,
    lines,
    random_line_pencil,
    random_special_pencil,
)
from curvepencils import torsion
from curvepencils.arrangement import Arrangement, CurveComponent
from curvepencils.exactalg import FinAbelianGroup
from curvepencils.pencil import Pencil, classify, detect_special_fibers
from curvepencils.torsion import (
    TorsionError,
    _affine_chart,
    compute_Tf,
    epsilon_count,
    kernel_fstar,
    lift_character,
    lifted_characters,
    theta,
)

HALF = Fraction(1, 2)


def pipeline(arr, pencil):
    cls = detect_special_fibers(classify(arr, pencil))
    data = theta(cls, kernel_fstar(cls))
    return cls, compute_Tf(data)


def exponent_values(rho):
    assert all(type(e) is Fraction and 0 <= e < 1 for e in rho.exponents)
    return rho.exponents


# -- kernel of the induced map -------------------------------------------------


def test_kernel_relations_deleted_b3():
    arr, pencil = deleted_b3(), fw_pencil()
    cls = classify(arr, pencil)
    kernel = kernel_fstar(cls)
    assert kernel.ncols == 6
    cls = detect_special_fibers(cls)
    data = theta(cls, kernel)
    assert data.relation_rows.to_lists() == [[1, -1, -1, 1, 2, 0, -2]]
    _slot, infinity_fiber_row = _affine_chart(cls)
    assert infinity_fiber_row == [0, 1, 1, 0, 0, 0, 2]
    for t in range(kernel.ncols):
        column = kernel.column(t)
        assert sum(a * b for a, b in zip(data.relation_rows.rows[0], column)) == 0
    assert [str(b) for b in data.classification.base_points] == ["(0:1)", "(1:0)"]
    assert str(data.classification.base_points[-1]) == "(1:0)"


def test_kernel_requires_designated_line():
    arr, pencil = ex2(), ex2_pencil()
    with pytest.raises(TorsionError, match="no line designated"):
        kernel_fstar(classify(arr, pencil))


def test_kernel_with_single_base_point_is_everything():
    arr = Arrangement(
        [CurveComponent("T1", F("x")), CurveComponent("T2", F("y")), CurveComponent("T3", F("z"))],
        2,
    )
    pencil = Pencil(F("x^2 + y^2"), F("x*z"))
    cls = classify(arr, pencil)
    assert [str(b) for b in cls.base_points] == ["(1:0)"]
    kernel = kernel_fstar(cls)
    assert kernel.to_lists() == [[1, 0], [0, 1]]
    cls = detect_special_fibers(cls)
    _, tf = cls, compute_Tf(theta(cls, kernel))
    assert tf.group.invariant_factors == ()


def test_theta_requires_special_fiber_data():
    arr, pencil = deleted_b3(), fw_pencil()
    cls = classify(arr, pencil)
    with pytest.raises(TorsionError, match="special fiber data not computed"):
        theta(cls, kernel_fstar(cls))


# -- theta data ------------------------------------------------------------------


def test_theta_rows_deleted_b3():
    arr, pencil = deleted_b3(), fw_pencil()
    cls = detect_special_fibers(classify(arr, pencil))
    data = theta(cls, kernel_fstar(cls))
    assert data.moduli == (2,)
    assert data.theta_rows.to_lists() == [[0, 1, 1, 0, 0, 1, 0]]
    (sp,) = data.classification.special_points
    assert str(sp.point) == "(1:1)"
    assert sp.members == ((5, 1), (7, 1)) and sp.m_prime == 1 and sp.m_dprime == 2


def test_theta_rows_exfin3():
    arr, pencil = exfin3(), exfin3_pencil()
    cls = detect_special_fibers(classify(arr, pencil))
    data = theta(cls, kernel_fstar(cls))
    assert data.moduli == (2, 2, 2)
    assert [str(sp.point) for sp in data.classification.special_points] == [
        "(0:1)",
        "(1:0)",
        "(1:1)",
    ]
    assert data.theta_rows.to_lists() == [
        [0, 0, 0, 1, 1, 0, 1],
        [0, 1, 1, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 1],
    ]


# -- the torsion group -----------------------------------------------------------


def test_tf_deleted_b3_is_order_two():
    arr, pencil = deleted_b3(), fw_pencil()
    cls, tf = pipeline(arr, pencil)
    assert str(tf.group) == "Z/2"
    assert tf.group.order == 2
    assert not tf.theta.classification.conditional
    assert list(tf.group.characters()) == [(Fraction(0),), (HALF,)]
    # loop around the sixth line, and the sum of the first two, both lie in
    # the kernel and map to the generator; the first loop alone does not
    data = tf.theta
    (relation,) = data.relation_rows.rows
    for v in ([0, 0, 0, 0, 0, 1, 0], [1, 1, 0, 0, 0, 0, 0]):
        assert sum(a * b for a, b in zip(relation, v)) == 0
        image = tuple(
            sum(a * b for a, b in zip(row, v)) % m
            for row, m in zip(data.theta_rows.rows, data.moduli)
        )
        assert image == tf.generator_images[0] != (0,) * len(data.moduli)
    assert sum(a * b for a, b in zip(relation, [1, 0, 0, 0, 0, 0, 0])) != 0


def test_tf_trivial_on_reduced_pencils():
    arr, pencil = ex2().with_infinity(0), ex2_pencil()
    cls, tf = pipeline(arr, pencil)
    assert tf.group.invariant_factors == ()
    assert list(tf.group.characters()) == [()]
    lift = lift_character(tf, ())
    assert lift.is_trivial()

    arr, pencil = deleted_b3(), braid_pencil()
    _, tf = pipeline(arr, pencil)
    assert tf.group.invariant_factors == ()


def test_tf_double_line_minimal_and_general_agree():
    arr, pencil = double_line_pencil()
    cls = detect_special_fibers(classify(arr, pencil))
    assert cls.minimal
    assert [str(b) for b in cls.base_points] == ["(0:1)", "(1:0)", "(1:2)"]
    (sp,) = cls.special_points
    assert str(sp.point) == "(1:1)" and sp.members == () and sp.m_dprime == 2
    data = theta(cls, kernel_fstar(cls))
    assert data.kernel_basis.to_lists() == [[1], [1], [1]]
    tf = compute_Tf(data)
    assert str(tf.group) == "Z/2"
    # the kernel generator maps to 1 mod 2 in the one special-fiber group
    assert tf.generator_images == ((1,),)
    lifts = {
        lift_character(tf, ch).value_strings()
        for ch in tf.group.characters()
    }
    assert lifts == {("1", "1", "1", "1"), ("-1", "-1", "1", "1")}
    # the double line carries no member loop, so no special point is detected
    # by the character
    nontrivial = lift_character(tf, (HALF,))
    assert epsilon_count(cls, nontrivial) == 0


# -- lifted characters -------------------------------------------------------------


def test_lift_deleted_b3_canonical_and_pinned():
    arr, pencil = deleted_b3(), fw_pencil()
    cls, tf = pipeline(arr, pencil)
    trivial, generator = list(tf.group.characters())
    assert lift_character(tf, trivial).is_trivial()

    lift = lift_character(tf, generator)
    assert exponent_values(lift) == (0, HALF, HALF, 0, 0, HALF, 0, HALF)
    assert lift.value_strings() == ("1", "-1", "-1", "1", "1", "-1", "1", "-1")
    assert not tf.theta.classification.conditional
    assert epsilon_count(cls, lift) == 1


def test_lift_rejects_inconsistent_characters():
    arr, pencil = deleted_b3(), fw_pencil()
    cls, tf = pipeline(arr, pencil)
    with pytest.raises(TorsionError, match="not killed by the generator order"):
        lift_character(tf, (Fraction(1, 3),))
    with pytest.raises(TorsionError, match="expected 1 generator values"):
        lift_character(tf, ())


def test_lift_a2_a3_pattern():
    for make_arr, make_pencil, m in ((a2, a2_pencil, 2), (a3, a3_pencil, 3)):
        arr, pencil = make_arr(), make_pencil()
        cls, tf = pipeline(arr, pencil)
        (sp,) = cls.special_points
        assert sp.m_prime == 1 and sp.m_dprime == m
        assert str(tf.group) == f"Z/{m}"
        lifts = {
            exponent_values(lift_character(tf, ch))
            for ch in tf.group.characters()
        }
        expected = {
            tuple(Fraction(v) % 1 for v in (0, 0, -q, -q, q, q, 0, 0))
            for q in (Fraction(k, m) for k in range(m))
        }
        assert lifts == expected
        for ch in list(tf.group.characters())[1:]:
            lift = lift_character(tf, ch)
            assert epsilon_count(cls, lift) == 1


def test_lift_exfin3_three_torsion_factors():
    arr, pencil = exfin3(), exfin3_pencil()
    cls, tf = pipeline(arr, pencil)
    assert tf.group.invariant_factors == (2, 2, 2)
    lifts = [lift_character(tf, ch) for ch in tf.group.characters()]
    observed = {exponent_values(lift) for lift in lifts}
    expected = set()
    for t1 in (Fraction(0), HALF):
        for t2 in (Fraction(0), HALF):
            for t3 in (Fraction(0), HALF):
                expected.add(
                    tuple(
                        Fraction(v) % 1
                        for v in (t3, t3, t2, t2, t1, t1, 0, t1 + t2 + t3)
                    )
                )
    assert observed == expected
    # each special fiber is detected exactly when the character is nontrivial
    # on its members: L5/L6 over (0:1), L3/L4 over (1:0), L1/L2 over (1:1)
    for lift in lifts:
        values = lift.exponents
        detected = sum(1 for v in (values[4], values[2], values[1]) if v != 0)
        assert epsilon_count(cls, lift) == detected


def test_lift_round_trip_and_degree_relation():
    cases = [
        (deleted_b3(), fw_pencil()),
        (a2(), a2_pencil()),
        (a3(), a3_pencil()),
        (exfin3(), exfin3_pencil()),
        (ex2().with_infinity(0), ex2_pencil()),
        double_line_pencil(),
    ]
    for arr, pencil in cases:
        cls, tf = pipeline(arr, pencil)
        base_lcm = 1
        for b in cls.base_points:
            for _, mult in cls.fiber_members(b):
                base_lcm = lcm(base_lcm, mult)
        for ch in tf.group.characters():
            lift = lift_character(tf, ch)
            assert sum(d * e for d, e in zip(arr.degrees, lift.exponents)) % 1 == 0
            # sections land back on the prescribed generator values
            for value, section in zip(ch, tf.section_columns):
                acc = sum(
                    coeff * lift.exponents[j]
                    for j, coeff in zip(arr.affine_indices(), section)
                )
                assert (acc - value) % 1 == 0
            for exponent in lift.exponents:
                assert (tf.group.order * base_lcm) % exponent.denominator == 0


def test_lifted_characters_build_the_chart_once(monkeypatch):
    calls = []
    chart = torsion._affine_chart
    monkeypatch.setattr(torsion, "_affine_chart", lambda cl: calls.append(cl) or chart(cl))
    cases = [(deleted_b3(), fw_pencil()), (exfin3(), exfin3_pencil()), double_line_pencil()]
    for arr, pencil in cases:
        cls = detect_special_fibers(classify(arr, pencil))
        tf, lifts = lifted_characters(cls)
        assert calls == [cls]
        calls.clear()
        assert tf.theta.classification is cls
        assert lifts == [lift_character(tf, ch) for ch in tf.group.characters() if any(ch)]
        assert len(lifts) == tf.group.order - 1
        assert len(tf.theta.relation_rows.rows) == cls.k - 1


def pivot_pencil():
    # the finite base fiber 2(x-y) + 2(x+y) has a pivot of multiplicity two
    arr = lines("x-y", "x+y", "x-z", "x+z", "y-z", "y+z", "z", infinity=6)
    pencil = Pencil(F("x^4 - 2*x^2*y^2 + y^4"), F("x^2*y^2 - x^2*z^2 - y^2*z^2 + z^4"))
    return arr, pencil


@pytest.mark.parametrize(
    "d,images,value,expected",
    [
        (2, (1, 0, 0, 0, 0), Fraction(1, 2), "(1,-1,e(1/4),e(1/4),e(1/4),e(1/4),-1)"),
        (3, (1, 0, 0, 0, 0), Fraction(1, 3), "(1,e(2/3),e(1/6),e(1/6),e(1/6),e(1/6),e(2/3))"),
        (3, (1, 0, 0, 0, 0), Fraction(2, 3), "(1,e(1/3),e(1/3),e(1/3),e(1/3),e(1/3),e(1/3))"),
        # here the smaller candidate is not the one the pivot shift lands on
        (2, (0, 0, 1, 0, 0), Fraction(1, 2), "(1,1,1,-1,-1,-1,-1)"),
        (2, (1, 0, 1, 0, 0), Fraction(1, 2), "(1,-1,e(1/4),e(3/4),e(3/4),e(3/4),1)"),
    ],
)
def test_lift_breaks_ties_at_a_multiple_pivot(d, images, value, expected):
    arr, pencil = pivot_pencil()
    cls, tf = pipeline(arr, pencil)
    assert [cls.fiber_members(b) for b in cls.base_points[:-1]] == [((0, 2), (1, 2))]
    assert tf.group.invariant_factors == ()
    # T(f) is trivial here, so give the pencil a cyclic group of order d and
    # map the kernel basis vectors onto multiples of its generator; the lift
    # must then choose among the candidates of the doubled pivot
    fake = dataclasses.replace(
        tf, group=FinAbelianGroup([d]), basis_classes=tuple((c,) for c in images)
    )
    lift = lift_character(fake, (value,))
    assert str(lift) == expected
    assert exponent_values(lift)[0] == 0
    assert sum(d * e for d, e in zip(arr.degrees, lift.exponents)) % 1 == 0


def test_lift_rejects_unsaturated_kernel_under_optimization():
    # the check raises rather than asserts, so it survives python -O
    code = """
import dataclasses
from arrfixtures import deleted_b3, fw_pencil
from curvepencils.exactalg import IntMatrix
from curvepencils.pencil import classify, detect_special_fibers
from curvepencils.torsion import TorsionError, compute_Tf, kernel_fstar, lift_character, theta
arr, pencil = deleted_b3(), fw_pencil()
cls = detect_special_fibers(classify(arr, pencil))
tf = compute_Tf(theta(cls, kernel_fstar(cls)))
doubled = IntMatrix([[2 * e for e in row] for row in tf.theta.kernel_basis.rows])
tf = dataclasses.replace(tf, theta=dataclasses.replace(tf.theta, kernel_basis=doubled))
try:
    lift_character(tf, (0,))
except TorsionError as exc:
    print(exc)
"""
    root = Path(__file__).parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert done.stdout == "kernel basis lattice must be saturated\n"


# -- randomized line pencils -------------------------------------------------------


def test_random_line_pencils_reduced_implies_trivial():
    rng = random.Random(1208)
    # random line pencils come out reduced; signed permutations of the
    # double-line pencil (minimal) and of the fW pencil (not minimal) add
    # draws with a fiber of m'' = 2
    cases = [random_line_pencil(rng) for _ in range(10)] + [
        random_special_pencil(rng, *base)
        for base in (double_line_pencil(), (deleted_b3(), fw_pencil()))
        for _ in range(2)
    ]
    orders = []
    special = 0
    for arr, pencil in cases:
        cls = detect_special_fibers(classify(arr, pencil))
        data = theta(cls, kernel_fstar(cls))
        tf = compute_Tf(data)
        if all(m == 1 for m in data.moduli):
            assert tf.group.invariant_factors == ()
        else:
            special += 1
            assert tf.group.invariant_factors
        # on a minimal pencil T(f) is cyclic of order lcm over C(f) of
        # m/gcd(m, m_f), where m_f is the lcm over the base points of the
        # gcd of the multiplicities of each fiber's affine members
        fiber_gcds = [
            gcd(*(m for j, m in cls.fiber_members(b) if j != arr.infinity_index))
            for b in cls.base_points
        ]
        if cls.minimal and all(g >= 1 for g in fiber_gcds):
            m_f = lcm(*fiber_gcds)
            expected = 1
            for m in data.moduli:
                expected = lcm(expected, m // gcd(m, m_f))
            assert tf.group.order == expected
            assert len(tf.group.invariant_factors) <= 1
            orders.append(expected)
    assert special == 4
    assert orders == [1] * 10 + [2, 2]
