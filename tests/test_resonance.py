"""Cup-product isotropy, pencil subspaces, and ray maps."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrfixtures import (
    F,
    a2,
    a2_pencil,
    b3,
    b3_pencil,
    braid_pencil,
    ceva2,
    ceva2_pencil,
    deleted_b3,
    ex2,
    ex2_pencil,
    fw_pencil,
    triangle,
)
from curvepencils.arrangement import (
    Arrangement,
    CurveComponent,
    local_pencil_points,
    pullback_subtorus,
)
from curvepencils.exactalg import echelon_rows, primitive_vector
from curvepencils.pencil import Pencil, classify
from curvepencils.polyform import TernaryForm
from curvepencils.resonance import (
    CupStructure,
    IsotropicSubspace,
    ResidueVector,
    ResonanceError,
    cup_structure,
    is_maximal_isotropic,
    pencil_from_subspace,
    ray_to_map,
    subspace_from_pencil,
)


def span_matrix(pencil):
    degree = max(sum(e) for e, _ in pencil.P.sorted_terms())
    return [pencil.P.coefficient_vector(degree), pencil.Q.coefficient_vector(degree)]


def same_span(p1, p2):
    return len(echelon_rows(span_matrix(p1) + span_matrix(p2))) == 2


# -- cup structure ---------------------------------------------------------------


def test_cup_structure_rejects_unsuitable_arrangements():
    curves, no_infinity = ex2().with_infinity(0), b3()
    with pytest.raises(ResonanceError, match="line arrangements only"):
        CupStructure(curves, local_pencil_points(curves))
    with pytest.raises(ResonanceError, match="no line designated"):
        CupStructure(no_infinity, local_pencil_points(no_infinity))


def test_triangle_cup_product_is_nonzero():
    arr = triangle().with_infinity(2)
    cs = CupStructure(arr, local_pencil_points(arr))
    assert len(cs.pairs) - len(cs._relation_pivots) == 1
    assert cs.concurrency_classes == ((0, 1),)
    assert cs.parallel_classes == ()
    v = ResidueVector((1, 0, -1))
    w = ResidueVector((0, 1, -1))
    assert any(cs.wedge_class(v, w))
    assert not any(cs.wedge_class(v, v))
    assert cs.wedge_class(v, w) == tuple(-c for c in cs.wedge_class(w, v))


def test_triangle_rays_are_maximal_isotropic():
    arr = triangle().with_infinity(2)
    cs = CupStructure(arr, local_pencil_points(arr))
    rng = random.Random(41)
    for _ in range(5):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a == 0 and b == 0:
            a = 1
        ray = IsotropicSubspace((ResidueVector((a, b, -a - b)),))
        assert is_maximal_isotropic(cs, ray) == (True, True)


def test_cup_product_is_bilinear():
    arr = deleted_b3()
    cs = CupStructure(arr, local_pencil_points(arr))
    rng = random.Random(97)

    def rand_vector():
        head = [rng.randint(-3, 3) for _ in range(7)]
        return ResidueVector((*head, -sum(head)))

    for _ in range(8):
        u, v, w = rand_vector(), rand_vector(), rand_vector()
        s = rng.randint(-3, 3)
        left = cs.wedge_class(
            ResidueVector(tuple(a + s * b for a, b in zip(u.entries, v.entries))), w
        )
        u_w = cs.wedge_class(u, w)
        v_w = cs.wedge_class(v, w)
        assert left == tuple(a + s * b for a, b in zip(u_w, v_w))


def test_cup_relations_deleted_b3():
    arr = deleted_b3()
    cs = CupStructure(arr, local_pencil_points(arr))
    assert cs.parallel_classes == ((0, 1), (2, 3), (4, 5, 6))
    assert (0, 2, 5) in cs.concurrency_classes
    assert (1, 3, 5) in cs.concurrency_classes
    # lines 1 and 2 meet on the infinity line
    p0 = ResidueVector((1, 0, 0, 0, 0, 0, 0, -1))
    p1 = ResidueVector((0, 1, 0, 0, 0, 0, 0, -1))
    assert not any(cs.wedge_class(p0, p1))
    # lines 1, 3, 6 are concurrent: the triple relation kills this product
    t1 = ResidueVector((1, 0, -1, 0, 0, 0, 0, 0))
    t2 = ResidueVector((0, 0, 1, 0, 0, -1, 0, 0))
    assert not any(cs.wedge_class(t1, t2))
    # lines 1 and 5 meet in an ordinary affine point
    g2 = ResidueVector((0, 0, 0, 0, 1, 0, 0, -1))
    assert any(cs.wedge_class(p0, g2))


def test_isotropy_flags_distinguish_subspaces():
    arr = deleted_b3()
    cs = CupStructure(arr, local_pencil_points(arr))
    pencil_subspace = subspace_from_pencil(classify(arr, braid_pencil()), cs)
    # one ray inside a two-dimensional isotropic subspace cannot be maximal
    ray = IsotropicSubspace((pencil_subspace.basis[0],))
    assert is_maximal_isotropic(cs, ray) == (True, False)
    crossing = IsotropicSubspace(
        (
            ResidueVector((1, 0, 0, 0, 0, 0, 0, -1)),
            ResidueVector((0, 0, 0, 0, 1, 0, 0, -1)),
        )
    )
    assert is_maximal_isotropic(cs, crossing) == (False, False)


# -- integer reduction against a Fraction reference ----------------------------------


@st.composite
def _line_arrangement_with_infinity(draw):
    """Three to eight distinct lines, many through (0:0:1), one of them at infinity."""
    coefficient = st.integers(-2, 2)
    through_origin = st.tuples(coefficient, coefficient, st.just(0)).filter(any)
    line = st.tuples(coefficient, coefficient, coefficient).filter(any)
    coeffs = draw(
        st.lists(
            st.one_of(through_origin, line), min_size=3, max_size=8, unique_by=primitive_vector
        )
    )
    forms = [TernaryForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) for a, b, c in coeffs]
    infinity = draw(st.integers(0, len(forms) - 1))
    return Arrangement([CurveComponent(f"L{i}", f) for i, f in enumerate(forms)], infinity)


@settings(max_examples=60, deadline=None)
@given(_line_arrangement_with_infinity())
def test_relation_rows_have_unit_pivots(arr):
    cs = CupStructure(arr, local_pencil_points(arr))
    for row, pivot in zip(cs._relation_rows, cs._relation_pivots):
        assert row[pivot] == 1
        assert set(row) <= {-1, 0, 1}


def _rref(rows):
    """Reduced row echelon form over Q by plain Gaussian elimination."""
    out = []
    for row in rows:
        row = [Fraction(e) for e in row]
        for done in out:
            p = next(k for k, e in enumerate(done) if e)
            row = [a - row[p] * b for a, b in zip(row, done)]
        j = next((k for k, e in enumerate(row) if e), None)
        if j is None:
            continue
        row = [e / row[j] for e in row]
        out = [[a - done[j] * b for a, b in zip(done, row)] for done in out]
        out.append(row)
    return out


def _rank(rows):
    return len(_rref(rows))


class _ReferenceCup:
    """The cup relations rebuilt from the line equations, reduced with Fractions."""

    def __init__(self, arr):
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        lines = [[c.form.evaluate(e) for e in units] for c in arr.components]
        self.affine = [j for j in range(arr.size) if j != arr.infinity_index]
        self.pairs = list(itertools.combinations(range(len(self.affine)), 2))
        relations = []
        for s, t in self.pairs:
            a, b = lines[self.affine[s]], lines[self.affine[t]]
            point = [a[i] * b[k] - a[k] * b[i] for i, k in ((1, 2), (2, 0), (0, 1))]
            through = [sum(x * y for x, y in zip(line, point)) == 0 for line in lines]
            if through[arr.infinity_index]:
                relations.append([int(q == (s, t)) for q in self.pairs])
                continue
            for u in range(len(self.affine)):
                if u not in (s, t) and through[self.affine[u]]:
                    i, j, k = sorted((s, t, u))
                    signs = {(i, j): 1, (i, k): -1, (j, k): 1}
                    relations.append([signs.get(q, 0) for q in self.pairs])
        self.rows = _rref(relations)

    def reduce(self, coords):
        coords = [Fraction(c) for c in coords]
        for row in self.rows:
            c = coords[next(k for k, e in enumerate(row) if e)]
            coords = [a - c * b for a, b in zip(coords, row)]
        return tuple(coords)

    def wedge(self, v, w):
        x, y = [v[j] for j in self.affine], [w[j] for j in self.affine]
        return self.reduce([x[i] * y[j] - x[j] * y[i] for i, j in self.pairs])

    def flags(self, basis):
        if any(any(self.wedge(v, w)) for v, w in itertools.combinations(basis, 2)):
            return (False, False)
        n = len(self.affine)
        units = [[int(j == self.affine[a]) for j in range(len(basis[0]))] for a in range(n)]
        rows = []
        for v in basis:
            products = [self.wedge(v, u) for u in units]
            rows.extend([products[a][p] for a in range(n)] for p in range(len(self.pairs)))
        annihilator = n - _rank(rows)
        return (True, annihilator == _rank([[v[j] for j in self.affine] for v in basis]))


_ORACLE_CASES = {
    "deleted_b3": (deleted_b3, [braid_pencil(), fw_pencil()]),
    "a2": (a2, [a2_pencil()]),
    "b3": (lambda: b3().with_infinity(0), [b3_pencil()]),
    "ceva2": (lambda: ceva2().with_infinity(0), [ceva2_pencil()]),
}


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_integer_cup_matches_fraction_reference(name):
    make, pencils = _ORACLE_CASES[name]
    arr = make()
    cs, ref = CupStructure(arr, local_pencil_points(arr)), _ReferenceCup(arr)
    rng = random.Random(name)

    def rand_vector():
        return tuple(rng.randint(-3, 3) for _ in range(arr.size))

    def combination(vectors):
        coeffs = [rng.randint(-2, 2) for _ in vectors]
        return tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(arr.size))

    for _ in range(20):
        v, w = rand_vector(), rand_vector()
        assert cs.wedge_class(ResidueVector(v), ResidueVector(w)) == ref.wedge(v, w)
    # isotropic subspaces: pencil subspaces, their rays, and local ones at multiple points
    isotropic = [
        [v.entries for v in subspace_from_pencil(classify(arr, p), None).basis]
        for p in pencils
    ]
    for group in cs.concurrency_classes:
        units = [tuple(int(j == g) for j in range(arr.size)) for g in group]
        isotropic.append([tuple(a - b for a, b in zip(u, units[0])) for u in units[1:]])
    bases = [[rand_vector()] for _ in range(5)] + [[rand_vector(), rand_vector()] for _ in range(5)]
    for vectors in isotropic:
        bases += [vectors, [combination(vectors)], [combination(vectors), combination(vectors)]]
    for basis in bases:
        if not any(map(any, basis)):
            continue
        subspace = IsotropicSubspace(tuple(ResidueVector(v) for v in basis))
        assert tuple(is_maximal_isotropic(cs, subspace)) == ref.flags(basis)


# -- subspaces from pencils --------------------------------------------------------


def test_subspace_from_fw_pencil():
    arr = deleted_b3()
    cup = cup_structure(arr, local_pencil_points(arr))
    subspace = subspace_from_pencil(classify(arr, fw_pencil()), cup)
    assert subspace.dimension == 1
    assert subspace.isotropic is True and subspace.maximal is True
    pattern = ResidueVector((1, -1, -1, 1, 2, 0, -2, 0))
    assert len(echelon_rows([subspace.basis[0].entries, pattern.entries])) == 1


def test_subspace_from_a2_pencil():
    arr = a2()
    cl = classify(arr, a2_pencil())
    subspace = subspace_from_pencil(cl, cup_structure(arr, local_pencil_points(arr)))
    assert subspace.dimension == 1
    assert subspace.isotropic is True and subspace.maximal is True
    # the reference fiber is the last base point, as in pullback_subtorus
    assert subspace.basis[0].entries == (2, -2, 0, 0, -1, -1, 1, 1)
    assert subspace.basis[0].entries == pullback_subtorus(cl).columns()[0]


def test_three_point_subspaces_are_maximal_isotropic():
    cases = [
        (deleted_b3(), braid_pencil()),
        (ceva2().with_infinity(0), ceva2_pencil()),
        (b3().with_infinity(0), b3_pencil()),
    ]
    for arr, pencil in cases:
        cup = cup_structure(arr, local_pencil_points(arr))
        subspace = subspace_from_pencil(classify(arr, pencil), cup)
        assert subspace.dimension == len(classify(arr, pencil).base_points) - 1 == 2
        assert subspace.isotropic is True and subspace.maximal is True
        for v in subspace.basis:
            assert v.degree_pairing(arr.degrees) == 0


def test_subspace_skips_isotropy_for_curve_components():
    arr = ex2()
    cup = cup_structure(arr, local_pencil_points(arr))
    subspace = subspace_from_pencil(classify(arr, ex2_pencil()), cup)
    assert subspace.dimension == 2
    assert subspace.isotropic is None and subspace.maximal is None


def test_subspace_needs_two_base_points():
    arr = Arrangement(
        [CurveComponent("T1", F("x")), CurveComponent("T2", F("y")), CurveComponent("T3", F("z"))],
        2,
    )
    pencil = Pencil(F("x^2 + y^2"), F("x*z"))
    cup = cup_structure(arr, local_pencil_points(arr))
    with pytest.raises(ResonanceError, match="two fully-arrangement fibers"):
        subspace_from_pencil(classify(arr, pencil), cup)


# -- pencil reconstruction ----------------------------------------------------------


def test_pencil_from_braid_subspace_is_exact():
    arr = deleted_b3()
    cup = cup_structure(arr, local_pencil_points(arr))
    subspace = subspace_from_pencil(classify(arr, braid_pencil()), cup)
    pencil = pencil_from_subspace(arr, subspace)
    assert pencil.P == F("x") * F("x - y - z")
    assert pencil.Q == F("x - z") * F("x - y")


def test_pencil_from_subspace_recovers_fiber_multiplicities():
    arr = ex2()
    cup = cup_structure(arr, local_pencil_points(arr))
    subspace = subspace_from_pencil(classify(arr, ex2_pencil()), cup)
    pencil = pencil_from_subspace(arr, subspace)
    assert pencil.P == F("x^2") and pencil.Q == F("y*z")


def test_pencil_subspace_round_trips():
    cases = [
        (deleted_b3(), braid_pencil()),
        (ceva2(), ceva2_pencil()),
        (b3(), b3_pencil()),
        (ex2(), ex2_pencil()),
    ]
    for arr, pencil in cases:
        cup = cup_structure(arr, local_pencil_points(arr))
        subspace = subspace_from_pencil(classify(arr, pencil), cup)
        assert same_span(pencil_from_subspace(arr, subspace), pencil)


def test_pencil_from_subspace_errors():
    arr = deleted_b3()
    with pytest.raises(ResonanceError, match="dimension below two"):
        pencil_from_subspace(arr, IsotropicSubspace(()))
    cup = cup_structure(arr, local_pencil_points(arr))
    ray = subspace_from_pencil(classify(arr, fw_pencil()), cup)
    with pytest.raises(ResonanceError, match="dimension below two"):
        pencil_from_subspace(arr, ray)
    junk = IsotropicSubspace((ResidueVector((1, -1, 0)), ResidueVector((0, 1, -1))))
    with pytest.raises(ResonanceError, match="not a pencil subspace"):
        pencil_from_subspace(triangle(), junk)


# -- ray maps --------------------------------------------------------------------


def test_ray_to_map_recovers_fw():
    arr = deleted_b3()
    ray = ray_to_map(arr, (1, -1, -1, 1, 2, 0, -2, 0))
    assert ray.exponents == (1, -1, -1, 1, 2, 0, -2, 0)
    fw = fw_pencil()
    assert ray.numerator == fw.P and ray.denominator == fw.Q
    assert ray.description == "L1 * L4 * L5^2 / (L2 * L3 * L7^2)"
    assert "Bertini" in ray.note


def test_ray_to_map_normalizes_scaling():
    arr = deleted_b3()
    expected = (1, -1, -1, 1, 2, 0, -2, 0)
    assert ray_to_map(arr, (2, -2, -2, 2, 4, 0, -4, 0)).exponents == expected
    halves = [Fraction(e, 2) for e in expected]
    assert ray_to_map(arr, halves).exponents == expected
    assert ray_to_map(arr, [-e for e in expected]).exponents == expected
    vector = ResidueVector(tuple(Fraction(e) for e in expected))
    assert ray_to_map(arr, vector).exponents == expected


def test_ray_to_map_errors():
    arr = deleted_b3()
    with pytest.raises(ResonanceError, match="zero direction"):
        ray_to_map(arr, (0,) * 8)
    with pytest.raises(ResonanceError, match="pair to zero"):
        ray_to_map(arr, (1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ResonanceError, match="expected 8"):
        ray_to_map(arr, (1, -1))
