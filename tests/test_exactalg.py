"""Exact-arithmetic kernels, checked against independent sympy oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from latticeref import lattice_key, saturate_lattice
from curvepencils.exactalg import (
    FinAbelianGroup,
    IntMatrix,
    coeffs_divide,
    coeffs_evaluate,
    coeffs_gcd,
    coeffs_mul,
    coeffs_resultant,
    echelon_rows,
    hermite_column_form,
    integer_kernel_basis,
    interpolate_integers,
    primitive_vector,
    product_relation_lattice,
    projective_profile,
    rational_roots,
    roots_mod_p,
    smith_normal_form,
    yun_squarefree,
)


def random_matrix(rng, nrows, ncols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)])


# ---------------------------------------------------------------------------
# Smith normal form


def test_smith_frozen_examples():
    # diag(2, 3) has invariant factors (1, 6)
    snf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert snf.invariant_factors == (1, 6)
    # rank-one matrix keeps a zero invariant factor
    snf = smith_normal_form(IntMatrix([[2, 4], [4, 8]]))
    assert snf.invariant_factors == (2, 0)
    snf = smith_normal_form(IntMatrix([[1, 0], [0, 1]]))
    assert snf.invariant_factors == (1, 1)


def test_smith_properties_random():
    rng = random.Random(20210)
    for trial in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        U, D, V = smith_normal_form(A)
        assert U.mul(A).mul(V) == D
        assert abs(sympy.Matrix(U.to_lists()).det()) == 1
        assert abs(sympy.Matrix(V.to_lists()).det()) == 1
        diag = [D.entry(i, i) for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D.entry(i, j) == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # cross-check the invariant factors against sympy
        expected = sympy.Matrix(A.to_lists()).rank()
        assert sum(1 for d in diag if d != 0) == expected


def test_smith_matches_sympy_invariants():
    rng = random.Random(7)
    for trial in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_matrix(rng, m, n, bound=6)
        ours = [d for d in smith_normal_form(A).invariant_factors if d != 0]
        sm = sympy.Matrix(A.to_lists())
        theirs = [abs(int(d)) for d in sympy_snf(sm, domain=sympy.ZZ).diagonal() if d != 0]
        assert ours == sorted(theirs) or ours == theirs


# ---------------------------------------------------------------------------
# kernels and lattices


def test_kernel_frozen_examples():
    K = integer_kernel_basis(IntMatrix([[1, 1]]))
    assert K.columns() == [(1, -1)]
    K = integer_kernel_basis(IntMatrix([[1, 0], [0, 1]]))
    assert K.ncols == 0
    # relation row of an eight-line fixture, affine part only
    K = integer_kernel_basis(IntMatrix([[1, -1, -1, 1, 2, 0, -2]]))
    assert K.ncols == 6
    for col in K.columns():
        assert col[0] - col[1] - col[2] + col[3] + 2 * col[4] - 2 * col[6] == 0


def test_kernel_properties_random():
    rng = random.Random(90125)
    for trial in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = random_matrix(rng, m, n)
        K = integer_kernel_basis(A)
        if K.ncols:
            assert all(e == 0 for row in A.mul(K).rows for e in row)
        assert K.ncols == n - sympy.Matrix(A.to_lists()).rank()
        # canonical: recomputing from a shuffled spanning set gives the same basis
        cols = K.columns()
        if len(cols) >= 2:
            mixed = [tuple(a + 2 * b for a, b in zip(cols[0], cols[1]))] + list(cols[1:])
            assert hermite_column_form(mixed, n) == hermite_column_form(cols, n)


def test_kernel_saturated():
    rng = random.Random(11)
    for trial in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        A = random_matrix(rng, m, n, bound=5)
        K = integer_kernel_basis(A)
        cols = K.columns()
        if cols:
            assert lattice_key(saturate_lattice(cols, n), n) == lattice_key(cols, n)


def test_hermite_canonical_key():
    cols = [(2, 0, 4), (0, 3, 6)]
    again = [(2, 3, 10), (0, 3, 6), (2, 0, 4)]
    assert lattice_key(cols, 3) == lattice_key(again, 3)
    assert lattice_key([(1, 0)], 2) != lattice_key([(0, 1)], 2)


def test_saturation():
    sat = saturate_lattice([(2, 2)], 2)
    assert lattice_key(sat, 2) == lattice_key([(1, 1)], 2)
    sat = saturate_lattice([(2, 0), (0, 3)], 2)
    assert lattice_key(sat, 2) == lattice_key([(1, 0), (0, 1)], 2)


# ---------------------------------------------------------------------------
# finite abelian groups


def quotient_group(relations):
    """Z^n / (column span) of a relation matrix of rank n, read off its Smith form."""
    n = relations.nrows
    D = smith_normal_form(relations).D
    factors = [D.entry(i, i) for i in range(min(n, relations.ncols))]
    assert len(factors) == n and all(factors), "the quotient is infinite"
    return FinAbelianGroup(d for d in factors if d > 1)


def direct_sum(moduli):
    """The direct sum of Z/m over the moduli, as a quotient of Z^n."""
    n = len(moduli)
    diag = IntMatrix([[moduli[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return quotient_group(diag)


def test_fin_abelian_group_basics():
    assert FinAbelianGroup.trivial().invariant_factors == ()
    assert str(FinAbelianGroup.trivial()) == "trivial"
    g = direct_sum([2, 3])
    assert g.invariant_factors == (6,)
    g = direct_sum([2, 2, 2])
    assert g.invariant_factors == (2, 2, 2)
    assert g.order == 8
    assert g.invariant_factors[-1] == 2
    assert str(g) == "Z/2 x Z/2 x Z/2"
    g = direct_sum([4, 6])
    assert g.invariant_factors == (2, 12)
    with pytest.raises(ValueError):
        FinAbelianGroup([3, 2])


def test_fin_abelian_group_characters():
    g = FinAbelianGroup([2, 2])
    chars = list(g.characters())
    assert len(chars) == 4
    assert all(len(c) == 2 for c in chars)
    assert len(set(chars)) == 4
    assert list(FinAbelianGroup.trivial().characters()) == [()]
    assert list(FinAbelianGroup([3]).characters()) == [
        (Fraction(0),),
        (Fraction(1, 3),),
        (Fraction(2, 3),),
    ]


def test_product_relation_lattice():
    # subgroup of Z/2 x Z/2 x Z/2 generated by (1,1,0) and (0,1,1)
    rel = product_relation_lattice([2, 2, 2], [(1, 1, 0), (0, 1, 1)])
    g = quotient_group(rel)
    assert g.invariant_factors == (2, 2)
    # the full diagonal inside Z/2 x Z/4: order 4
    rel = product_relation_lattice([2, 4], [(1, 1)])
    g = quotient_group(rel)
    assert g.invariant_factors == (4,)


def test_subgroup_structure_random():
    rng = random.Random(404)
    for trial in range(60):
        c = rng.randint(1, 3)
        moduli = [rng.choice([2, 3, 4, 6]) for _ in range(c)]
        s = rng.randint(1, 3)
        gens = [tuple(rng.randrange(m) for m in moduli) for _ in range(s)]
        rel = product_relation_lattice(moduli, gens)
        g = quotient_group(rel)
        # oracle: brute-force enumeration of the generated subgroup
        seen = {tuple(0 for _ in moduli)}
        frontier = [tuple(0 for _ in moduli)]
        while frontier:
            cur = frontier.pop()
            for gen in gens:
                nxt = tuple((a + b) % m for a, b, m in zip(cur, gen, moduli))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert g.order == len(seen)


# ---------------------------------------------------------------------------
# rational linear algebra


def test_primitive_vector_sign_and_content():
    assert primitive_vector((Fraction(1, 2), Fraction(3, 2))) == (1, 3)
    assert primitive_vector((0, -2, -4)) == (0, 1, 2)
    assert primitive_vector((0, Fraction(-3, 4), Fraction(5, 6))) == (0, 9, -10)
    assert primitive_vector((7,)) == (1,)
    with pytest.raises(ValueError):
        primitive_vector((0, Fraction(0)))


def test_echelon_rows_matches_sympy_rref():
    # zero, duplicate and rank-deficient rows included
    rng = random.Random(41)
    ranks = set()
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 10)
        rows = []
        for _ in range(nrows):
            pick = rng.random()
            if rows and pick < 0.15:
                rows.append(list(rng.choice(rows)))
            elif len(rows) >= 2 and pick < 0.3:
                a, b = rng.sample(rows, 2)
                s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
                rows.append([s * x + t * y for x, y in zip(a, b)])
            elif pick < 0.4:
                rows.append([Fraction(0)] * ncols)
            else:
                entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(ncols)]
                rows.append([e * rng.randint(0, 1) for e in entries])
        echelon = echelon_rows(rows)
        rref, pivots = sympy.Matrix(rows).rref()
        assert len(echelon) == len(pivots)
        ranks.add(len(pivots))
        for r, (row, p) in enumerate(zip(echelon, pivots)):
            assert row[p] > 0 and all(x == 0 for x in row[:p])
            assert sympy.gcd_list([sympy.Integer(x) for x in row]) == 1
            assert [sympy.Rational(x, row[p]) for x in row] == list(rref.row(r))
    assert ranks == set(range(7))


def test_echelon_rows_inverts_unimodular_matrices():
    # [U | 1] reduces to [1 | U^-1]
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 5)
        U = IntMatrix.identity(n)
        for _ in range(8):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            E = [[int(a == b) for b in range(n)] for a in range(n)]
            if i == j:
                E[i][i] = -1
            else:
                E[i][j] = rng.randint(-3, 3)
            U = U.mul(IntMatrix(E))
        echelon = echelon_rows(row + IntMatrix.identity(n).rows[i] for i, row in enumerate(U.rows))
        assert [row[:n] for row in echelon] == list(IntMatrix.identity(n).rows)
        inverse = IntMatrix(row[n:] for row in echelon)
        assert U.mul(inverse) == IntMatrix.identity(n)
        assert sympy.Matrix(inverse.to_lists()) == sympy.Matrix(U.to_lists()).inv()


# ---------------------------------------------------------------------------
# univariate polynomials


_INT_POLY = st.lists(st.integers(-20, 20), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(g=_INT_POLY.filter(any), h=_INT_POLY, f=_INT_POLY, exact=st.booleans())
@example(g=[1, 2, 3], h=[0], f=[5, 1], exact=False)  # dividend of lower degree
@example(g=[-3, 2], h=[0], f=[0], exact=True)  # zero dividend
@example(g=[1, 0, 1], h=[4, -1], f=[0], exact=True)  # exact, by a divisor with no root
def test_coeffs_divide_matches_sympy(g, h, f, exact):
    t = sympy.Symbol("t")
    g = list(primitive_vector(g))
    while g[-1] == 0:
        g.pop()
    dividend = coeffs_mul(g, h) if exact else f
    q, r = sympy.div(
        sympy.Poly(list(reversed(dividend)), t), sympy.Poly(list(reversed(g)), t)
    )
    ours = coeffs_divide(dividend, g)
    if r.is_zero:
        assert ours is not None and (not ours or ours[-1] != 0)
        assert sympy.expand(sum(c * t**i for i, c in enumerate(ours)) - q.as_expr()) == 0
    else:
        assert not exact and ours is None
    with pytest.raises(ValueError):
        coeffs_divide(dividend, [2 * c for c in g])


def test_yun_matches_sympy():
    rng = random.Random(77)
    t = sympy.Symbol("t")
    for trial in range(40):
        nfac = rng.randint(1, 3)
        poly = (1,)
        spoly = sympy.Integer(1)
        for _ in range(nfac):
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            mult = rng.randint(1, 3)
            for _ in range(mult):
                poly = coeffs_mul(poly, (a, b))
            spoly = spoly * (b * t + a) ** mult
        ours = sorted((m, len(p) - 1) for p, m in yun_squarefree(poly))
        theirs = sorted(
            (int(m), sympy.degree(p, t))
            for p, m in sympy.sqf_list(sympy.expand(spoly), t)[1]
        )
        assert ours == theirs


def test_multiplicity_profile_frozen():
    f = coeffs_mul(coeffs_mul((-1, 1), (-1, 1)), (2, 1))  # (t - 1)^2 (t + 2)
    assert projective_profile(f, 3) == ((1, 1), (2, 1))
    assert projective_profile((0, 0, 0, 0, 1), 4) == ((4, 1),)  # t^4
    assert projective_profile((-1, -1, 0, 1), 3) == ((1, 3),)  # irreducible cubic
    assert projective_profile((0, 1), 2) == ((1, 2),)  # t, and a simple root at infinity
    with pytest.raises(ValueError):
        projective_profile((0, 0, 0), 2)


def test_rational_roots_frozen():
    # 2t^2 - 3t + 1 = (2t - 1)(t - 1)
    rr = rational_roots((1, -3, 2))
    assert rr.roots == (((1, 2), 1), ((1, 1), 1))
    assert rr.remaining_degree == 0
    # t^2 + 1 has no rational roots
    rr = rational_roots((1, 0, 1))
    assert rr.roots == ()
    assert rr.remaining_degree == 2
    # (t - 1)^3
    rr = rational_roots((-1, 3, -3, 1))
    assert rr.roots == (((1, 1), 3),)
    assert rr.remaining_degree == 0
    # t^2 * (t + 5/3)
    rr = rational_roots((0, 0, Fraction(5, 3), 1))
    assert rr.roots == (((-5, 3), 1), ((0, 1), 2))
    assert rr.remaining_degree == 0


def test_rational_roots_random():
    rng = random.Random(5150)
    for trial in range(60):
        roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        poly = (rng.randint(1, 3),)
        for r in roots:
            poly = coeffs_mul(poly, (-r, 1))
        # an irreducible tail to exercise remaining_degree
        tail = rng.random() < 0.5
        if tail:
            poly = coeffs_mul(poly, (1, 0, 1))
        rr = rational_roots(poly)
        expected: dict[tuple[int, int], int] = {}
        for r in roots:
            key = (r.numerator, r.denominator)
            expected[key] = expected.get(key, 0) + 1
        assert dict(rr.roots) == expected
        assert rr.remaining_degree == (2 if tail else 0)
        _assert_reduced_and_increasing(rr.roots)


def _assert_reduced_and_increasing(roots):
    assert all(v > 0 and gcd(u, v) == 1 for (u, v), _ in roots)
    values = [Fraction(u, v) for (u, v), _ in roots]
    assert values == sorted(set(values))


def _random_root(rng):
    # numerators up to 10^6, denominators up to 10^5 or a product of small
    # primes, which the lifting must skip as divisors of the leading coefficient
    num = rng.randint(-(10 ** rng.randint(0, 6)), 10 ** rng.randint(0, 6))
    if rng.random() < 0.25:
        den = rng.choice((6, 30, 210, 2310, 30030))
    else:
        den = rng.randint(1, 10 ** rng.randint(0, 5))
    return Fraction(num, den)


def test_rational_roots_match_sympy():
    # large roots, repeated rational roots and repeated irreducible factors
    rng = random.Random(6060)
    t = sympy.Symbol("t")
    repeated = 0
    for trial in range(300):
        poly = (rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(0, 4)),)
        for _ in range(rng.randint(0, 4)):
            lin = (-_random_root(rng), 1)
            for _ in range(rng.randint(1, 3)):
                poly = coeffs_mul(poly, lin)
        for _ in range(rng.randint(0, 2)):
            q = [rng.randint(-9, 9) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 5)]
            for _ in range(rng.randint(1, 2)):
                poly = coeffs_mul(poly, q)
        if len(poly) < 2:
            continue
        expected: dict[tuple[int, int], int] = {}
        rest = 0
        oracle = sympy.Poly([sympy.Rational(str(c)) for c in reversed(poly)], t)
        for factor, mult in oracle.factor_list()[1]:
            if factor.degree() == 1:
                a, b = (int(c) for c in factor.all_coeffs())
                root = Fraction(-b, a)
                expected[root.numerator, root.denominator] = mult
            else:
                rest += factor.degree() * mult
        rr = rational_roots(poly)
        assert dict(rr.roots) == expected, poly
        assert rr.remaining_degree == rest, poly
        _assert_reduced_and_increasing(rr.roots)
        repeated += any(m > 1 for m in expected.values())
    assert repeated > 50


def test_roots_mod_p_frozen():
    assert roots_mod_p((-1, 0, 1), 7) == [1, 6]
    assert roots_mod_p((1, 0, 1), 7) == []
    assert roots_mod_p((-1, 2), 2) == [2]  # 2t - 1: the root 1/2 is at infinity mod 2
    assert roots_mod_p((0, 3), 3) == [0, 1, 2, 3]


def test_roots_mod_p_never_misses_a_rational_root():
    # the shared screen is sound: u/v reduces to u * v^-1 mod p, or to
    # infinity (a vanishing leading coefficient) when p divides v
    rng = random.Random(7070)
    at_infinity = 0
    for trial in range(400):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        v = rng.randint(1, 30) * (p if rng.random() < 0.3 else 1)
        u = rng.randint(-50, 50)
        g = gcd(u, v)
        u, v = u // g, v // g
        cofactor = [rng.randint(-20, 20) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 20)]
        coeffs = [0] * (len(cofactor) + 1)
        for i, c in enumerate(cofactor):  # (v*t - u) * cofactor
            coeffs[i] -= u * c
            coeffs[i + 1] += v * c
        residues = roots_mod_p(coeffs, p)
        if v % p == 0:
            assert p in residues
            at_infinity += 1
        else:
            assert u * pow(v, -1, p) % p in residues
    assert at_infinity > 50


def sylvester_resultant(f, g):
    """Sylvester determinant of two integer coefficient tuples, lowest degree first."""
    m, n = len(f) - 1, len(g) - 1
    fc, gc = list(reversed(f)), list(reversed(g))
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    return int(sympy.Matrix(rows).det()) if rows else 1


def test_resultant_matches_sympy():
    rng = random.Random(88)
    for trial in range(40):
        df, dg = rng.randint(1, 4), rng.randint(1, 4)
        f = tuple([rng.randint(-4, 4) for _ in range(df)] + [rng.randint(1, 4)])
        g = tuple([rng.randint(-4, 4) for _ in range(dg)] + [rng.randint(1, 4)])
        # oracle: Sylvester determinant, the convention-free definition
        assert coeffs_resultant(f, g) == sylvester_resultant(f, g)


def _integer_poly(max_degree, bound):
    """Integer coefficient tuples with a nonzero leading coefficient of either sign."""
    return st.integers(0, max_degree).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
            st.integers(-bound, bound).filter(bool),
        ).map(lambda cl: tuple(cl[0]) + (cl[1],))
    )


_BOUNDS = st.sampled_from([3, 40, 10**15])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coeffs_resultant_matches_sylvester(data):
    bound = data.draw(_BOUNDS)
    f = data.draw(_integer_poly(8, bound))
    g = data.draw(_integer_poly(8, bound))
    # nontrivial contents and, sometimes, a shared factor
    f = tuple(data.draw(st.integers(1, 12)) * c for c in f)
    if data.draw(st.booleans()):
        h = data.draw(_integer_poly(2, 5))
        f, g = coeffs_mul(f, h), coeffs_mul(g, h)
    ours = coeffs_resultant(f, g)
    assert ours == sylvester_resultant(f, g)
    assert coeffs_resultant(g, f) == (-1) ** ((len(f) - 1) * (len(g) - 1)) * ours


def test_coeffs_resultant_of_a_shared_factor_is_zero():
    h = (-3, 0, 2)
    assert coeffs_resultant(coeffs_mul(h, (1, 5)), coeffs_mul(h, (7, -1, 4))) == 0
    assert coeffs_resultant((), (1, 2)) == 0
    assert coeffs_resultant((6,), (-4,)) == 1
    assert coeffs_resultant((5, 0, 2), (3,)) == 9


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coeffs_gcd_matches_sympy(data):
    t = sympy.Symbol("t")
    bound = data.draw(_BOUNDS)
    h = data.draw(_integer_poly(3, 6))
    f = coeffs_mul(data.draw(_integer_poly(5, bound)), h)
    g = coeffs_mul(data.draw(_integer_poly(5, bound)), h)
    f = tuple(data.draw(st.integers(-9, 9).filter(bool)) * c for c in f)
    theirs = sympy.Poly(
        sympy.gcd(*(sympy.Poly(list(reversed(u)), t) for u in (f, g))), t
    ).primitive()[1]
    expected = [int(c) for c in reversed(theirs.all_coeffs())]
    if expected[-1] < 0:
        expected = [-c for c in expected]
    assert coeffs_gcd(f, g) == tuple(expected)


def test_coeffs_gcd_edge_cases():
    assert coeffs_gcd((), ()) == ()
    assert coeffs_gcd((4, -6), ()) == (-2, 3)
    assert coeffs_gcd((), (0, 0, -5)) == (0, 0, 1)
    assert coeffs_gcd((3,), (1, 1)) == (1,)


def test_lagrange_interpolation_round_trip():
    rng = random.Random(1234)
    for trial in range(40):
        deg = rng.randint(0, 5)
        poly = tuple([rng.randint(-10**6, 10**6) for _ in range(deg)] + [rng.choice([-3, 1, 7])])
        n = deg + 1 + rng.randint(0, 2)
        assert interpolate_integers([coeffs_evaluate(poly, k) for k in range(n)]) == poly
    assert interpolate_integers([]) == ()
    assert interpolate_integers([0, 0, 0]) == ()
    # t*(t - 1)/2 takes integer values but has no integer coefficients
    with pytest.raises(ValueError):
        interpolate_integers([0, 0, 1])
