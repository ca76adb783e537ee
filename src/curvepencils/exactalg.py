"""Exact arithmetic kernels shared by every other module.

Integer lattices, finite abelian groups presented by invariant factors,
rational linear algebra, and dense univariate polynomials over Q.  No
floating point enters any code path.

A lattice has one normal form, the column Hermite form, and every integer
kernel is one `hermite_column_form` pass.  The Smith form, with its
transform matrices, serves only the torsion group T(f), whose invariant
factors it gives.

A univariate polynomial is a plain coefficient sequence, lowest degree
first, and there is no other representation.  `coeffs_mul`,
`coeffs_derivative` and `coeffs_evaluate` keep integer input integral.
Every resultant and gcd runs in integers through one subresultant loop
(`coeffs_resultant`, `coeffs_gcd`), every exact division through
`coeffs_divide`, and sampled polynomials come back by
`interpolate_integers`; routines that accept Fraction entries
(`yun_squarefree`, `projective_profile`, `rational_roots`) first scale them
to a primitive integer vector by `primitive_vector`.  A polynomial g that
stands for a binary form of formal degree d (a restriction to a line, see
`TernaryForm.restrict_span`) has a root at infinity of multiplicity
d - deg g; `projective_profile` counts it.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import factorial, gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "integer_kernel_basis",
    "hermite_column_form",
    "FinAbelianGroup",
    "product_relation_lattice",
    "coeffs_mul",
    "coeffs_derivative",
    "coeffs_evaluate",
    "coeffs_resultant",
    "coeffs_gcd",
    "interpolate_integers",
    "coeffs_divide",
    "yun_squarefree",
    "projective_profile",
    "RationalRoots",
    "roots_mod_p",
    "rational_roots",
    "primitive_vector",
    "echelon_rows",
]


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix:
    """Immutable dense matrix over the integers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        data = tuple(tuple(int(e) for e in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        self.rows = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        cols = [tuple(int(e) for e in c) for c in columns]
        if not cols:
            if nrows is None:
                raise ValueError("empty column list needs an explicit row count")
            return cls([[] for _ in range(nrows)])
        n = len(cols[0])
        if nrows is not None and nrows != n:
            raise ValueError("row count mismatch")
        return cls([[c[i] for c in cols] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = other.transpose().rows
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        )

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if self.ncols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


class SmithDecomposition(NamedTuple):
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        n = min(self.D.nrows, self.D.ncols)
        return tuple(self.D.entry(i, i) for i in range(n))


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Decompose U * A * V = D with U, V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain
    d1 | d2 | ... ; trailing entries may be zero.  Pivots are chosen smallest
    in absolute value, which keeps intermediate entries modest.
    """
    m, n = A.nrows, A.ncols
    M = [list(row) for row in A.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, k):
        M[i], M[k] = M[k], M[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in M:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        M[dst] = [a + q * b for a, b in zip(M[dst], M[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in M:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        # --- Step 1: locate the smallest nonzero entry of the trailing block ---
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = M[i][j]
                if e != 0 and (best is None or abs(e) < abs(best[2])):
                    best = (i, j, e)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])

        # --- Step 2: clear row and column t by Euclidean steps ---
        while True:
            dirty = False
            for i in range(t + 1, m):
                if M[i][t] == 0:
                    continue
                q = M[i][t] // M[t][t]
                add_row(i, t, -q)
                if M[i][t] != 0:
                    swap_rows(i, t)
                    dirty = True
            for j in range(t + 1, n):
                if M[t][j] == 0:
                    continue
                q = M[t][j] // M[t][t]
                add_col(j, t, -q)
                if M[t][j] != 0:
                    swap_cols(j, t)
                    dirty = True
            if not dirty and all(M[i][t] == 0 for i in range(t + 1, m)) and all(
                M[t][j] == 0 for j in range(t + 1, n)
            ):
                break

        # --- Step 3: force divisibility of the trailing block by the pivot ---
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if M[i][j] % M[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue  # redo elimination at the same t

        if M[t][t] < 0:
            M[t] = [-e for e in M[t]]
            U[t] = [-e for e in U[t]]
        t += 1

    Um, Dm, Vm = IntMatrix(U), IntMatrix(M), IntMatrix(V)
    if Um.mul(A).mul(Vm) != Dm:
        raise ValueError("smith decomposition broke")
    return SmithDecomposition(Um, Dm, Vm)


def integer_kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : A x = 0}, as matrix columns.

    One `hermite_column_form` pass over the columns of A stacked on the
    identity (Cohen, *A Course in Computational Algebraic Number Theory*,
    2.4.3).  Column operations are unimodular, so the columns with a zero
    A-part, whose pivots lie in the identity rows, span the kernel; as the
    tail of a Hermite form their identity parts are already its canonical
    basis, so equal kernels produce equal matrices.
    """
    m, n = A.nrows, A.ncols
    unit = IntMatrix.identity(n).rows
    form = hermite_column_form([col + e for col, e in zip(A.columns(), unit)], m + n)
    return IntMatrix.from_columns([c[m:] for c in form if not any(c[:m])], n)


def hermite_column_form(columns: Sequence[Sequence[int]], nrows: int) -> list[tuple[int, ...]]:
    """Canonical column Hermite form of the lattice spanned by the columns.

    Pivots are positive and sit on strictly increasing rows; entries of
    earlier columns in a pivot row are reduced into [0, pivot).  Zero columns
    are dropped, so the result is a canonical basis usable as a dict key.
    """
    active = [list(c) for c in columns if any(e != 0 for e in c)]
    placed: list[list[int]] = []
    pivot_rows: list[int] = []
    for r in range(nrows):
        live = [c for c in active if c[r] != 0]
        if not live:
            continue
        # gcd-combine all columns with a nonzero entry at row r into one
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            small = live[0]
            for c in live[1:]:
                q = c[r] // small[r]
                for i in range(nrows):
                    c[i] -= q * small[i]
            live = [c for c in active if c[r] != 0]
        piv = live[0]
        active.remove(piv)
        if piv[r] < 0:
            piv = [-e for e in piv]
        placed.append(piv)
        pivot_rows.append(r)
    # normalize entries above later pivots
    for l in range(len(placed)):
        r = pivot_rows[l]
        for j in range(l):
            q = placed[j][r] // placed[l][r]
            if q:
                placed[j] = [a - q * b for a, b in zip(placed[j], placed[l])]
    return [tuple(c) for c in placed]


# ---------------------------------------------------------------------------
# finite abelian groups


class FinAbelianGroup:
    """Finite abelian group given by invariant factors d1 | d2 | ..., each >= 2."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: Iterable[int] = ()) -> None:
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        self.invariant_factors = factors

    @classmethod
    def trivial(cls) -> "FinAbelianGroup":
        return cls(())

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def characters(self) -> Iterator[tuple[Fraction, ...]]:
        """All characters, as exponent tuples in [0, 1) on the invariant-factor generators."""
        ranges = [[Fraction(a, d) for a in range(d)] for d in self.invariant_factors]
        return itertools.product(*ranges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinAbelianGroup) and self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash(("FinAbelianGroup", self.invariant_factors))

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)

    def __repr__(self) -> str:
        return f"FinAbelianGroup({list(self.invariant_factors)!r})"


def product_relation_lattice(moduli: Sequence[int], generators: Sequence[Sequence[int]]) -> IntMatrix:
    """Relation lattice of the listed generators inside the product of Z/m.

    Returns an s x s matrix whose columns span {x : sum x_i g_i = 0}, where s
    is the number of generators.  The quotient of Z^s by these columns is the
    subgroup the generators span.
    """
    s = len(generators)
    c = len(moduli)
    if s == 0:
        return IntMatrix([[]])
    # as in `integer_kernel_basis`: the columns of [G | diag(m)] stacked on
    # [I_s | 0], whose zero top parts leave the relations in the bottom rows
    unit = IntMatrix.identity(c + s).rows
    stacked = [tuple(int(e) for e in g) + unit[t][:s] for t, g in enumerate(generators)]
    stacked += [tuple(m * e for e in unit[k]) for k, m in enumerate(moduli)]
    form = hermite_column_form(stacked, c + s)
    return IntMatrix.from_columns([col[c:] for col in form if not any(col[:c])], s)


# ---------------------------------------------------------------------------
# rational linear algebra


def primitive_vector(coords: Sequence[Fraction | int]) -> tuple[int, ...]:
    """The primitive integer multiple of a nonzero vector, first nonzero entry positive."""
    ints = coords
    if not all(type(c) is int for c in coords):
        den = 1
        for c in coords:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [c.numerator * (den // c.denominator) for c in coords]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("projective coordinates cannot all vanish")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def echelon_rows(vectors: Iterable[Sequence[Fraction | int]]) -> tuple[tuple[int, ...], ...]:
    """The reduced row echelon form of the vectors' rational span.

    Each row is scaled to a primitive integer vector with positive pivot
    and the rows are sorted by pivot column, so equal spans give equal
    tuples; the rank is the number of rows.  Fraction-free: each input,
    made primitive, is cleared against the rows so far by
    cross-multiplication, made primitive again, and then clears its own
    pivot column from those rows.
    """
    rows: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for vec in vectors:
        if not any(vec):
            continue
        v = primitive_vector(vec)
        for row, p in zip(rows, pivots):
            c = v[p]
            if c:
                a = row[p]
                v = [a * x - c * y for x, y in zip(v, row)]
        if not any(v):
            continue
        v = primitive_vector(v)
        j = next(k for k, x in enumerate(v) if x)
        a = v[j]
        for i, row in enumerate(rows):
            c = row[j]
            if c:
                rows[i] = primitive_vector([a * x - c * y for x, y in zip(row, v)])
        k = bisect.bisect(pivots, j)
        rows.insert(k, v)
        pivots.insert(k, j)
    return tuple(rows)


# ---------------------------------------------------------------------------
# univariate polynomials over Q


def coeffs_mul(u: Sequence, v: Sequence) -> tuple:
    """Product of two coefficient sequences; empty means zero."""
    if not u or not v:
        return ()
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] += a * b
    return tuple(out)


def coeffs_derivative(u: Sequence) -> tuple:
    return tuple(k * u[k] for k in range(1, len(u)))


def coeffs_evaluate(u: Sequence, x):
    """Horner evaluation of the coefficient sequence at x."""
    acc = 0
    for a in reversed(u):
        acc = acc * x + a
    return acc


# ---------------------------------------------------------------------------
# the integer kernel: resultant, gcd and interpolation over Z


def _trimmed(u: Sequence[int]) -> list[int]:
    out = list(u)
    while out and out[-1] == 0:
        out.pop()
    return out


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lc(b)^(deg a - deg b + 1) * a on division by b, trimmed."""
    lead, db = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(a) - 1, db - 1, -1):
        c = r.pop()  # the t^k coefficient, cancelled by c * t^(k - db) * b
        r = [lead * x for x in r]
        if c:
            for j in range(db):
                r[k - db + j] -= c * b[j]
    return _trimmed(r)


def _subresultant_tail(a: list[int], b: list[int]) -> tuple[list[int], list[int], int, int]:
    """Run the subresultant remainder sequence of a and b until b is constant or zero.

    a and b are primitive with deg a >= deg b >= 0.  Returns the last two
    terms a and b, the scale h, and the product of (-1)^(deg a * deg b)
    over the steps; `coeffs_resultant` needs the last two.  Every ``//`` is
    exact by the fundamental theorem on subresultants (Brown and Traub,
    1971; von zur Gathen and Gerhard, *Modern Computer Algebra*, chapters 6
    and 11; Cohen, *A Course in Computational Algebraic Number Theory*,
    section 3.3): the remainder divided by g*h^delta is, up to sign, a
    subresultant of a and b, whose coefficients are minors of their
    Sylvester matrix, and the new h, g^delta / h^(delta - 1), is the
    leading coefficient of a subresultant, again an integer.
    """
    g = h = 1
    sign = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _pseudo_remainder(a, b)
        scale = g * h**delta
        a, b = b, [c // scale for c in r]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    return a, b, h, sign


def _primitive_parts(
    f: Sequence[int], g: Sequence[int]
) -> tuple[list[int], list[int], int, int]:
    """f and g trimmed and divided by their contents, with the contents."""
    f, g = _trimmed(f), _trimmed(g)
    cf, cg = gcd(*f), gcd(*g)
    return [c // cf for c in f], [c // cg for c in g], cf, cg


def coeffs_resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of two integer coefficient sequences at their true degrees.

    The Sylvester determinant of f and g; 0 when either is zero or they
    share a root.  Contents come out first, Res(c*f, g) = c^deg g * Res(f, g),
    and the rest runs `_subresultant_tail` in integers.
    """
    f, g, cf, cg = _primitive_parts(f, g)
    if not f or not g:
        return 0
    df, dg = len(f) - 1, len(g) - 1
    sign = 1
    if df < dg:
        f, g = g, f  # Res(g, f) = (-1)^(df*dg) * Res(f, g)
        if df & dg & 1:
            sign = -1
    a, b, h, steps = _subresultant_tail(f, g)
    if not b:
        return 0
    n = len(a) - 1
    last = b[0] ** n // h ** (n - 1) if n else 1
    return sign * steps * cf**dg * cg**df * last


def coeffs_gcd(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd of two integer coefficient sequences, leading coefficient positive.

    The gcd over Q up to a constant: the last nonzero term of the same
    subresultant sequence as `coeffs_resultant`.  Zero only for two zeros.
    """
    f, g, _, _ = _primitive_parts(f, g)
    if len(f) < len(g):
        f, g = g, f
    a, b, _, _ = _subresultant_tail(f, g)
    if b:
        return (1,)
    if not a:
        return ()
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return tuple(x // c for x in a)


def interpolate_integers(values: Sequence[int]) -> tuple[int, ...]:
    """The integer polynomial of degree < n through (k, values[k]), k = 0..n-1.

    Newton's forward-difference form f(t) = sum_k D^k f(0) * C(t, k) has
    integer differences D^k f(0); times (n-1)! every binomial C(t, k)
    becomes an integer polynomial, and one exact division by (n-1)! ends
    it.  ValueError when no integer polynomial takes these values.
    """
    n = len(values)
    diffs = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    scale = factorial(n - 1) if n else 1
    total = [0] * n
    basis = [scale]  # (n-1)!/k! * t(t-1)...(t-k+1)
    for k, d in enumerate(diffs):
        if d:
            for i, c in enumerate(basis):
                total[i] += d * c
        if k + 1 < n:
            shifted = [0] + basis
            basis = [(x - k * y) // (k + 1) for x, y in zip(shifted, basis + [0])]
    out = []
    for c in total:
        q, r = divmod(c, scale)
        if r:
            raise ValueError("the values are not those of an integer polynomial")
        out.append(q)
    return tuple(_trimmed(out))


def coeffs_divide(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...] | None:
    """The quotient f / g in Z[t] for a primitive g, or None when g does not divide f.

    By Gauss's lemma the quotient of an integer f by a primitive divisor is
    integral, so a nonzero remainder of any step's integer division proves
    that g does not divide f.  Dividing by v*t - u is dividing by (-u, v).
    ValueError when g is not primitive, zero included.
    """
    f, g = _trimmed(f), _trimmed(g)
    if gcd(*g) != 1:
        raise ValueError("the divisor must be primitive")
    lead, dg = g[-1], len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(f) - 1, dg - 1, -1):
        c, rem = divmod(f[k], lead)
        if rem:
            return None
        q[k - dg] = c
        if c:
            for j in range(dg):
                f[k - dg + j] -= c * g[j]
    return tuple(q) if not any(f[:dg]) else None


def _minus_derivative(c: Sequence[int], b: Sequence[int]) -> list[int]:
    """c - b', trimmed."""
    return _trimmed([x - y for x, y in itertools.zip_longest(c, coeffs_derivative(b), fillvalue=0)])


def yun_squarefree(f: Sequence[Fraction | int]) -> list[tuple[tuple[int, ...], int]]:
    """Squarefree decomposition f = c * prod a_i^i by Yun's algorithm, over Z.

    Returns the nonconstant primitive factors a_i with their multiplicities
    i.  Each step divides b and c by the same primitive gcd, so they stay
    integral (`coeffs_divide`) and agree with the monic steps over Q up to
    one common constant.
    """
    if not any(f):
        raise ValueError("zero polynomial has no squarefree decomposition")
    f = _trimmed(primitive_vector(f))
    if len(f) < 2:
        return []
    df = coeffs_derivative(f)
    a = coeffs_gcd(f, df)
    b = coeffs_divide(f, a)
    d = _minus_derivative(coeffs_divide(df, a), b)
    out: list[tuple[tuple[int, ...], int]] = []
    i = 1
    while len(b) > 1:
        ai = coeffs_gcd(b, d)
        if len(ai) > 1:
            out.append((ai, i))
        b = coeffs_divide(b, ai)
        d = _minus_derivative(coeffs_divide(d, ai), b)
        i += 1
    return out


def projective_profile(f: Sequence[Fraction | int], degree: int) -> tuple[tuple[int, int], ...]:
    """Multiset of (multiplicity, degree) of f read as a binary form of formal degree ``degree``.

    The squarefree decomposition of f, with the root at infinity, of
    multiplicity degree - deg f, merged into the entry of its multiplicity,
    so the profile does not depend on the chart and the weighted degrees
    add up to ``degree``.  Sorted ascending, so equal profiles compare
    equal as tuples.  ValueError on the zero polynomial.
    """
    entries = {mult: len(part) - 1 for part, mult in yun_squarefree(f)}
    at_infinity = degree - (len(_trimmed(f)) - 1)
    if at_infinity > 0:
        entries[at_infinity] = entries.get(at_infinity, 0) + 1
    return tuple(sorted(entries.items()))


class RationalRoots(NamedTuple):
    roots: tuple[tuple[tuple[int, int], int], ...]
    remaining_degree: int


def roots_mod_p(coeffs: Sequence[int], p: int) -> list[int]:
    """Roots mod p of an integer polynomial read as a binary form.

    The residues s in [0, p) where sum c_i * s^i vanishes mod p, then p
    itself, standing for infinity, when the leading coefficient does.  A
    rational root u/v in lowest terms has v | c_n; it reduces to u/v mod p,
    or to infinity when p | v, so an empty list certifies that there is no
    rational root.
    """
    reduced = [c % p for c in reversed(coeffs)]
    out = []
    for s in range(p):
        acc = 0
        for c in reduced:
            acc = (acc * s + c) % p
        if acc == 0:
            out.append(s)
    if reduced[0] == 0:
        out.append(p)
    return out


def _primes() -> Iterator[int]:
    found: list[int] = []
    for n in itertools.count(2):
        if all(n % q for q in found):
            found.append(n)
            yield n


def _root_candidates(h: Sequence[int]) -> list[tuple[int, int]]:
    """Rationals among which every root of h lies, by p-adic lifting.

    Each candidate u/v is the integer pair (u, v) in lowest terms with
    v > 0, the form in which `rational_roots` returns a confirmed root.
    h is primitive over Z of degree >= 1, with leading coefficient a and
    B = |a| + max |c_i| over the other coefficients.  A root r of h reduces
    to a root mod every prime p not dividing a, so a rootless residue ring
    proves that there is none.  At the first such p where every root mod p
    is simple, Newton's iteration lifts each one to a p-adic root x, which
    is r when the root came from r.  Cauchy's bound gives |a*r| <= B, so once
    the modulus M exceeds 2B, a*r is the symmetric residue of a*x mod M.  A
    repeated root is multiple mod every p, so after a few primes with a
    multiple root h becomes its squarefree part, which has the same roots
    and only finitely many such primes.
    """
    tries = 0
    for p in _primes():
        if h[-1] % p == 0:
            continue
        residues = roots_mod_p(h, p)
        if not residues:
            return []
        dh = coeffs_derivative(h)
        if all(coeffs_evaluate(dh, s) % p for s in residues):
            break
        tries += 1
        if tries == 4:
            h = coeffs_divide(h, coeffs_gcd(h, coeffs_derivative(h)))
    a = h[-1]
    bound = 2 * (abs(a) + max(abs(c) for c in h[:-1]))
    out = []
    for x in residues:
        m = p
        while m <= bound:
            m *= m
            x = (x - coeffs_evaluate(h, x) * pow(coeffs_evaluate(dh, x), -1, m)) % m
        n = a * x % m
        u = n - m if 2 * n > m else n
        g = gcd(u, a) if a > 0 else -gcd(u, a)
        out.append((u // g, a // g))
    return out


def rational_roots(f: Sequence[Fraction | int]) -> RationalRoots:
    """All rational roots of a coefficient sequence with multiplicities, plus the leftover degree.

    Each root u/v is the reduced integer pair (u, v) with v > 0, and the
    roots come in increasing order of u/v, compared by cross-multiplication.
    ``remaining_degree`` counts the rootless factor; it is zero exactly when
    f splits over Q into linear factors.  Candidates (u, v) come from
    `_root_candidates` on f made primitive over Z; `coeffs_divide` by
    v*t - u confirms each root u/v and counts its multiplicity.
    """
    if not any(f):
        raise ValueError("zero polynomial has every root")
    h = _trimmed(primitive_vector(f))
    k = next(i for i, c in enumerate(h) if c)
    h = h[k:]
    roots: list[tuple[tuple[int, int], int]] = [((0, 1), k)] if k else []
    if len(h) > 1:
        for u, v in _root_candidates(h):
            mult = 0
            while len(h) > 1 and (q := coeffs_divide(h, (-u, v))) is not None:
                h = q
                mult += 1
            if mult:
                roots.append(((u, v), mult))
    roots.sort(key=cmp_to_key(lambda a, b: a[0][0] * b[0][1] - b[0][0] * a[0][1]))
    return RationalRoots(tuple(roots), len(h) - 1)
