"""Homogeneous polynomials in x, y, z over the integers, and small projective geometry.

Forms are stored as monomial dictionaries and always kept homogeneous; the
text grammar is signed sums of terms ``c*x^a*y^b*z^c`` with rational
coefficients.  Every form the program builds is integral (components are
primitive integer forms, and Gauss's lemma keeps their cofactors integral),
so an integral coefficient is a plain ``int`` and only parsed input can
carry a ``Fraction``.  All division goes through `_division`, one
lex-order loop: `exact_divide` decides divisibility, and `divide`, whose
remainder decides pencil membership, serves `member_of_pencil_dividing`.

Every restriction of a form to a line goes through
`TernaryForm.restrict_span`, which returns g(t) = F(p + t*q) as a plain
coefficient tuple, lowest degree first, the one univariate representation
of `exactalg`: the point q sits at t = infinity, and the degree by which g
falls short of the form's degree is the multiplicity of that root.  Every plane span(P, Q)
is named by `span_rows`, its reduced echelon rows in integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .exactalg import (
    coeffs_mul,
    coeffs_resultant,
    echelon_rows,
    interpolate_integers,
    primitive_vector,
)

__all__ = [
    "PolyParseError",
    "TernaryForm",
    "ProjPoint",
    "P1Point",
    "ProjLine",
    "cross",
    "line_through",
    "projected_resultant",
    "divide",
    "exact_divide",
    "divisibility_multiplicity",
    "member_of_pencil_dividing",
    "span_rows",
]

_VARS = ("x", "y", "z")


class PolyParseError(ValueError):
    """Raised when polynomial text violates the input grammar."""


class TernaryForm:
    """A homogeneous polynomial in x, y, z with int or Fraction coefficients.

    An integral coefficient is stored as an ``int``, whatever type it came
    in as, so a ``Fraction`` always has denominator > 1; zero coefficients
    are dropped.  The one monomial order is lex with x > y > z, the order
    in which exponent tuples compare, so the leading term is the largest.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: dict[tuple[int, int, int], Fraction | int]) -> None:
        clean = {}
        for k, v in terms.items():
            if v:
                if type(v) is not int and v.denominator == 1:
                    v = v.numerator
                clean[k] = v
        degs = {sum(k) for k in clean}
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        self.terms = clean
        self.degree = degs.pop() if degs else -1

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "TernaryForm":
        return cls({})

    @classmethod
    def constant(cls, c: Fraction | int) -> "TernaryForm":
        return cls({(0, 0, 0): c})

    @classmethod
    def parse(cls, text: str) -> "TernaryForm":
        """Parse the grammar: signed sums of terms ``c*x^a*y^b*z^c``."""
        if not isinstance(text, str):
            raise PolyParseError(f"polynomial {text!r} is not a string")
        s = text.replace(" ", "").replace("\t", "")
        if not s:
            raise PolyParseError("empty polynomial")
        # split into signed chunks
        chunks: list[str] = []
        cur = ""
        for i, ch in enumerate(s):
            if ch in "+-" and i > 0 and s[i - 1] not in "+-/^*":
                chunks.append(cur)
                cur = ch
            else:
                cur += ch
        chunks.append(cur)
        terms: dict[tuple[int, int, int], Fraction | int] = {}
        for chunk in chunks:
            if not chunk or chunk in "+-":
                raise PolyParseError(f"empty term in {text!r}")
            coeff, exps = cls._parse_term(chunk)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        try:
            return cls(terms)
        except ValueError as exc:
            raise PolyParseError(f"{exc} in {text!r}") from None

    @staticmethod
    def _parse_term(chunk: str) -> tuple[Fraction | int, list[int]]:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise PolyParseError("sign with no term")
        coeff: Fraction | int = sign
        exps = [0, 0, 0]
        for factor in chunk.split("*"):
            if not factor:
                raise PolyParseError(f"empty factor in term {chunk!r}")
            if factor[0] in _VARS:
                var = factor[0]
                rest = factor[1:]
                if rest == "":
                    power = 1
                elif rest.startswith("^"):
                    if not rest[1:].isdigit():
                        raise PolyParseError(f"bad exponent in {factor!r}")
                    power = int(rest[1:])
                else:
                    raise PolyParseError(f"bad factor {factor!r}")
                exps[_VARS.index(var)] += power
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise PolyParseError(f"bad coefficient {factor!r}") from None
        return coeff, exps

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.degree <= 0

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], Fraction | int]]:
        return sorted(self.terms.items(), reverse=True)

    def coefficient(self, exps: tuple[int, int, int]) -> Fraction | int:
        return self.terms.get(exps, 0)

    def leading_term(self) -> tuple[tuple[int, int, int], Fraction | int]:
        if not self.terms:
            raise ValueError("zero form has no leading term")
        key = max(self.terms)
        return key, self.terms[key]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TernaryForm") -> "TernaryForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return TernaryForm(out)

    def __sub__(self, other: "TernaryForm") -> "TernaryForm":
        return self + (-other)

    def __neg__(self) -> "TernaryForm":
        return TernaryForm({k: -v for k, v in self.terms.items()})

    def __mul__(self, other: "TernaryForm") -> "TernaryForm":
        out: dict[tuple[int, int, int], Fraction | int] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                out[k] = out.get(k, 0) + v1 * v2
        return TernaryForm(out)

    def scale(self, c: Fraction | int) -> "TernaryForm":
        if c == 0:
            return TernaryForm.zero()
        return TernaryForm({k: v * c for k, v in self.terms.items()})

    def power(self, n: int) -> "TernaryForm":
        out = TernaryForm.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction | int:
        """F(point); an integer form at an integer point gives an int."""
        px, py, pz = point
        return sum(coef * (px**a * py**b * pz**c) for (a, b, c), coef in self.terms.items())

    # -- normalization -------------------------------------------------------

    def primitive(self) -> "TernaryForm":
        """Canonical scalar multiple: integer, content 1, leading sign positive."""
        if self.is_zero():
            return self
        keys = sorted(self.terms, reverse=True)
        return TernaryForm(dict(zip(keys, primitive_vector([self.terms[k] for k in keys]))))

    def proportional_to(self, other: "TernaryForm") -> bool:
        """Whether other = c*self, c != 0: same monomials, v*b = w*a against one pair (a, b)."""
        if self.terms.keys() != other.terms.keys():
            return False
        if not self.terms:
            return True
        a, b = next((v, other.terms[k]) for k, v in self.terms.items())
        return all(other.terms[k] * a == v * b for k, v in self.terms.items())

    # -- linear algebra views -------------------------------------------------

    @staticmethod
    def monomials_of_degree(d: int) -> list[tuple[int, int, int]]:
        return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]

    def coefficient_vector(self, degree: int | None = None) -> tuple[Fraction | int, ...]:
        d = self.degree if degree is None else degree
        if not self.is_zero() and d != self.degree:
            raise ValueError("degree mismatch")
        return tuple(self.coefficient(m) for m in self.monomials_of_degree(d))

    # -- restriction ----------------------------------------------------------

    def restrict_span(
        self, p: Sequence[Fraction | int], q: Sequence[Fraction | int]
    ) -> tuple[Fraction | int, ...]:
        """The restriction g(t) = F(p + t*q) to the line through p and q.

        This is the one chart of a restricted line: a root t of g is the
        point p + t*q, and each degree by which g falls below ``self.degree``
        is a root at t = infinity, the point q.  g comes back as its
        ``self.degree + 1`` coefficients, lowest first and trailing zeros
        kept, so g[-1] == 0 exactly when q lies on the curve; g is all zero
        when the line lies on it.  An integer form at integer points gives
        integers.
        """
        powers = []  # powers[i][e] = (p_i + t*q_i)^e
        for i in range(3):
            row = [(1,)]
            for _ in range(self.degree):
                row.append(coeffs_mul(row[-1], (p[i], q[i])))
            powers.append(row)
        out = [0] * (self.degree + 1)
        for (a, b, c), coef in self.terms.items():
            term = coeffs_mul(coeffs_mul(powers[0][a], powers[1][b]), powers[2][c])
            for k, v in enumerate(term):
                out[k] += coef * v
        return tuple(out)

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TernaryForm) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"TernaryForm.parse({str(self)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for exps, coef in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(_VARS, exps)
                if e > 0
            )
            mag = abs(coef)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# projective points and lines


def cross(a: Sequence, b: Sequence) -> tuple:
    """The line through two points, or the meeting point of two lines."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def span_rows(
    P: TernaryForm, Q: TernaryForm
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """span(P, Q) as its `echelon_rows`; None when P and Q are proportional.

    P and Q are nonzero forms of one degree.  The rows are canonical, so
    equal rows mean equal spans.
    """
    monomials = TernaryForm.monomials_of_degree(P.degree)
    rows = echelon_rows([F.terms.get(m, 0) for m in monomials] for F in (P, Q))
    return rows if len(rows) == 2 else None


class _Coords:
    """Primitive integer coordinates, compared, ordered and hashed as a tuple."""

    __slots__ = ("coords",)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coords))

    def __lt__(self, other: "_Coords") -> bool:
        return self.coords < other.coords

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


class ProjPoint(_Coords):
    """A point of the projective plane with primitive integer coordinates."""

    __slots__ = ()

    def __init__(self, coords: Sequence[Fraction | int]) -> None:
        if len(coords) != 3:
            raise ValueError("plane points have three coordinates")
        self.coords = primitive_vector(coords)

    def __repr__(self) -> str:
        return f"ProjPoint({self.coords!r})"


class P1Point(_Coords):
    """A point of the projective line, written (b0 : b1)."""

    __slots__ = ()

    def __init__(self, b0: Fraction | int, b1: Fraction | int) -> None:
        self.coords = primitive_vector((b0, b1))

    def __repr__(self) -> str:
        return f"P1Point{self.coords!r}"


class ProjLine:
    """A line in the plane, as a linear form plus a rational parametrization."""

    __slots__ = ("form", "span")

    def __init__(self, form: TernaryForm) -> None:
        if form.degree != 1:
            raise ValueError("a line needs a degree-1 form")
        self.form = form.primitive()
        self.span = self._two_points()

    @classmethod
    def from_coefficients(cls, a: int, b: int, c: int) -> "ProjLine":
        return cls(TernaryForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}))

    def _two_points(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        a = self.form.coefficient_vector()
        uniq: list[tuple[int, ...]] = []
        # cross products of the coefficient vector with the standard basis
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            v = cross(a, e)
            if any(v):
                point = primitive_vector(v)
                if point not in uniq:
                    uniq.append(point)
        return uniq[0], uniq[1]

    def rational_points(self, count: int) -> Iterator[ProjPoint]:
        """Distinct rational points, walking the parametrization."""
        p, q = self.span
        seen: set[ProjPoint] = set()
        for s, t in itertools.chain([(1, 0), (0, 1)], ((1, k) for k in itertools.count(1))):
            pt = ProjPoint(tuple(s * a + t * b for a, b in zip(p, q)))
            if pt not in seen:
                seen.add(pt)
                yield pt
                if len(seen) >= count:
                    return

    def __repr__(self) -> str:
        return f"ProjLine({self.form!r})"


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    v = cross(p.coords, q.coords)
    if not any(v):
        raise ValueError("coincident points span no line")
    return ProjLine.from_coefficients(*v)


def projected_resultant(
    f: TernaryForm, g: TernaryForm, center: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """R(t) = Res_s(f(r + s*c), g(r + s*c)) at r = r0 + t*r1, with r0 and r1.

    r0 + t*r1, and r1 at t = infinity, run over a coordinate line x_k = 0
    with c_k != 0, which every line through the center c meets once.  With
    c off both curves, deg R <= deg f * deg g; R(t) vanishes exactly when
    the line through c and r carries a common point, falls short of that
    degree exactly when the line through c and r1 does, and is zero exactly
    when f and g share a factor.  f and g are made primitive over Z, so the
    samples at t = 0..deg f * deg g are integer `coeffs_resultant`s and
    interpolate in integers: R comes back as an integer coefficient tuple,
    trimmed, up to a nonzero integer constant.
    """
    if not (f.evaluate(center) and g.evaluate(center)):
        raise ValueError("the projection center lies on a curve")
    k = next(n for n, v in enumerate(center) if v)
    r0, r1 = (tuple(int(n == m) for n in range(3)) for m in range(3) if m != k)
    f0, g0 = f.primitive(), g.primitive()

    def sample(t: int) -> int:
        r = [a + t * b for a, b in zip(r0, r1)]
        return coeffs_resultant(*(h.restrict_span(r, center) for h in (f0, g0)))

    R = interpolate_integers([sample(t) for t in range(f.degree * g.degree + 1)])
    return R, r0, r1


# ---------------------------------------------------------------------------
# exact division


def divide(f: TernaryForm, g: TernaryForm) -> tuple[TernaryForm, TernaryForm]:
    """Quotient and remainder of f on division by g, in lex order x > y > z.

    A leading term that g's leading monomial does not divide moves to the
    remainder.  One form is a Groebner basis of its ideal, so the remainder
    is the normal form of f: linear in f, and zero exactly when g divides f.
    """
    quotient, remainder = _division(f, g, exact=False)
    return TernaryForm(quotient), TernaryForm(remainder)


def _division(f: TernaryForm, g: TernaryForm, exact: bool) -> tuple[dict, dict] | None:
    """The one division loop: quotient and remainder terms of f by g.

    A quotient step is ``coef // g_coef`` when that division is exact and
    a `Fraction` otherwise.  With ``exact`` the loop returns None as soon
    as it proves that g does not divide f (see `exact_divide`).
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero form")
    (ga, gb, gc), g_coef = g.leading_term()
    g_tail = [(k, v) for k, v in g.terms.items() if k != (ga, gb, gc)]
    gauss = exact and _integral(f) and _integral(g) and gcd(*g.terms.values()) == 1
    work = dict(f.terms)
    quotient: dict[tuple[int, int, int], Fraction | int] = {}
    remainder: dict[tuple[int, int, int], Fraction | int] = {}
    while work:
        lead = max(work)  # exponent tuples compare in lex order x > y > z
        coef = work.pop(lead)
        a, b, c = lead[0] - ga, lead[1] - gb, lead[2] - gc
        if a < 0 or b < 0 or c < 0:
            if exact:
                return None
            remainder[lead] = coef
            continue
        if type(coef) is int and type(g_coef) is int and not coef % g_coef:
            q = coef // g_coef
        elif gauss:
            return None
        else:
            q = Fraction(coef, g_coef)
        quotient[(a, b, c)] = q
        for (ka, kb, kc), v in g_tail:
            k = (ka + a, kb + b, kc + c)
            left = work.get(k, 0) - q * v
            if left:
                work[k] = left
            else:
                del work[k]
    return quotient, remainder


def _integral(f: TernaryForm) -> bool:
    return all(type(v) is int for v in f.terms.values())


def exact_divide(f: TernaryForm, g: TernaryForm) -> TernaryForm | None:
    """The cofactor h with f = g * h, or None when g does not divide f.

    The division stops at the first remainder term: later terms are lower
    in lex order, so a remainder term, once set, is final.  When f is
    integral and g primitive integral, it also stops at the first quotient
    coefficient that is not an integer.  That is sound by Gauss's lemma.
    Suppose f = g*h and write h = c*h0, with c rational and h0 primitive
    integral.  Then g*h0 is primitive, and c*(g*h0) = f is integral, so c
    is an integer and h is integral.  Division by one form is unique (f =
    q*g + r with no term of r divisible by g's leading monomial fixes q),
    and each step of the loop fixes one coefficient of q for good, so the
    loop computes h.  A quotient coefficient that is not an integer
    therefore proves that g does not divide f.
    """
    out = _division(f, g, exact=True)
    return None if out is None else TernaryForm(out[0])


def divisibility_multiplicity(f: TernaryForm, g: TernaryForm) -> int:
    """Largest e with g^e dividing f."""
    if g.is_constant():
        raise ValueError("multiplicity against a constant is undefined")
    e = 0
    work = f
    while not work.is_zero():
        nxt = exact_divide(work, g)
        if nxt is None:
            break
        work = nxt
        e += 1
    return e


def member_of_pencil_dividing(
    fj: TernaryForm, P: TernaryForm, Q: TernaryForm
) -> tuple[P1Point, int] | None:
    """The fiber of span(P, Q) divisible by fj, with the multiplicity.

    The fiber over (b0 : b1) is b1*P - b0*Q.  Returns None when no member is
    divisible.  P and Q must be independent forms of equal degree.

    The last rung of the placement ladder in `pencil`, for components with
    no vote: the remainders rP, rQ of P and Q on division by fj are linear
    in the dividend, so fj divides the fiber exactly when b1*rP = b0*rQ.
    Both remainders vanish exactly when fj divides both P and Q; then fj
    divides every fiber, and `ValueError` reports the common factor.
    """
    if P.is_zero() or Q.is_zero() or P.degree != Q.degree:
        raise ValueError("pencil generators must be nonzero of equal degree")
    if P.proportional_to(Q):
        raise ValueError("degenerate pencil: proportional generators")
    if fj.is_constant():
        raise ValueError("members are nonconstant forms")
    _, rP = divide(P, fj)
    _, rQ = divide(Q, fj)
    if rP.is_zero() and rQ.is_zero():
        raise ValueError("degenerate pencil: the member divides both generators")
    if rP.is_zero():
        b = P1Point(0, 1)
    elif rQ.is_zero():
        b = P1Point(1, 0)
    else:
        lead, cP = rP.leading_term()
        cQ = rQ.coefficient(lead)
        if rP.scale(cQ) != rQ.scale(cP):
            return None
        b = P1Point(cP, cQ)
    fiber = P.scale(b.coords[1]) - Q.scale(b.coords[0])
    return b, divisibility_multiplicity(fiber, fj)
