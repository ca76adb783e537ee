"""Pencils of plane curves relative to an arrangement.

A pencil is spanned by two forms of equal degree; the fiber over the base
point (b0 : b1) is b1*P - b0*Q.  Components of the arrangement either fill
whole fibers (type 1), sit inside fibers with non-arrangement parts
(type 2), or map onto the base (horizontal).  Special fibers outside the
fully-arrangement set B are located through the discriminants of probe
line restrictions and profiled exactly on counted lines through one point.
Every probe line and point comes from `ProbeSequence`, and every walk over
probes stops within a proven bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arrangement import Arrangement, CurveComponent, local_pencil_points, meeting_points
from .exactalg import (
    coeffs_derivative,
    coeffs_evaluate,
    coeffs_gcd,
    coeffs_resultant,
    interpolate_integers,
    primitive_vector,
    projective_profile,
    rational_roots,
)
from .polyform import (
    P1Point,
    PolyParseError,
    ProjLine,
    ProjPoint,
    TernaryForm,
    divisibility_multiplicity,
    exact_divide,
    member_of_pencil_dividing,
    projected_resultant,
    span_rows,
)

__all__ = [
    "PencilError",
    "ProbeDegeneracyError",
    "Pencil",
    "ComponentPlacement",
    "FiberData",
    "SpecialPoint",
    "PencilClassification",
    "classify",
    "detect_special_fibers",
    "FYReport",
    "fy_identities",
    "BlowupCluster",
    "SelfIntersectionReport",
    "self_intersection",
    "pencil_search",
]


class PencilError(ValueError):
    """Raised when a pencil violates a structural requirement."""


class ProbeDegeneracyError(RuntimeError):
    """A proven bound on probes ran out: the input is degenerate for probing."""


@dataclass(frozen=True)
class Pencil:
    """Two independent forms of equal degree; their `span_rows` names the pencil."""

    P: TernaryForm
    Q: TernaryForm
    _span: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.P.is_zero() or self.Q.is_zero():
            raise PencilError("pencil generators must be nonzero")
        if self.P.degree != self.Q.degree:
            raise PencilError(
                f"generators have degrees {self.P.degree} and {self.Q.degree}"
            )
        den = lcm(*(v.denominator for F in (self.P, self.Q) for v in F.terms.values()))
        if den > 1:  # one integer clears both, so each fiber keeps its (b0 : b1)
            object.__setattr__(self, "P", self.P.scale(den))
            object.__setattr__(self, "Q", self.Q.scale(den))
        span = span_rows(self.P, self.Q)
        if span is None:
            raise PencilError("degenerate pencil: proportional generators")
        object.__setattr__(self, "_span", span)

    @property
    def degree(self) -> int:
        return self.P.degree

    def fiber(self, b: P1Point) -> TernaryForm:
        b0, b1 = b.coords
        return self.P.scale(b1) - self.Q.scale(b0)

    def span_key(self) -> tuple:
        """Canonical key of the plane spanned by the generators (`span_rows`)."""
        return self._span

    def contains(self, form: TernaryForm) -> bool:
        """Whether a form of the pencil's degree lies in span(P, Q)."""
        if form.is_zero():
            return True
        rows = span_rows(self.P, form)
        return rows is None or rows == self._span

    @classmethod
    def from_json(cls, doc: dict, arr: Arrangement) -> "Pencil":
        if not isinstance(doc, dict):
            raise PencilError("pencil file must hold a JSON object")
        if "P" in doc and "Q" in doc:
            try:
                return cls(TernaryForm.parse(doc["P"]), TernaryForm.parse(doc["Q"]))
            except PolyParseError as exc:
                raise PencilError(str(exc)) from None
        if "blocks" in doc:
            blocks = doc["blocks"]
            if not isinstance(blocks, (list, tuple)) or len(blocks) < 2:
                raise PencilError("need a list of at least two blocks")
            forms = []
            for block in blocks:
                try:
                    members, mults = block["members"], block["multiplicities"]
                except (TypeError, KeyError):
                    raise PencilError(
                        "each block needs 'members' and 'multiplicities'"
                    ) from None
                if not all(isinstance(v, (list, tuple)) for v in (members, mults)):
                    raise PencilError("block 'members' and 'multiplicities' must be lists")
                if len(members) != len(mults):
                    raise PencilError("members and multiplicities differ in length")
                pairs = []
                for label, m in zip(members, mults):
                    try:
                        j = arr.index_of(label)
                    except KeyError:
                        raise PencilError(f"unknown component label {label!r}") from None
                    if not isinstance(m, int) or isinstance(m, bool):
                        raise PencilError(f"multiplicity {m!r} is not an integer")
                    if m < 1:
                        raise PencilError("multiplicities must be >= 1")
                    pairs.append((j, m))
                forms.append(arr.block_form(pairs))
            pencil = cls(forms[0], forms[1])
            # later blocks are further fibers: same degree, inside span(P, Q)
            for number, form in enumerate(forms[2:], start=3):
                if form.degree != pencil.degree:
                    raise PencilError(
                        f"block {number} has degree {form.degree}, "
                        f"not the pencil degree {pencil.degree}"
                    )
                if not pencil.contains(form):
                    raise PencilError(
                        f"block {number} is not a fiber of the pencil of the first two blocks"
                    )
            return pencil
        raise PencilError("pencil file needs either P/Q or blocks")

    def to_json(self) -> dict:
        return {"P": str(self.P), "Q": str(self.Q)}


@dataclass(frozen=True)
class ComponentPlacement:
    """Where one arrangement component sits relative to the pencil."""

    kind: str  # "type1" | "type2" | "horizontal"
    point: P1Point | None = None
    multiplicity: int | None = None


@dataclass(frozen=True)
class FiberData:
    """Arrangement members of the fiber over one base point."""

    point: P1Point
    members: tuple[tuple[int, int], ...]  # (component index, multiplicity)
    cofactor: TernaryForm

    @property
    def is_full(self) -> bool:
        return self.cofactor.is_constant()


@dataclass(frozen=True)
class SpecialPoint:
    """One point of C(f): a special fiber outside B, with its (f2) data."""

    point: P1Point
    members: tuple[tuple[int, int], ...]
    m_prime: int
    m_dprime: int
    new_part_profile: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PencilClassification:
    arrangement: Arrangement
    pencil: Pencil
    placements: tuple[ComponentPlacement, ...]
    fibers: dict[P1Point, FiberData]
    base_points: tuple[P1Point, ...]
    type2_points: tuple[P1Point, ...]
    minimal: bool
    special: bool
    special_points: tuple[SpecialPoint, ...] | None = None
    warnings: tuple[str, ...] = ()
    conditional: bool = False

    @property
    def k(self) -> int:
        return len(self.base_points)

    def fiber_members(self, b: P1Point) -> tuple[tuple[int, int], ...]:
        data = self.fibers.get(b)
        return data.members if data else ()

    def divisor_string(self, b: P1Point) -> str:
        labels = self.arrangement.labels
        parts = []
        for j, m in self.fiber_members(b):
            parts.append(labels[j] if m == 1 else f"{m}*{labels[j]}")
        return " + ".join(parts) if parts else "(none)"


def classify(arr: Arrangement, pencil: Pencil) -> PencilClassification:
    """Place every component and decompose the distinguished fibers.

    Each component goes down the ladder of `_place` with the vote of its
    `CurveComponent.vote_points`; only lines vote, so curves go straight to
    the normal-form rung.  A component dividing both generators raises
    `PencilError`.
    """
    P, Q = pencil.P, pencil.Q
    votes = {
        j: _vote((P.evaluate(p), Q.evaluate(p)) for p in comp.vote_points)
        for j, comp in enumerate(arr.components)
    }
    return _finish_classification(arr, pencil, votes, [])


# verdict of the vote: the only fiber that can contain the component,
# "horizontal" when the votes disagree, None when no point voted
Vote = P1Point | str | None


def _vote(values: Iterable[tuple[int, int]]) -> Vote:
    """Verdict of one component from (P(p), Q(p)) at its vote points p.

    A point p on C_j inside the fiber over b evaluates to (P(p):Q(p)) = b,
    so disagreeing votes certify horizontality and agreeing ones single
    out the only possible fiber.  Base points, where both values vanish,
    do not vote.  Each vote is compared with the first by
    cross-multiplication; only the agreed vote becomes a `P1Point`.
    """
    first = None
    for pv, qv in values:
        if pv == 0 and qv == 0:
            continue
        if first is None:
            first = pv, qv
        elif pv * first[1] != qv * first[0]:
            return "horizontal"
    return None if first is None else P1Point(*first)


def _place(pencil: Pencil, comp: CurveComponent, vote: Vote) -> tuple[P1Point, int] | None:
    """The fiber containing the component and its multiplicity; None if horizontal.

    The ladder: disagreeing votes certify horizontal; agreeing votes leave
    one `divisibility_multiplicity` at the voted point.  Without a vote,
    `member_of_pencil_dividing` decides by the integer pseudo-remainders of
    the two generators on division by the component.  A component dividing
    both generators never votes (all its points are base points) and leaves
    both remainders zero, which that rung reports as a `ValueError`.
    """
    if vote == "horizontal":
        return None
    if vote is not None:
        e = divisibility_multiplicity(pencil.fiber(vote), comp.form)
        return (vote, e) if e >= 1 else None
    try:
        return member_of_pencil_dividing(comp.form, pencil.P, pencil.Q)
    except ValueError as exc:
        # a Pencil has independent generators of one degree and a component
        # is nonconstant, so any other ValueError is a broken invariant
        if "divides both generators" not in str(exc):
            raise
        raise PencilError(
            f"degenerate pencil: common factor {comp.label!r} in both generators"
        ) from None


def _finish_classification(
    arr: Arrangement,
    pencil: Pencil,
    votes: dict[int, Vote],
    hits: list[tuple[int, P1Point, int]],
    constant_cofactor_points: frozenset[P1Point] = frozenset(),
) -> PencilClassification:
    """Place the voted components by `_place`, then decompose the fibers.

    ``hits`` holds the (index, point, multiplicity) of components already
    known to be fiber members; ``votes`` covers every other component.
    """
    placements: list[ComponentPlacement | None] = [None] * arr.size
    for j, vote in votes.items():
        found = _place(pencil, arr.components[j], vote)
        if found is None:
            placements[j] = ComponentPlacement("horizontal")
        else:
            hits.append((j, *found))
    by_point: dict[P1Point, list[tuple[int, int]]] = {}
    for j, b, e in hits:
        by_point.setdefault(b, []).append((j, e))
    fibers: dict[P1Point, FiberData] = {}
    for b in sorted(by_point):
        members = by_point[b]
        members.sort()
        if b in constant_cofactor_points:
            cofactor = TernaryForm.constant(1)
        else:
            cofactor = pencil.fiber(b)
            for j, e in members:
                for _ in range(e):
                    nxt = exact_divide(cofactor, arr.components[j].form)
                    if nxt is None:
                        raise PencilError(
                            f"member multiplicities over {b} exceed the fiber; "
                            "is a component reducible?"
                        )
                    cofactor = nxt
        data = FiberData(b, tuple(members), cofactor)
        fibers[b] = data
        kind = "type1" if data.is_full else "type2"
        for j, e in members:
            placements[j] = ComponentPlacement(kind, b, e)
    done = tuple(p for p in placements if p is not None)
    if len(done) != arr.size:
        raise PencilError(
            f"{arr.size - len(done)} components neither voted nor were fiber members"
        )
    B = tuple(sorted(b for b, d in fibers.items() if d.is_full))
    type2 = tuple(sorted(b for b, d in fibers.items() if not d.is_full))
    D = pencil.degree
    for b in B:
        total = sum(arr.components[j].degree * m for j, m in fibers[b].members)
        if total != D:
            # only a component that is a product of others can do this
            raise PencilError(
                f"fiber degrees failed to add up over {b}: members give {total}, "
                f"the pencil has degree {D}; is a component reducible?"
            )
    minimal = all(p.kind == "type1" for p in done)
    special = any(p.kind == "type2" for p in done)
    return PencilClassification(
        arrangement=arr,
        pencil=pencil,
        placements=done,
        fibers=fibers,
        base_points=B,
        type2_points=type2,
        minimal=minimal,
        special=special,
    )


# ---------------------------------------------------------------------------
# probes


class ProbeSequence:
    """The one supplier of probe lines and points; both sequences are fixed.

    `lines` yields x + s*y + s^2*z, s = 1, 2, ...: any three have the
    Vandermonde determinant (s2 - s1)(s3 - s1)(s3 - s2) != 0, so no three
    meet.  `points` yields (1 : 2^s : 3^s), s = 0, 1, ...: there a nonzero
    form of degree d is sum f_bc (2^b 3^c)^s, M = (d + 1)(d + 2)/2
    exponentials with distinct positive bases, with at most M - 1 real
    zeros by Descartes' rule of signs.  So no three points are collinear
    and no curve holds them all.
    """

    @staticmethod
    def lines() -> Iterator[ProjLine]:
        for s in itertools.count(1):
            yield ProjLine.from_coefficients(1, s, s * s)

    @staticmethod
    def points() -> Iterator[ProjPoint]:
        for s in itertools.count(0):
            yield ProjPoint((1, 2**s, 3**s))


# ---------------------------------------------------------------------------
# special fibers


def detect_special_fibers(classification: PencilClassification) -> PencilClassification:
    """Fill in C(f): special fibers outside B with their m', m'' data.

    Candidates are the type-2 fiber points, both end fibers, and the
    rational roots of the discriminants of the fiber family restricted to
    the `ProbeSequence` lines (`_family_discriminant`), joined by their
    primitive integer gcd, `coeffs_gcd`.  A non-reduced fiber has a
    repeated root on every line, so its parameter divides every
    discriminant; the walk stops once the joined discriminant splits over
    Q, and then every non-reduced fiber is a candidate.  Each candidate is
    profiled exactly (`_certified_profile`); fibers that carry arrangement
    members or a non-reduced new part enter C(f), the others are dropped.
    A factor without rational roots that outlasts the walk's bound proves
    non-reduced fibers over irrational points: it leaves a warning and
    marks the result conditional.  Special fibers are recognized by this
    algebraic proxy; Milnor-number jumps concentrated at base points are
    not examined.
    """
    pencil = classification.pencil
    warnings: list[str] = []
    conditional = False
    candidates: set[P1Point] = set(classification.type2_points)

    D = pencil.degree
    if D >= 2:
        # A reduced fiber F_c makes a valid moment line's discriminant vanish
        # at c only when the line
        # - passes through one of its at most D(D-1)/2 singular points, each
        #   on at most two moment lines;
        # - is tangent to it: the moment lines form a conic of the dual
        #   plane, which meets the dual curve, of degree <= D(D-1), at most
        #   2D(D-1) times unless F_c holds the envelope y^2 = 4xz;
        # - has its point at t = infinity, (-s^2 : 0 : 1), on it: at most D
        #   values of s unless y divides F_c.
        # For irrational c those rational factors would divide the conjugate
        # fiber too, hence P and Q, and make every line invalid.  So past
        # 3D(D-1) + D valid lines only non-reduced fibers keep irrational roots.
        max_valid = 3 * D * (D - 1) + D + 1
        # an invalid line passes through a base point (`_family_discriminant`):
        # at most D^2 of them for coprime P and Q, each on at most two moment lines
        max_invalid = 2 * D * D
        common: tuple[int, ...] = ()
        valid = invalid = 0
        for line in ProbeSequence.lines():
            disc = _family_discriminant(pencil, line)
            if disc is None:
                invalid += 1
                if invalid > max_invalid:
                    raise ProbeDegeneracyError(
                        "probe degeneracy: no valid discriminant probe found; "
                        "do the generators share a factor?"
                    )
                continue
            valid += 1
            common = coeffs_gcd(common, disc)
            rr = rational_roots(common)
            if rr.remaining_degree == 0 or valid == max_valid:
                break
        for (u, v), _ in rr.roots:
            candidates.add(P1Point(v, u))
        if rr.remaining_degree > 0:
            warnings.append(
                f"discriminant keeps a degree-{rr.remaining_degree} factor "
                "without rational roots; possible special fibers over "
                "irrational points"
            )
            conditional = True
    # the chart c -> (1:c) misses (0:1) and the degree count misses nothing
    # else, but both end fibers deserve a direct look when not already placed
    for endpoint in (P1Point(0, 1), P1Point(1, 0)):
        if endpoint not in classification.base_points:
            candidates.add(endpoint)

    specials: list[SpecialPoint] = []
    for pt in sorted(candidates):
        if pt in classification.base_points:
            continue
        members = classification.fiber_members(pt)
        data = classification.fibers.get(pt)
        cofactor = data.cofactor if data else pencil.fiber(pt)
        if cofactor.is_constant():
            continue
        profile = _certified_profile(cofactor)
        m_prime = gcd(*(m for _, m in members))
        m_dprime = gcd(*(m for m, _ in profile))
        if members or m_dprime >= 2:
            specials.append(SpecialPoint(pt, members, m_prime, m_dprime, profile))
    return replace(
        classification,
        special_points=tuple(specials),
        warnings=classification.warnings + tuple(warnings),
        conditional=classification.conditional or conditional,
    )


def _family_discriminant(pencil: Pencil, line: ProjLine) -> tuple[int, ...] | None:
    """Discriminant in c of the restriction g_c of c*P - Q to a line, up to a constant.

    The restrictions p and q of the integral P and Q are divided by their
    content, up to sign, so each sample at an integer c is the integer
    `_formal_discriminant` of g_c over a constant that no caller reads.
    Samples at c = 0..2D-1 are interpolated in integers; vanishing
    identifies every fiber with a repeated or degree-dropping restriction,
    a superset of the special parameters.

    None when the line is invalid: its point at t = infinity is a base
    point, so every fiber drops formal degree, or the discriminant vanishes
    identically.  Otherwise p and q are coprime binary forms times their
    gcd h, and the generic member of a pencil of coprime binary forms is
    squarefree, so the discriminant vanishes identically only when h has a
    repeated root, a base point on the line.  Either way an invalid line
    passes through a base point.
    """
    D = pencil.degree
    p = pencil.P.restrict_span(*line.span)
    q = pencil.Q.restrict_span(*line.span)
    if p[D] == 0 and q[D] == 0:
        return None
    scaled = primitive_vector(p + q)
    p_int, q_int = scaled[: D + 1], scaled[D + 1 :]

    def sample(c: int) -> int:
        return _formal_discriminant([c * a - b for a, b in zip(p_int, q_int)], D)

    # each sample is the determinant of a (2D - 1)-square matrix whose
    # entries are linear in c, so 2D samples fix it and one more must agree
    disc = interpolate_integers([sample(c) for c in range(2 * D)])
    if coeffs_evaluate(disc, 2 * D) != sample(2 * D):
        raise PencilError("family discriminant exceeds its degree bound 2D - 1")
    return disc or None


def _formal_discriminant(g: Sequence[int], D: int) -> int:
    """Sylvester determinant of g and g' at formal degrees D and D - 1.

    g is an integer coefficient list of length D + 1.  This is Res(g, g')
    while g keeps degree D.  Below that degree the first column of the
    formal Sylvester matrix holds only the vanishing leading coefficients
    g_D and D*g_D, so the determinant is zero.
    """
    if g[D] == 0:
        return 0
    return coeffs_resultant(g, coeffs_derivative(g))


def _certified_profile(form: TernaryForm) -> tuple[tuple[int, int], ...]:
    """Multiplicity profile of a form: `projective_profile` on a generic line.

    Let F have degree D and reduced curve F_red of degree e <= D, and let c
    be the first `ProbeSequence.points()` entry off F.  A line through c
    shows at most e distinct roots, and shows the profile exactly when it
    shows e.  Otherwise it meets F_red at a singular point or is tangent to
    it there, a point on the polar curve of c.  A component of F_red inside
    that polar would have all its tangents through c, so it would be a line
    through c, yet c is off F; so by Bezout the two curves meet in at most
    e(e - 1) <= D(D - 1) points, each on one line through c.  c has z != 0,
    so its lines to (s : 1 : 0), s = 0..D(D - 1), are distinct and one is
    generic: the first with the most distinct roots.  D roots stop early;
    a non-reduced form, e < D, always walks all D(D - 1) + 1 lines.
    """
    D = form.degree
    # F vanishes at at most D(D + 3)/2 probe points, so c is among the
    # first (D + 1)(D + 2)/2
    points = itertools.islice(ProbeSequence.points(), (D + 1) * (D + 2) // 2)
    c = next((p.coords for p in points if form.evaluate(p.coords) != 0), None)
    if c is None:
        raise ProbeDegeneracyError("probe degeneracy: the form vanishes at every probe point")

    def distinct_roots(profile: tuple[tuple[int, int], ...]) -> int:
        return sum(deg for _, deg in profile)

    best: tuple[tuple[int, int], ...] = ()
    for s in range(D * (D - 1) + 1):
        profile = projective_profile(form.restrict_span(c, (s, 1, 0)), D)
        best = max(best, profile, key=distinct_roots)
        if distinct_roots(best) == D:
            break
    return best


# ---------------------------------------------------------------------------
# base locus identities


@dataclass(frozen=True)
class FYReport:
    """Outcome of the three base-locus counting identities.

    With ``profile`` set (the resultant path) (i) and (ii) hold for every
    pencil, so they check the computation only (`fy_identities`).
    """

    degree: int
    k: int
    constant_multiplicity: bool  # (i): fiber multiplicity at p independent of b
    total: int  # sum of n_p
    total_expected: int  # D^2
    member_degree_sum: int
    member_degree_expected: int  # k * D
    point_table: tuple[tuple[ProjPoint, int], ...] | None  # exact path: (p, n_p)
    profile: tuple[tuple[int, int], ...] | None  # resultant path: (n_p, count)

    @property
    def passed(self) -> bool:
        return (
            self.constant_multiplicity
            and self.total == self.total_expected
            and self.member_degree_sum == self.member_degree_expected
        )


def fy_identities(classification: PencilClassification) -> FYReport:
    """Check the base-locus identities of the classification.

    (i) every base point meets all fibers with one multiplicity, (ii) the
    local intersection numbers add up to D^2, (iii) weighted member degrees
    add up to k*D.  Entirely linear fibers are handled by exact point
    enumeration; once a member has degree >= 2 the n_p multiset is read off
    projected resultants from two `ProbeSequence.points()` centers that
    agree (`_fy_resultant_profile`), which is evidence, not proof.

    On the exact path (i) compares fiber multiplicities, a real test.  On
    the resultant path (i) and (ii) hold for every pencil, so they check
    the computation, not the pencil: (i) by the proof in
    `_fy_resultant_profile`, (ii) since `projective_profile` counts to D^2.
    """
    if any(p.kind == "type2" for p in classification.placements):
        raise PencilError(
            "type-2 members present: fiber decompositions are incomplete"
        )
    arr = classification.arrangement
    B = classification.base_points
    if len(B) < 2:
        raise PencilError("base-locus identities need at least two full fibers")
    D = classification.pencil.degree
    k = len(B)
    member_sum = sum(
        arr.components[j].degree * m
        for b in B
        for j, m in classification.fiber_members(b)
    )
    all_lines = all(
        arr.components[j].degree == 1
        for b in B
        for j, _ in classification.fiber_members(b)
    )
    table = profile = None
    if all_lines:
        points, constant = _fy_exact_points(classification)
        table = tuple(points)
        total = sum(n for _, n in table)
    else:
        profile, constant = _fy_resultant_profile(classification), True
        total = sum(n * count for n, count in profile)
    return FYReport(
        degree=D,
        k=k,
        constant_multiplicity=constant,
        total=total,
        total_expected=D * D,
        member_degree_sum=member_sum,
        member_degree_expected=k * D,
        point_table=table,
        profile=profile,
    )


def _cross_fiber_points(classification: PencilClassification) -> list[ProjPoint]:
    """Sorted meeting points of full-fiber members that lie in different fibers."""
    arr = classification.arrangement
    fibers = [
        [arr.components[j] for j, _ in classification.fiber_members(b)]
        for b in classification.base_points
    ]
    pairs = (
        pair for f1, f2 in itertools.combinations(fibers, 2) for pair in itertools.product(f1, f2)
    )
    return sorted({p for a, b in pairs for p in meeting_points(a, b)})


def _fy_exact_points(
    classification: PencilClassification,
) -> tuple[list[tuple[ProjPoint, int]], bool]:
    components = classification.arrangement.components
    table: list[tuple[ProjPoint, int]] = []
    constant = True
    for p in _cross_fiber_points(classification):
        mults = [
            sum(
                m
                for j, m in classification.fiber_members(b)
                if components[j].form.evaluate(p.coords) == 0
            )
            for b in classification.base_points
        ]
        if len(set(mults)) != 1:
            constant = False
        table.append((p, mults[0] * mults[1]))
    return table, constant


def _fy_resultant_profile(classification: PencilClassification) -> tuple[tuple[int, int], ...]:
    """Multiset {n_p} read from resultants of two full fibers at two agreeing centers.

    The centers are the `ProbeSequence.points()` entries off the first two
    full fibers.  A center off both curves and off every line through two
    of their common points gives the intersection numbers exactly; two
    centers that agree are evidence of that, not proof.  After 12 usable
    centers without two agreeing profiles, `ProbeDegeneracyError`.

    One pair of fibers is enough.  Any two distinct fibers are an
    invertible combination of P and Q, and for binary forms f, g of one
    degree D, Res(alpha*f + beta*g, gamma*f + delta*g) =
    (alpha*delta - beta*gamma)^D * Res(f, g).  So at a center off both
    fibers every pair's projected resultant is a constant multiple of one
    polynomial: all pairs give one profile, and identity (i) holds on this
    path for every pencil.
    """
    pencil = classification.pencil
    fibers = [pencil.fiber(b) for b in classification.base_points[:2]]
    profiles: list[tuple[tuple[int, int], ...]] = []
    centers_used = 0
    # a fiber of degree D vanishes at at most D(D + 3)/2 probe points, so
    # 12 centers lie within 12 + D(D + 3) draws
    draws = 12 + pencil.degree * (pencil.degree + 3)
    for center in itertools.islice(ProbeSequence.points(), draws):
        if centers_used >= 12:
            break
        if any(f.evaluate(center.coords) == 0 for f in fibers):
            continue
        centers_used += 1
        profile = _projected_resultant_profile(*fibers, center.coords)
        if profile is None:
            continue
        profiles.append(profile)
        if len(profiles) == 2:
            break
    if len(profiles) < 2:
        raise ProbeDegeneracyError("probe degeneracy: no usable projection centers")
    if profiles[0] != profiles[1]:
        raise ProbeDegeneracyError("probe degeneracy: projection centers disagree")
    return profiles[0]


def _projected_resultant_profile(
    f1: TernaryForm, f2: TernaryForm, center: Sequence[int]
) -> tuple[tuple[int, int], ...] | None:
    """Multiplicities of the common points of f1, f2 seen from the center.

    The center must lie off both curves.  `projective_profile` merges the
    root at infinity by multiplicity, so the profile does not depend on the
    chart of the line it projects to.
    """
    poly, _, _ = projected_resultant(f1, f2, center)
    return projective_profile(poly, f1.degree * f2.degree) if poly else None


# ---------------------------------------------------------------------------
# self-intersection after resolving the base locus


@dataclass(frozen=True)
class BlowupCluster:
    """One infinitely-near cluster point with the multiplicity of C there."""

    multiplicity: int
    point: ProjPoint | None = None

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("cluster multiplicity must be >= 1")


@dataclass(frozen=True)
class SelfIntersectionReport:
    value: int
    curve_degree: int
    clusters: tuple[BlowupCluster, ...]

    @property
    def non_positive(self) -> bool:
        return self.value <= 0


def self_intersection(
    classification: PencilClassification, clusters: Sequence[BlowupCluster] | None = None
) -> SelfIntersectionReport:
    """(deg C)^2 minus the cluster multiplicities squared, C the type-1 union.

    With clusters None the base points are enumerated exactly; this needs
    every type-1 member to be a line (one blow-up per base point resolves).
    """
    arr = classification.arrangement
    type1 = [
        (j, p) for j, p in enumerate(classification.placements) if p.kind == "type1"
    ]
    deg_c = sum(arr.components[j].degree for j, _ in type1)
    if clusters is None:
        if any(arr.components[j].degree != 1 for j, _ in type1):
            raise PencilError(
                "auto clusters need every fiber member to be a line; "
                "supply the blow-up cluster multiplicities"
            )
        # the type-1 members are exactly the members of the full fibers
        cluster_list = []
        for p in _cross_fiber_points(classification):
            mult = sum(
                1 for j, _ in type1 if arr.components[j].form.evaluate(p.coords) == 0
            )
            cluster_list.append(BlowupCluster(mult, p))
    else:
        cluster_list = list(clusters)
    value = deg_c * deg_c - sum(c.multiplicity**2 for c in cluster_list)
    return SelfIntersectionReport(value, deg_c, tuple(cluster_list))


# ---------------------------------------------------------------------------
# pencil search


class _Block(NamedTuple):
    mask: int
    indices: tuple[int, ...]
    mults: tuple[int, ...]
    content: int  # gcd of the multiplicities


class _BlockTable:
    """A memoized per-block value, built one component at a time.

    The empty block has the value ``base``; any other block has the value
    ``step(prev, j, m)``, where j is its last (highest) component, m the
    multiplicity of j, and prev the value of the block without j.  Values
    are keyed by (mask, mults), so a block and its prefixes are built once
    however many pairs read them.  Call the table on a `_Block`.
    """

    def __init__(self, base, step) -> None:
        self._step = step
        self._values = {(0, ()): base}

    def __call__(self, block: _Block):
        value = self._values.get((block.mask, block.mults))
        return self._value(block.mask, block.mults) if value is None else value

    def _value(self, mask: int, mults: tuple[int, ...]):
        value = self._values.get((mask, mults))
        if value is None:
            j = mask.bit_length() - 1
            value = self._step(self._value(mask ^ (1 << j), mults[:-1]), j, mults[-1])
            self._values[(mask, mults)] = value
        return value


# The tangent-cone lemma.  Let a and b be disjoint blocks of lines with
# products P and Q, and X a multiple point where a line of a meets a line of
# b.  With n_X(block) the sum of the block's multiplicities over its lines
# through X, P has order n_X(a) at X, and its tangent cone TC_P is the
# product of a's lines through X, each to its multiplicity; likewise Q.  The
# two cones share no line.  Any other fiber F = alpha*P + beta*Q has
# alpha, beta != 0, and at X
#   n_X(a) < n_X(b):      TC_F = alpha*TC_P,
#   n_X(a) > n_X(b):      TC_F = beta*TC_Q,
#   n_X(a) = n_X(b) = n:  TC_F = alpha*TC_P + beta*TC_Q, nonzero of degree n
#                         and sharing no line with TC_P or TC_Q (a line of
#                         both would divide beta*TC_Q).
# Tangent cones multiply (Fulton, Algebraic Curves, 3.1), and a binary form
# factors uniquely into lines.  Two fibers share no component, so F has no
# line of a or b.  Two closure rules follow, which `iter_block_pairs`
# applies at each point X as its last line is assigned:
#   - the multinet rule, for the search: a third full fiber F, made of
#     arrangement lines, has as tangent cone the product of its own lines
#     through X, which would share a line with TC_P or TC_Q in the first two
#     cases; so n_X(a) = n_X(b), and since X lies on F, some line outside a
#     and b passes through X.  At a double point of a line of a and a line
#     of b no other line passes, so the rule rejects the pair;
#   - the base-point rule, for the sweep: a fiber F = A*G^m'', A its
#     arrangement part and G its new part, has m'' | h_X at X, where h_X is
#     the gcd of the lower block's multiplicities at X when the counts
#     differ, whatever other lines pass through X, and the degree n when
#     they are equal and every line through X lies in a or b.  Say
#     n_X(a) < n_X(b).  Then TC_F = alpha*TC_P, a product of lines of a.
#     F shares no component with P, so A has no line of a, and a line of A
#     through X would divide TC_F; so A misses X, TC_F = A(X)*TC_G^m'', and
#     TC_G^m'' is a constant times TC_P.  Unique factorization makes m''
#     divide each multiplicity of a's lines through X, so m'' | h_X.  At
#     equal counts TC_F has degree n.  When every line through X lies in a
#     or b, A, which has none of them, misses X, so TC_F = A(X)*TC_G^m''
#     and m'' | n.  A third line through X may lie in A, and then no such
#     bound holds.
# Curves can be tangent at X, which breaks the factorization into lines, so
# only line arrangements apply the rules.
#
# Why the base-point rule screens the sweep.  The sweep keeps a pencil only
# for its translated records, and T(f) is trivial unless some special fiber
# has new-part multiplicity m'' >= 2 (`compute_Tf`).  Such a fiber
# F = A*G^m'' is neither P nor Q, so the lemma gives m'' | h_X at every
# multiple point X that meets both blocks with unequal counts, and at the
# equal-count ones whose lines all lie in a u b.  So m'' divides the gcd of
# h_X over any subset of these points: a gcd of 1 makes every m'' 1, T(f)
# trivial and the pair recordless, which is why the draw cuts the running
# gcd at its first value of 1.  A pair with no such point (gcd 0) passes.
# The unequal-count points carry most of the cut: on deleted B3 the sweep
# draws 50 pairs, and 674 when the rule reads only the points with no line
# outside a u b.


class _SearchTables:
    """The one per-arrangement table of a catalog, built once per `build_catalog` call.

    The local records, both draws of `iter_block_pairs` and the cup
    structure read it.  ``points`` holds the `local_pencil_points` (of any
    arrangement); on line arrangements ``point_masks`` holds their
    incidence masks, at which the draw applies the closure rules of the
    tangent-cone lemma above (the multinet rule for the search, the
    base-point rule for the sweep), and is None on the others.  Two
    `_BlockTable`s: ``block_form`` is the block product, and
    ``block_values`` holds, per voter i, the block product at the vote
    points of component i.  ``concurrent`` holds the supports of lines
    through one multiple point, which the sweep's draw leaves out.
    """

    def __init__(self, arr: Arrangement, max_multiplicity: int):
        self.arr = arr
        self.max_multiplicity = max_multiplicity
        self.points = local_pencil_points(arr)
        # at[j][i] = values of component j at the vote points of component i
        at = [
            [[c.form.evaluate(p) for p in ci.vote_points] for ci in arr.components]
            for c in arr.components
        ]
        self.block_form = _BlockTable(
            TernaryForm.constant(1),
            lambda prev, j, m: prev * arr.components[j].form.power(m),
        )
        self.block_values = _BlockTable(
            tuple((1,) * len(c.vote_points) for c in arr.components),
            lambda prev, j, m: tuple(
                tuple(v * w**m for v, w in zip(vs, ws)) for vs, ws in zip(prev, at[j])
            ),
        )
        # any two lines meet at a multiple point, so a support is concurrent
        # exactly when it lies among the lines through one of them
        self.concurrent: set[int] = set()
        for mp in self.points:
            sub = mp.mask if mp.degree == 1 else 0
            while sub:  # the nonempty submasks, descending
                self.concurrent.add(sub)
                sub = (sub - 1) & mp.mask
        self.point_masks = [mp.mask for mp in self.points] if arr.is_line_arrangement() else None

    def votes(self, a: _Block, b: _Block) -> Iterator[tuple[int, Vote]]:
        """(j, `_vote` of component j against the pencil of two blocks) for
        each component j outside both blocks, in index order."""
        union = a.mask | b.mask
        values_a, values_b = self.block_values(a), self.block_values(b)
        for j in range(self.arr.size):
            if not union >> j & 1:
                yield j, _vote(zip(values_a[j], values_b[j]))

    def vote_screen(self, a: _Block, b: _Block) -> bool:
        """Whether some component outside both blocks could divide a third fiber.

        A component whose votes disagree is horizontal, so when every other
        component votes horizontal the pencil has k = 2.
        """
        return any(vote != "horizontal" for _, vote in self.votes(a, b))


def _draw_order(tables: _SearchTables) -> tuple[list[int], list[list[tuple[int, tuple[int, ...]]]]]:
    """The components in the order the draw assigns them, and per step the
    incidence mask and lines of each multiple point whose last line that
    step assigns.

    On line arrangements the order is greedy, to close points early: next
    the line that closes the most points, then the one through the most
    points already met, then the lowest index.  On the others it is by
    descending degree, ties by index, so the degree bound cuts early, and
    no point closes.
    """
    arr, masks = tables.arr, tables.point_masks
    if masks is None:
        return sorted(range(arr.size), key=lambda j: -arr.degrees[j]), [[] for _ in arr.components]
    order: list[int] = []
    closing: list[list[tuple[int, tuple[int, ...]]]] = []
    done = 0
    while len(order) < arr.size:

        def score(j: int) -> tuple[int, int, int]:
            now = done | 1 << j
            on = [m for m in masks if m >> j & 1]
            return sum(m & now == m for m in on), sum(bool(m & done) for m in on), -j

        j = max((j for j in range(arr.size) if not done >> j & 1), key=score)
        done |= 1 << j
        order.append(j)
        closing.append(
            [(mp.mask, mp.incident) for mp in tables.points if mp.mask >> j & 1 and mp.mask & done == mp.mask]
        )
    return order, closing


def iter_block_pairs(tables: _SearchTables, *, sweep: bool = False) -> Iterator[tuple[_Block, _Block]]:
    """Unordered pairs of disjoint equal-degree blocks, for the search or the sweep.

    A depth-first draw assigns each component, in the order of
    `_draw_order`, to block a, to block b or to neither, with a
    multiplicity up to ``tables.max_multiplicity``.  The first component
    assigned to a block puts it in a, which fixes the symmetry of the pair;
    a partial draw is cut when the degrees of its blocks differ by more
    than the cap times the degree left, and the last component takes the
    value that makes the degrees equal, if one does.  On line
    arrangements, at each multiple point X that meets both blocks and has
    all its lines assigned, the draw applies the closure rule of the
    tangent-cone lemma (the comment above `_SearchTables`):

    - for the search (``sweep`` false), the multinet rule: n_X(a) = n_X(b)
      and some line of X in neither block;
    - for the sweep, the base-point rule: when n_X(a) != n_X(b), or when
      the counts are equal and every line of X lies in a or b, h_X enters a
      running gcd, and a gcd of 1 cuts the draw.  The counts decide which
      points apply, so the sweep counts the lines of every closed point
      that meets both blocks.

    Then each drawn pair is tested at its leaf.  For the search the
    contents are coprime: blocks whose combined multiplicity vector has
    content > 1 generate non-primitive maps (powers of a smaller pencil),
    the k = 2 case of the saturation rule of `_partition_saturated`.  For
    the sweep both blocks are primitive, so the two fibers span the
    homology cokernel, the lattice Z*a + Z*b on disjoint supports, and the
    support a.mask | b.mask does not lie among the lines through one
    multiple point (``tables.concurrent``), whose pencils are composed
    with that point's pencil.

    On curve arrangements no point closes, so the ways to finish a draw
    over its last five steps are found once per degree difference and
    reused.  A drawn pair is kept as its degree and the two blocks'
    (mask, code) until the draw is sorted; a block is then built once per
    draw, by its code, which is a function of (mask, mults), the key of
    every `_BlockTable`.
    Yield order: by degree, then (a.mask, a.mults, b.mask, b.mults), with
    a.mask < b.mask, which is the order of ``itertools.combinations`` over
    the blocks of each degree taken by mask, then multiplicities, minus
    the pairs that fail the tests.  Catalog `source` strings name the
    first pair to reach a span, so the order is part of the output.
    """
    arr, cap = tables.arr, tables.max_multiplicity
    order, closing = _draw_order(tables)
    last = len(order) - 1
    degrees = [arr.degrees[j] for j in order]
    slack = [cap * sum(degrees[i + 1 :]) for i in range(len(order))]  # after step i
    # a block's code, sum m_j*(cap + 1)^(n - 1 - j), keys its (mask, mults)
    # and on one mask orders the mults lexicographically
    weight = [(cap + 1) ** (arr.size - 1 - j) for j in range(arr.size)]
    side, mult = [0] * arr.size, [0] * arr.size  # side 1 is block a, 2 block b
    first = [(0, 0)] + [(1, m) for m in range(1, cap + 1)]
    both = first + [(2, m) for m in range(1, cap + 1)]
    # from `tail` on no step closes a point (on line arrangements the last
    # step always does, on the others none does), so the ways to finish a
    # draw there depend only on the step, the degree difference and whether
    # block a has a component: `finishes` finds them once each, over at most
    # the last five steps, which keeps its lists short
    tail = max(last - 4, 1 + max((i for i, rules in enumerate(closing) if rules), default=-1))
    ends: dict[tuple[int, int, bool], list] = {}
    drawn: list[tuple[int, int, int, int, int]] = []

    def closed(i: int, mask_a: int, mask_b: int, g: int) -> int:
        """The running gcd after the rules at the points step i closes, given
        the masks of the two blocks; 1 cuts."""
        for mask, incident in closing[i]:
            if not (mask & mask_a and mask & mask_b):
                continue
            free = mask & ~(mask_a | mask_b)
            if not sweep and not free:
                return 1  # the multinet rule: no line of X in neither block
            n_a = n_b = g_a = g_b = 0
            for j in incident:
                s, m = side[j], mult[j]
                if s == 1:
                    n_a, g_a = n_a + m, gcd(g_a, m)
                elif s == 2:
                    n_b, g_b = n_b + m, gcd(g_b, m)
            if not sweep:
                if n_a != n_b:
                    return 1  # the multinet rule: unequal counts
            elif n_a != n_b or not free:  # the base-point rule
                g = gcd(g, n_a if n_a == n_b else g_a if n_a < n_b else g_b)
                if g == 1:
                    return 1
        return g

    def leaf(degree: int, mask_a: int, code_a: int, g_a: int, mask_b: int, code_b: int, g_b: int) -> None:
        """Keep a drawn pair of equal degrees that passes the content tests."""
        if not degree or not (g_a == g_b == 1 if sweep else gcd(g_a, g_b) == 1):
            return
        if sweep and mask_a | mask_b in tables.concurrent:
            return
        if mask_a < mask_b:
            drawn.append((degree, mask_a, code_a, mask_b, code_b))
        else:
            drawn.append((degree, mask_b, code_b, mask_a, code_a))

    def finishes(i: int, diff: int, started: bool) -> list:
        """The assignments of steps i..last that leave equal degrees, each as
        the (degree, mask, code, content) it adds to block a and to block b."""
        found = ends.get((i, diff, started))
        if found is None:
            found = ends[i, diff, started] = []
            j, d = order[i], degrees[i]
            for s, m in both if started else first:
                rest = diff + (d * m if s == 1 else -d * m if s == 2 else 0)
                if i < last and -slack[i] <= rest <= slack[i]:
                    rests = finishes(i + 1, rest, started or s == 1)
                else:
                    rests = [((0, 0, 0, 0), (0, 0, 0, 0))] if i == last and not rest else []
                for add in rests:
                    if s:
                        x, mask, code, content = add[s - 1]
                        grown = x + d * m, mask | 1 << j, code + weight[j] * m, gcd(content, m)
                        add = (grown, add[1]) if s == 1 else (add[0], grown)
                    found.append(add)
        return found

    def visit(i, deg_a, deg_b, mask_a, mask_b, code_a, code_b, g_a, g_b, g) -> None:
        """Assign step i onward, given each block's degree, mask, code and
        content so far, and the running gcd of the base-point rule."""
        if i == tail:
            for (xa, ma, ca, ga), (_, mb, cb, gb) in finishes(i, deg_a - deg_b, bool(mask_a)):
                leaf(deg_a + xa, mask_a | ma, code_a + ca, gcd(g_a, ga), mask_b | mb, code_b + cb, gcd(g_b, gb))
            return
        j, d = order[i], degrees[i]
        if i == last:  # the value that makes the degrees equal
            m, rem = divmod(abs(deg_a - deg_b), d)
            if rem:
                return
            choices = [(0 if m == 0 else 1 if deg_a < deg_b else 2, m)]
        else:
            choices = both if mask_a else first
        w, bit, room = weight[j], 1 << j, slack[i]
        for s, m in choices:
            da, db, ma, mb, ca, cb, ga, gb = deg_a, deg_b, mask_a, mask_b, code_a, code_b, g_a, g_b
            if s == 1:
                da, ma, ca, ga = da + d * m, ma | bit, ca + w * m, gcd(ga, m)
            elif s == 2:
                db, mb, cb, gb = db + d * m, mb | bit, cb + w * m, gcd(gb, m)
            if not -room <= da - db <= room:
                continue
            side[j], mult[j] = s, m
            h = closed(i, ma, mb, g) if closing[i] else g
            if h == 1:
                continue
            if i < last:
                visit(i + 1, da, db, ma, mb, ca, cb, ga, gb, h)
            else:
                leaf(da, ma, ca, ga, mb, cb, gb)
        side[j] = mult[j] = 0

    if last >= 1:
        visit(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    drawn.sort()
    blocks: dict[int, _Block] = {}

    def block(mask: int, code: int) -> _Block:
        found = blocks.get(code)
        if found is None:
            indices = tuple(j for j in range(arr.size) if mask >> j & 1)
            mults = tuple(code // weight[j] % (cap + 1) for j in indices)
            found = blocks[code] = _Block(mask, indices, mults, gcd(*mults))
        return found

    for _, mask_a, code_a, mask_b, code_b in drawn:
        yield blocks.get(code_a) or block(mask_a, code_a), blocks.get(code_b) or block(mask_b, code_b)


def _partition_saturated(partition: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """Whether the partition's exponent columns span a saturated lattice.

    A primitive pencil has connected generic fiber, hence surjects on first
    homology of the punctured base; that surjectivity is exactly saturation
    of the column lattice.  Failures certify a composed map (the pencil
    factors through a cover of the line) and are not genuine partitions.

    The columns are v_i - v_k, v_i the multiplicity vector of fiber i.  The
    supports are disjoint, so an integral point of their span is
    sum c_i*v_i with sum c_i = 0 and c_i in (1/g_i)Z, g_i the gcd of fiber
    i's multiplicities.  So the lattice is saturated iff the g_i are
    pairwise coprime: a prime p | g_i, g_j gives c_i = -c_j = 1/p; else
    with c_i = a_i/g_i and G = prod g_i, sum a_i*G/g_i = 0 modulo g_j,
    where G/g_j is a unit (CRT), forces g_j | a_j.
    """
    contents = [gcd(*(m for _, m in fiber)) for fiber in partition]
    return all(gcd(a, b) == 1 for a, b in itertools.combinations(contents, 2))


def _classify_pair(
    tables: _SearchTables, pencil: Pencil, a: _Block, b: _Block
) -> PencilClassification:
    """Exact classification of the pencil spanned by two block products.

    The block members are the fibers over (0:1) and (1:0); every other
    component goes down the `_place` ladder with its vote from the tables.
    """
    hits = [(j, P1Point(0, 1), m) for j, m in zip(a.indices, a.mults)]
    hits += [(j, P1Point(1, 0), m) for j, m in zip(b.indices, b.mults)]
    return _finish_classification(
        tables.arr,
        pencil,
        dict(tables.votes(a, b)),
        hits,
        constant_cofactor_points=frozenset((P1Point(0, 1), P1Point(1, 0))),
    )


def pencil_search(tables: _SearchTables, max_blocks: int) -> list[PencilClassification]:
    """All pencils realizing partitions of components into k >= 3 full fibers.

    The pencils are those of ``tables.arr`` with fiber multiplicities up to
    ``tables.max_multiplicity``.  Each pair of blocks goes through these
    stages, in order:

    - `iter_block_pairs`: disjoint, equal degree, coprime contents, and on
      line arrangements the multinet rule, applied as each multiple point
      closes in the depth-first draw (integer counts at the point, and a
      line of it in neither block);
    - on the other arrangements the vote screen
      (`_SearchTables.vote_screen`, which needs no forms);
    - span dedup: the first pair to reach a span classifies it;
    - exact classification, kept when the count k of fully-arrangement
      fibers lies in [3, max_blocks], every fiber multiplicity is within the
      cap, and the partition is saturated (`_partition_saturated`).

    Every per-block value the stages read is a `_BlockTable` of
    ``tables``, which the catalog's translated sweep reads too.

    The multinet rule and the vote screen only reject pairs of a pencil
    with k = 2, and any two full fibers of a result pass them, so the first
    pair to reach a result's span does not depend on them.  On line
    arrangements the vote screen would add nothing: it rejects no multinet
    survivor of the line fixtures.  Every emitted pencil classifies back to
    the partition that produced it.  Pencils with k = 2 are not searched
    for here: the catalog's translated sweep covers them.
    """
    max_multiplicity = tables.max_multiplicity
    lines = tables.point_masks is not None
    seen: set[tuple] = set()
    results: list[PencilClassification] = []
    for a, b in iter_block_pairs(tables):
        if not lines and not tables.vote_screen(a, b):
            continue
        # disjoint supports of irreducibles are never proportional
        pencil = Pencil(tables.block_form(a), tables.block_form(b))
        key = pencil.span_key()
        if key in seen:
            continue
        seen.add(key)
        classification = _classify_pair(tables, pencil, a, b)
        k = classification.k
        if not (3 <= k <= max_blocks):
            continue
        if any(
            m > max_multiplicity
            for bp in classification.base_points
            for _, m in classification.fiber_members(bp)
        ):
            continue
        partition = [classification.fiber_members(bp) for bp in classification.base_points]
        if not _partition_saturated(partition):
            continue
        results.append(classification)

    def order(cl: PencilClassification) -> tuple:  # RREF entries (row over pivot) as strings
        rows = cl.pencil.span_key()
        return cl.k, tuple(str(Fraction(c, next(filter(None, r)))) for r in rows for c in r)

    return sorted(results, key=order)
