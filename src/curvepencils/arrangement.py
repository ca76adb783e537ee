"""Curve arrangements in the plane and the topology of their complements.

An arrangement is a list of labeled, pairwise distinct irreducible-looking
forms; one degree-1 component may be designated as the line at infinity.
This module carries block products of components, the multiple points that
span local pencils, and exponent subtori pulled back from a pencil base.
`meeting_points` is the one routine that finds where two components meet:
the cross product for two lines, a projected resultant for curves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .exactalg import IntMatrix, echelon_rows, integer_kernel_basis, rational_roots
from .polyform import (
    PolyParseError,
    ProjLine,
    ProjPoint,
    TernaryForm,
    cross,
    exact_divide,
    line_through,
    projected_resultant,
)

if TYPE_CHECKING:  # pragma: no cover
    from .pencil import PencilClassification

__all__ = [
    "ArrangementError",
    "CurveComponent",
    "Arrangement",
    "TorsionCharacter",
    "MultiplePoint",
    "meeting_points",
    "local_pencil_points",
    "ExponentSubtorus",
    "pullback_subtorus",
]


class ArrangementError(ValueError):
    """Raised when an arrangement violates a structural requirement."""


@dataclass(frozen=True)
class CurveComponent:
    """One irreducible component: a label and a primitive integral form."""

    label: str
    form: TernaryForm

    @property
    def degree(self) -> int:
        return self.form.degree

    @cached_property
    def vote_points(self) -> tuple[tuple[int, int, int], ...]:
        """The integer points at which the component votes for a fiber.

        Only lines vote.  A line keeps four points, so its vote survives two
        of them being base points of the pencil under test.  A curve gets
        none: on exfin3 its votes saved the catalog no measurable time over
        sending it to the normal-form rung.
        """
        if self.degree != 1:
            return ()
        return tuple(p.coords for p in ProjLine(self.form).rational_points(4))


class Arrangement:
    """A plane curve arrangement with an optional line at infinity."""

    def __init__(
        self,
        components: Sequence[CurveComponent],
        infinity_index: int | None = None,
    ):
        comps = tuple(
            CurveComponent(c.label, c.form.primitive()) for c in components
        )
        if not comps:
            raise ArrangementError("arrangement needs at least one component")
        labels = [c.label for c in comps]
        if len(set(labels)) != len(labels):
            raise ArrangementError("component labels must be unique")
        for c in comps:
            if c.form.is_zero() or c.form.is_constant():
                raise ArrangementError(f"component {c.label!r} is not a curve")
        for a, b in itertools.combinations(comps, 2):
            if a.form.proportional_to(b.form):
                raise ArrangementError(f"components {a.label!r} and {b.label!r} coincide")
        if infinity_index is not None:
            if not 0 <= infinity_index < len(comps):
                raise ArrangementError("infinity index out of range")
            if comps[infinity_index].degree != 1:
                raise ArrangementError("the line at infinity must have degree 1")
        self.components = comps
        self.infinity_index = infinity_index

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "Arrangement":
        entries = doc.get("components") if isinstance(doc, dict) else None
        if not isinstance(entries, (list, tuple)):
            raise ArrangementError("arrangement document needs a 'components' list")
        unknown = sorted(set(doc) - {"components", "infinity"})
        if unknown:
            raise ArrangementError(f"unknown key {unknown[0]!r} in arrangement document")
        comps = []
        for entry in entries:
            try:
                label, text = entry["label"], entry["poly"]
            except (TypeError, KeyError):
                raise ArrangementError("each component needs 'label' and 'poly'") from None
            try:
                form = TernaryForm.parse(text)
            except PolyParseError as exc:
                raise ArrangementError(f"component {label!r}: {exc}") from None
            comps.append(CurveComponent(str(label), form))
        infinity = None
        if doc.get("infinity") is not None:
            labels = [c.label for c in comps]
            if doc["infinity"] not in labels:
                raise ArrangementError(f"infinity label {doc['infinity']!r} not among components")
            infinity = labels.index(doc["infinity"])
        return cls(comps, infinity)

    def to_json(self) -> dict:
        doc: dict = {
            "components": [
                {"label": c.label, "poly": str(c.form)} for c in self.components
            ]
        }
        if self.infinity_index is not None:
            doc["infinity"] = self.components[self.infinity_index].label
        return doc

    def with_infinity(self, index: int) -> "Arrangement":
        return Arrangement(self.components, index)

    # -- queries ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.components)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.components)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.components)

    def index_of(self, label: str) -> int:
        for i, c in enumerate(self.components):
            if c.label == label:
                return i
        raise KeyError(label)

    def affine_indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.size) if j != self.infinity_index)

    def line_indices(self) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.components) if c.degree == 1)

    def is_line_arrangement(self) -> bool:
        return all(c.degree == 1 for c in self.components)

    def block_form(self, block: Iterable[tuple[int, int]]) -> TernaryForm:
        """Product of component forms over (index, multiplicity) pairs."""
        form = TernaryForm.constant(1)
        for j, m in block:
            form = form * self.components[j].form.power(m)
        return form

    def irreducibility_warnings(self) -> list[str]:
        """Linear factors found on degree >= 2 components, as warnings.

        A bounded probe only; silence is not a proof of irreducibility.
        """
        out = []
        for c in self.components:
            if c.degree < 2:
                continue
            pts = _rational_points_on_curve(c.form, want=6)
            for p, q in itertools.combinations(pts, 2):
                try:
                    line = line_through(p, q)
                except ValueError:
                    continue
                if exact_divide(c.form, line.form) is not None:
                    out.append(
                        f"component {c.label!r} has linear factor {line.form}"
                    )
                    break
        return out

    def __repr__(self) -> str:
        inf = "" if self.infinity_index is None else f", infinity={self.components[self.infinity_index].label!r}"
        return f"Arrangement({[c.label for c in self.components]!r}{inf})"


def _points_on_line(
    form: TernaryForm, p: Sequence[Fraction | int], q: Sequence[Fraction | int]
) -> list[ProjPoint]:
    """Rational points of the curve on the line p + t*q: q if the restriction
    drops degree, then the rational roots t = u/v in order, as v*p + u*q;
    none if the line lies on it."""
    poly = form.restrict_span(p, q)
    if not any(poly):
        return []
    out = [ProjPoint(q)] if poly[-1] == 0 else []
    roots = rational_roots(poly).roots
    return out + [ProjPoint([v * a + u * b for a, b in zip(p, q)]) for (u, v), _ in roots]


def _rational_points_on_curve(form: TernaryForm, want: int) -> list[ProjPoint]:
    """A few rational points of the curve, found by slicing with lines."""
    found: list[ProjPoint] = []
    probes = [
        ProjLine.from_coefficients(a, b, c)
        for a, b, c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -1, 0), (1, 2, -1), (2, -1, 3)]
    ]
    for line in probes:
        for pt in _points_on_line(form, *line.span):
            if pt not in found:
                found.append(pt)
        if len(found) >= want:
            break
    return found[:want]


# ---------------------------------------------------------------------------
# characters of the homology torus


class TorsionCharacter:
    """A character of H_1 of the complement, as exponents in Q/Z per component.

    Each exponent is a Fraction in [0, 1); the exponent a/b stands for the
    value e^(2*pi*i*a/b) on the loop around that component.  This is the
    boundary form: `torsion.lift_character` computes on integer numerators
    modulo one common denominator N and builds the Fractions a/N once.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[Fraction | int]) -> None:
        self.exponents = tuple(Fraction(e) % 1 for e in exponents)

    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def value_strings(self) -> tuple[str, ...]:
        """Each value rendered as ``1``, ``-1``, or ``e(a/b)``."""
        return tuple(
            "1" if e == 0 else "-1" if e == Fraction(1, 2) else f"e({e})"
            for e in self.exponents
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TorsionCharacter) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(("TorsionCharacter", self.exponents))

    def __repr__(self) -> str:
        return f"TorsionCharacter({[str(e) for e in self.exponents]})"

    def __str__(self) -> str:
        return "(" + ",".join(self.value_strings()) + ")"


# ---------------------------------------------------------------------------
# multiple points and local pencils


@dataclass(frozen=True)
class MultiplePoint:
    """Components of one degree meeting at one point."""

    point: ProjPoint
    degree: int
    incident: tuple[int, ...]
    span_dim: int

    @property
    def count(self) -> int:
        return len(self.incident)

    @property
    def mask(self) -> int:
        """The incident components as a bitmask, bit j for component j."""
        return sum(1 << j for j in self.incident)

    @property
    def yields_local_pencil(self) -> bool:
        # a point pencil contributes positive dimension only past two members
        return self.count >= 3 and self.span_dim == 2


def meeting_points(a: CurveComponent, b: CurveComponent) -> list[ProjPoint]:
    """The rational points where two components meet, sorted.

    Two lines meet at their cross product.  Curves are projected from the
    first center (u : v : 1), 0 <= u, v <= deg a + deg b, off both; the
    product of the forms cannot vanish on all of that grid.  A rational
    common point lies on the line through the center and a rational root
    of `projected_resultant` or its point at infinity, as a rational point
    of a where b vanishes.  A common factor raises `ArrangementError`.
    """
    f, g = a.form, b.form
    if f.degree == g.degree == 1:
        meet = cross(f.coefficient_vector(), g.coefficient_vector())
        if any(meet):
            return [ProjPoint(meet)]
    else:
        grid = itertools.product(range(f.degree + g.degree + 1), repeat=2)
        center = next((u, v, 1) for u, v in grid if f.evaluate((u, v, 1)) and g.evaluate((u, v, 1)))
        R, r0, r1 = projected_resultant(f, g, center)
        if R:
            through = [r1] if len(R) <= f.degree * g.degree else []
            roots = rational_roots(R).roots
            through += [[v * a + u * b for a, b in zip(r0, r1)] for (u, v), _ in roots]
            found = {p for r in through for p in _points_on_line(f, r, center)}
            return sorted(p for p in found if g.evaluate(p.coords) == 0)
    raise ArrangementError(f"components {a.label!r} and {b.label!r} share a factor")


def local_pencil_points(arr: Arrangement) -> list[MultiplePoint]:
    """All multiple points of the arrangement, grouped by component degree.

    Candidate points are the `meeting_points` of every pair of components
    of one degree, so every point where two of them meet is listed.
    """
    pairs = itertools.combinations(arr.components, 2)
    candidates = {pt for a, b in pairs if a.degree == b.degree for pt in meeting_points(a, b)}
    out: list[MultiplePoint] = []
    for pt in sorted(candidates):
        incident = [j for j, c in enumerate(arr.components) if c.form.evaluate(pt.coords) == 0]
        by_degree: dict[int, list[int]] = {}
        for j in incident:
            by_degree.setdefault(arr.components[j].degree, []).append(j)
        for degree in sorted(by_degree):
            group = by_degree[degree]
            if len(group) < 2:
                continue
            vectors = [arr.components[j].form.coefficient_vector() for j in group]
            out.append(MultiplePoint(pt, degree, tuple(group), len(echelon_rows(vectors))))
    return out


# ---------------------------------------------------------------------------
# exponent subtori


@dataclass(frozen=True)
class ExponentSubtorus:
    """An algebraic subtorus of the character torus, by exponent columns.

    Row j gives the exponents of component j in the torus parameters; the
    subtorus is the image of (s_1, ..., s_m) -> (prod s_i^{E[j][i]})_j.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.rows[0]) if self.rows and self.rows[0] else 0

    @property
    def size(self) -> int:
        return len(self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(r[i] for r in self.rows) for i in range(self.dimension)]

    def zero_rows(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.rows) if all(e == 0 for e in r))

    def saturated_key(self) -> tuple:
        """Canonical key of the saturated exponent lattice; the dedup identity.

        The saturation of the column lattice L is span_Q(L) meet Z^n: an
        integer vector x with d*x in L for some d >= 1 lies in span_Q(L),
        and an integer x = sum q_i c_i over the columns has d*x in L for d
        the common denominator of the q_i.  So two subtori have equal
        saturations exactly when their columns span the same rational
        space, whose `echelon_rows` are the key.
        """
        return echelon_rows(self.columns())

    def perp_lattice_key(self) -> tuple:
        """Canonical key of the lattice of characters constant on the subtorus.

        `integer_kernel_basis` returns the kernel in column Hermite form,
        which is already canonical.
        """
        E = IntMatrix.from_columns(self.columns(), self.size)
        return tuple(integer_kernel_basis(E.transpose()).columns())

    def coset(self, character: TorsionCharacter) -> tuple[Fraction, ...]:
        """The class of a torsion character modulo the subtorus.

        The pairings u.e mod 1 of its exponents e with the `perp_lattice_key`
        basis u.  The subtorus is connected, so it is the common zero set of
        the characters trivial on it: the point lies on it exactly when its
        class is all zero, and two points differ by a point of it exactly
        when their classes agree.  Equal spans have equal perp lattices, so
        (`saturated_key`, coset) names one translated component.
        """
        return tuple(
            sum(u * e for u, e in zip(vector, character.exponents)) % 1
            for vector in self.perp_lattice_key()
        )

    def monomial_strings(self) -> tuple[str, ...]:
        """Row j as a monomial in the parameters, e.g. ``t^2`` or ``s*t^-1``."""
        names = ["t"] if self.dimension == 1 else [f"t{i+1}" for i in range(self.dimension)]
        out = []
        for row in self.rows:
            parts = []
            for name, e in zip(names, row):
                if e == 0:
                    continue
                parts.append(name if e == 1 else f"{name}^{e}")
            out.append("*".join(parts) if parts else "1")
        return tuple(out)


def pullback_subtorus(classification: "PencilClassification") -> ExponentSubtorus:
    """Exponent subtorus pulled back from the base of the pencil.

    One parameter per base point except the last in canonical order, which
    is eliminated against the product-is-constant relation.  Every column
    satisfies the degree relation sum_j d_j E[j][i] = 0.
    """
    arr = classification.arrangement
    B = classification.base_points
    if len(B) < 2:
        raise ArrangementError("pullback needs at least two fully-arrangement fibers")
    eliminated = B[-1]
    params = B[:-1]
    rows = [[0] * len(params) for _ in range(arr.size)]
    for j, placement in enumerate(classification.placements):
        if placement.kind != "type1":
            continue
        if placement.point == eliminated:
            for i in range(len(params)):
                rows[j][i] = -placement.multiplicity
        else:
            i = params.index(placement.point)
            rows[j][i] = placement.multiplicity
    degrees = arr.degrees
    for i in range(len(params)):
        if sum(degrees[j] * rows[j][i] for j in range(arr.size)) != 0:
            raise ArrangementError("degree relation failed on a subtorus column")
    return ExponentSubtorus(tuple(tuple(r) for r in rows))
