"""Catalog of positive-dimensional components of the character variety.

Three sources feed the catalog: pencils of curves through a multiple point
(local), pencils found by the block-partition search with three or more
fully-arrangement fibers (global), and translated components detected
through the torsion quotient of a pencil map.  A record holds its source,
exponent subtorus, translation character and certification; its kind,
dimension, coordinate/essential flags, witness, exceptional note and
expected generic first Betti number are derived from these four.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional, Sequence, Union

from .arrangement import (
    Arrangement,
    ExponentSubtorus,
    MultiplePoint,
    TorsionCharacter,
    pullback_subtorus,
)
from .exactalg import (
    coeffs_derivative,
    coeffs_evaluate,
    coeffs_mul,
    coeffs_resultant,
    rational_roots,
)
from .pencil import (
    Pencil,
    PencilClassification,
    _Block,
    _BlockTable,
    _SearchTables,
    classify,
    detect_special_fibers,
    iter_block_pairs,
    pencil_search,
)
from .polyform import ProjLine, TernaryForm
from .resonance import cup_structure, subspace_from_pencil
from .torsion import epsilon_count, lifted_characters

__all__ = [
    "CatalogError",
    "ComponentRecord",
    "Catalog",
    "build_catalog",
]


class CatalogError(ValueError):
    """Raised when the catalog cannot be assembled for the arrangement."""


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class ComponentRecord:
    """One positive-dimensional component of the first character variety.

    ``source`` is the multiple point (local records) or the pencil
    classification (global and translated records) that produced the
    component, ``subtorus`` its exponent subtorus, ``torsion`` the character
    rho that translates it (trivial unless the record is translated), and
    ``certification`` the flag ``"certified"`` or ``"candidate"``, followed
    in parentheses by the hypothesis that was checked or failed.  The other
    six values follow from these four:

    - ``kind``: ``"local"`` for a point source, ``"global"`` for a trivial
      rho, ``"translated"`` otherwise;
    - ``dimension``: that of the subtorus, k - 1 for a pencil with k
      members through a point or k full fibers;
    - ``flags``: ``"coordinate component"`` when the subtorus has a zero
      row where rho is 1, ``"translated coordinate component"`` when it has
      one where rho is not, ``"essential"`` when it has none, then the
      certification;
    - ``witness``: the label of the first zero row where rho is not 1, if
      any;
    - ``exceptional_note``: h1 exceeds its generic value at finitely many
      characters, which pull back from the quotient of the subtorus when
      the dimension is 2 or more;
    - ``expected_generic_h1``: dimension - 1, plus `epsilon_count` for a
      translated record, that is k - 2 + epsilon(rho).
    """

    source: Union[MultiplePoint, PencilClassification]
    subtorus: ExponentSubtorus
    torsion: TorsionCharacter
    certification: str = "certified"

    @property
    def kind(self) -> str:
        if isinstance(self.source, MultiplePoint):
            return "local"
        return "global" if self.torsion.is_trivial() else "translated"

    @property
    def dimension(self) -> int:
        return self.subtorus.dimension

    def _zero_rows(self) -> tuple[list[int], list[int]]:
        """The subtorus's zero rows where rho is 1, and those where it is not."""
        rows = self.subtorus.zero_rows()
        exponents = self.torsion.exponents
        return [j for j in rows if not exponents[j]], [j for j in rows if exponents[j]]

    @property
    def flags(self) -> tuple[str, ...]:
        plain, translated = self._zero_rows()
        flags = []
        if plain:
            flags.append("coordinate component")
        if translated:
            flags.append("translated coordinate component")
        return (*(flags or ["essential"]), self.certification)

    @property
    def witness(self) -> Optional[str]:
        _, translated = self._zero_rows()
        # rho is nontrivial there, so the source is a classification
        return self.source.arrangement.labels[translated[0]] if translated else None

    @property
    def exceptional_note(self) -> str:
        note = "h1 exceeds the generic value at only finitely many characters"
        if self.dimension >= 2:
            note += "; the exceptions pull back from the quotient of the subtorus"
        return note

    @property
    def expected_generic_h1(self) -> int:
        if self.torsion.is_trivial():
            return self.dimension - 1
        return self.dimension - 1 + epsilon_count(self.source, self.torsion)

    def source_string(self) -> str:
        if isinstance(self.source, MultiplePoint):
            return f"point pencil at {self.source.point}"
        cl = self.source
        return " | ".join(cl.divisor_string(b) for b in cl.base_points)

    def describe(self) -> str:
        parts = [f"{self.kind} dim {self.dimension}", self.source_string()]
        if not self.torsion.is_trivial():
            parts.append("torsion (" + ", ".join(self.torsion.value_strings()) + ")")
        parts.extend(self.flags)
        if self.witness is not None:
            parts.append(f"witness {self.witness}")
        parts.append(f"expected generic h1 = {self.expected_generic_h1}")
        return "; ".join(parts)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "source": self.source_string(),
            "subtorus": [list(row) for row in self.subtorus.rows],
            "monomials": list(self.subtorus.monomial_strings()),
            "torsion": list(self.torsion.value_strings()),
            "flags": list(self.flags),
            "witness": self.witness,
            "expected_generic_h1": self.expected_generic_h1,
            "exceptional_note": self.exceptional_note,
        }


@dataclass(frozen=True)
class Catalog:
    """All records found for one arrangement, in deterministic order."""

    arrangement: Arrangement
    records: tuple[ComponentRecord, ...]
    warnings: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "labels": list(self.arrangement.labels),
            "records": [r.to_json() for r in self.records],
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# probe lines for the translated sweep

# a probe line, its parametrization points q0 and q1, and its restrictions
_Probe = tuple[TernaryForm, tuple[int, ...], tuple[int, ...], list[tuple[int, ...]]]


def _probe_candidates() -> Iterator[tuple[int, int, int]]:
    """Primitive (a, b, c) with 1 <= a <= 23, |b| <= a, -a - |b| <= c <= a + |b| + 1,
    by height a + |b| + |c| (at most 93), then lexicographically."""
    for h in range(1, 94):
        for a in range(1, min(h, 23) + 1):
            for b in range(-min(a, h - a), min(a, h - a) + 1):
                r = h - a - abs(b)
                for c in sorted({-r, r}):
                    if -a - abs(b) <= c <= a + abs(b) + 1 and gcd(gcd(a, b), c) == 1:
                        yield a, b, c


def _probe_lines(tables: _SearchTables) -> list[_Probe]:
    """Two probe lines q(s) = s*q0 + q1 with their `_integer_restrictions`
    on the components of ``tables.arr``.

    q0 and q1 avoid all components, so the restrictions keep full degree,
    and pairwise nonzero resultants prove that the probe misses every point
    where two components meet, rational or not: every base point of a swept
    pencil.  The same test against the first probe's restriction puts the
    meeting point of the two probes off the arrangement.  A candidate
    through one of the table's multiple points is skipped before any
    restriction is built: two restrictions share the root there, so the
    resultant test would reject it, and skipping it leaves the chosen
    probes as they are.  Everything is integer arithmetic: the components
    are primitive integer forms and the candidate points integer points,
    and two linear restrictions f, g have resultant f0*g1 - f1*g0.
    """
    arr = tables.arr
    points = [mp.point.coords for mp in tables.points]

    def coprime(f: tuple[int, ...], g: tuple[int, ...]) -> bool:
        if len(f) == 2 and len(g) == 2:
            return f[0] * g[1] != f[1] * g[0]
        return coeffs_resultant(f, g) != 0

    chosen: list[_Probe] = []
    for a, b, c in _probe_candidates():
        if any(a * x + b * y + c * z == 0 for x, y, z in points):
            continue
        line = ProjLine.from_coefficients(a, b, c)
        if any(cp.form.proportional_to(line.form) for cp in arr.components):
            continue
        off = (
            p.coords
            for p in line.rational_points(80)
            if all(cp.form.evaluate(p.coords) for cp in arr.components)
        )
        good = list(itertools.islice(off, 2))
        if len(good) < 2:
            continue
        restrictions = _integer_restrictions(arr, good[0], good[1])
        polys = list(restrictions)
        if chosen:
            polys.append(chosen[0][0].restrict_span(good[1], good[0]))
        if not all(coprime(f, g) for f, g in itertools.combinations(polys, 2)):
            continue
        chosen.append((line.form, good[0], good[1], restrictions))
        if len(chosen) == 2:
            return chosen
    raise CatalogError("no probe line avoids the arrangement")


def _integer_restrictions(
    arr: Arrangement, q0: Sequence[int], q1: Sequence[int]
) -> list[tuple[int, ...]]:
    """Component forms F(q1 + s*q0) as integer coefficient tuples in s.

    Components are primitive integer forms and q0, q1 integer points, so
    the coefficients are integers; lowest degree comes first.
    """
    out = []
    for cp in arr.components:
        poly = cp.form.restrict_span(q1, q0)
        if poly[-1] == 0:
            raise CatalogError(
                f"parametrization point {tuple(q0)} lies on component {cp.label!r}"
            )
        out.append(poly)
    return out


# ---------------------------------------------------------------------------
# the multiple-fiber prefilter

# A fiber with a repeated component meets every probe line in a repeated
# root, away from the blocks.  On a probe the repeated-root locus of the
# family v - lambda*w is cut out by the logarithmic Wronskian
#   W = sum_j c_j * R_j' * prod_{i != j} R_i,
# with c the block multiplicity ray (m_j on block a, -m_j on block b) and
# R_j the component restrictions; its degree is bounded by the support
# degree, independent of the multiplicities, and its rational roots give the
# only rational parameters that can carry a repeated root.  Agreement across
# two probes is required.
#
# Per-block algebra.  The two blocks have disjoint supports, so
#   W = L_a*S_b - S_a*L_b,  S = prod R_j,  L = sum m_j R_j' prod_{i != j} R_i
# over each block's support (L/S = sum m_j R_j'/R_j).  S and L are fixed per
# block and probe; `_SweepTables` builds them one component at a time by
# (S, L) <- (S*R, L*R + m*S*R').  W has formal degree deg_e - 2, with
# deg_e = deg S_a + deg S_b: L has formal degree deg S - 1 and leading
# coefficient D*lc(S) for a block of degree D, so the t^(deg_e - 1)
# coefficient of W is D*lc(S_a)*lc(S_b) - lc(S_a)*D*lc(S_b) = 0.
#
# Residue screen.  Before any polynomial of the pair is built, the pair is
# rejected when, for some p in _SCREEN_PRIMES, the t^(deg_e - 2)
# coefficient w of W is nonzero mod p and W has no zero on F_p.  This is
# sound.  w != 0 gives W exact degree deg_e - 2, so the parameter at the
# parametrization's infinity is not taken.  A rational root u/v of W in
# lowest terms has v | w, so p does not divide v, and v^(deg_e - 2)*W(u/v) = 0
# reduces to W(u/v mod p) = 0 on F_p.  So a rejected pair has no candidate
# parameter at all, as if W had been built.
#
# Residue table.  The screen reads, per block, prime p and t in F_p, the
# residues (S(t), L(t)) mod p, built by the step above mod p, and tests
# W(t) = L_a(t)*S_b(t) - S_a(t)*L_b(t) mod p at every t.  The table also
# keeps the top two coefficients of S and of L, from which w comes.


_SCREEN_PRIMES = (7, 11, 13)


class _SweepTables:
    """The residue screen's table, and S and L, for every block of the sweep.

    ``entry`` is a `_BlockTable` whose step builds a block's entry from
    that of the block without its last component.  An entry holds:

    - tops: S[d], S[d - 1], L[d - 1], L[d - 2] with d = deg S (0 below
      degree 0), updated from the top two coefficients of R_j;
    - residues: per prime p of `_SCREEN_PRIMES`, the pairs (S(t), L(t))
      mod p for t = 0, ..., p - 1, updated by (S, L) <- (S*r, L*r + m*S*r')
      with r and r' the values of R_j and R_j' at t mod p.

    ``polys`` is a second `_BlockTable`, of S and L with L of formal degree
    d - 1; only `wronskian` reads it, on the pairs that pass the screen.
    The steps close over locals, not over the tables, so the memos go with
    the last reference to the tables.
    """

    def __init__(self, restrictions: Sequence[tuple[int, ...]]) -> None:
        self.restrictions = restrictions
        derivatives = [coeffs_derivative(r) for r in restrictions]
        # per component and prime: (R_j(t), R_j'(t)) mod p for t in F_p
        values = [
            tuple(
                tuple((coeffs_evaluate(r, t) % p, coeffs_evaluate(dr, t) % p) for t in range(p))
                for p in _SCREEN_PRIMES
            )
            for r, dr in zip(restrictions, derivatives)
        ]

        def step(prev: tuple, j: int, m: int) -> tuple:
            (s0, s1, l1, l2), residues = prev
            r = restrictions[j]  # of full degree e >= 1 (`_integer_restrictions`)
            e, r0, r1 = len(r) - 1, r[-1], r[-2]
            tops = (
                s0 * r0,
                s0 * r1 + s1 * r0,
                l1 * r0 + m * e * s0 * r0,
                l1 * r1 + l2 * r0 + m * ((e - 1) * s0 * r1 + e * s1 * r0),
            )
            residues = tuple(
                tuple((S * x % p, (L * x + m * S * d) % p) for (S, L), (x, d) in zip(row, at))
                for p, row, at in zip(_SCREEN_PRIMES, residues, values[j])
            )
            return tops, residues

        def poly_step(prev: tuple, j: int, m: int) -> tuple:
            S, L = prev
            r = restrictions[j]
            term = tuple(m * c for c in coeffs_mul(S, derivatives[j]))  # m*S*R'
            L = tuple(x + y for x, y in zip(coeffs_mul(L, r), term)) if L else term
            return coeffs_mul(S, r), L

        residues = tuple(((1, 0),) * p for p in _SCREEN_PRIMES)
        self.entry = _BlockTable(((1, 0, 0, 0), residues), step)
        self.polys = _BlockTable(((1,), ()), poly_step)

    def screen(self, a: _Block, b: _Block) -> bool:
        """False when the residues prove that W has no rational root."""
        (s0a, s1a, l1a, l2a), rows_a = self.entry(a)
        (s0b, s1b, l1b, l2b), rows_b = self.entry(b)
        w = l1a * s1b + l2a * s0b - s0a * l2b - s1a * l1b
        return not any(
            w % p and all((La * Sb - Sa * Lb) % p for (Sa, La), (Sb, Lb) in zip(row_a, row_b))
            for p, row_a, row_b in zip(_SCREEN_PRIMES, rows_a, rows_b)
        )

    def wronskian(self, a: _Block, b: _Block) -> tuple[tuple[int, ...], int]:
        """W = L_a*S_b - S_a*L_b, zeros trimmed, and deg_e = deg S_a + deg S_b."""
        S_a, L_a = self.polys(a)
        S_b, L_b = self.polys(b)
        # both products have formal degree deg_e - 1
        wron = [x - y for x, y in zip(coeffs_mul(L_a, S_b), coeffs_mul(S_a, L_b))]
        while wron and wron[-1] == 0:
            wron.pop()
        return tuple(wron), len(S_a) + len(S_b) - 2


def _fiber_value(block: _Block, restrictions: Sequence[tuple[int, ...]], u: int, v: int) -> int:
    """The block product at (u : v), each restriction R_j homogenized to its degree.

    That is v^deg times the block product at u/v, or at the infinity
    (1 : 0) the product of the leading coefficients.  Two blocks of equal
    degree share the power of v, so their ratio is that of the products.
    """
    out = 1
    for j, m in zip(block.indices, block.mults):
        value, vk = 0, 1
        for c in reversed(restrictions[j]):
            value = value * u + c * vk
            vk *= v
        out *= value**m
    return out


def _candidate_parameters(sweep: _SweepTables, a: _Block, b: _Block) -> set[tuple[int, int]]:
    """Reduced pairs (va, vb), vb > 0, of the parameters va/vb that can carry
    a repeated root on the first probe.

    W is built from the cached S and L of the two blocks (`_SweepTables`).
    A root of W is never a base point of the pencil: the probe misses every
    point where two components meet (`_probe_lines`).  W never vanishes
    identically: the restrictions have full degree and are pairwise coprime
    (`_probe_lines`), so L_a/S_a = sum m_j R_j'/R_j has its poles exactly at
    the roots of block a's restrictions, which block b's sum does not
    share, and W = 0 would make the two sums equal.  A zero W raises
    `CatalogError` as a broken invariant.
    """
    wron, degree_e = sweep.wronskian(a, b)
    if not wron:
        raise CatalogError("the sweep Wronskian of two disjoint blocks vanishes identically")
    # finite repeated-root positions are rational roots u/v of W
    roots = rational_roots(wron).roots if len(wron) > 1 else ()
    points = [root for root, _ in roots]
    # a repeated root at the parametrization's infinity (1 : 0) shows as an
    # extra degree drop past the one forced by the equal block degrees
    if len(wron) - 1 < degree_e - 2:
        points.append((1, 0))
    found: set[tuple[int, int]] = set()
    for u, v in points:
        va = _fiber_value(a, sweep.restrictions, u, v)
        vb = _fiber_value(b, sweep.restrictions, u, v)
        if va == 0 or vb == 0:
            continue  # the repeated root sits inside a block fiber
        g = gcd(va, vb) if vb > 0 else -gcd(va, vb)
        found.add((va // g, vb // g))
    return found


def _block_products(restrictions: Sequence[tuple[int, ...]]) -> _BlockTable:
    """The product prod R_j^m_j of every block on one probe (the sweep's second)."""

    def step(prev: tuple[int, ...], j: int, m: int) -> tuple[int, ...]:
        for _ in range(m):
            prev = coeffs_mul(prev, restrictions[j])
        return prev

    return _BlockTable((1,), step)


def _repeated_root_at(products: _BlockTable, a: _Block, b: _Block, lam: tuple[int, int]) -> bool:
    """Whether the fiber V_a - lam*V_b, lam = u/v, has a repeated root on the probe."""
    va, vb = products(a), products(b)
    u = [lam[1] * x - lam[0] * y for x, y in zip(va, vb)]
    while u and u[-1] == 0:
        u.pop()
    # a degree drop of two or more is a repeated root at infinity
    if len(u) <= len(va) - 2:
        return True
    return len(u) > 1 and coeffs_resultant(u, coeffs_derivative(u)) == 0


# ---------------------------------------------------------------------------
# building the catalog


def _point_subtorus(size: int, mp: MultiplePoint) -> ExponentSubtorus:
    """The subtorus of the pencil of the k lines through a multiple point."""
    k = mp.count
    rows = [[0] * (k - 1) for _ in range(size)]
    for i, j in enumerate(mp.incident[:-1]):
        rows[j][i] = 1
    rows[mp.incident[-1]] = [-1] * (k - 1)
    return ExponentSubtorus(tuple(tuple(r) for r in rows))


def _translated_certification(cl: PencilClassification, maximal: Optional[bool]) -> str:
    # maximal is None exactly when `cup_structure` is: curves, or no infinity line
    if cl.conditional:
        return "candidate (special fiber list is conditional)"
    if cl.k >= 3:
        return "certified"
    if maximal is None:
        return "candidate (no cup-product structure on this arrangement)"
    if any(sp.m_prime != 1 for sp in cl.special_points):
        return "candidate (a special fiber has m'(c) != 1)"
    if not maximal:
        return "candidate (pullback rays are not maximal isotropic)"
    # the m'(c) hypothesis is checked over C(f), the detected special fibers
    return "certified (m'(c) = 1 for all c in C(f))"


def build_catalog(
    arr: Arrangement,
    max_multiplicity: int = 2,
    max_blocks: int = 3,
) -> Catalog:
    """Assemble the component catalog of the arrangement.

    The partition caps bound the search for global components exactly as in
    `pencil_search`; raising them widens both the global stage and the pool
    of two-block pencils swept for translated components.  The translated
    sweep needs a designated infinity line; when the arrangement has none,
    the first line component is used and a warning records the choice.  The
    sweep finds translated components whose repeated fiber part meets a
    probe line rationally (every repeated line does); k = 2 rays that fail
    maximal isotropy are dropped when the cup structure exists.

    One `_SearchTables`, built here and dropped on return, serves the call:
    its multiple points give the local records, the sweep's concurrency
    masks, the probe lines' prefilter and the one `cup_structure`; both
    stages draw their pairs from `iter_block_pairs`, a depth-first draw
    that applies the closure rules of the tangent-cone lemma as each
    multiple point closes (the comment above `pencil._SearchTables`), and
    its block forms span every pencil.  The global stage is
    `pencil_search`, whose draw on line arrangements keeps the pairs that
    pass the multinet rule, and whose pairs pass, in order, the vote screen
    on the other arrangements, span dedup and exact classification.  The
    sweep's first three stages run inside its draw (``sweep=True``):
    content (both blocks primitive) and concurrency (a support of lines
    through one multiple point) at each leaf, and on line arrangements the
    base-point rule, a running gcd of h_X over the closed points that meet
    both blocks with unequal counts, or with equal counts and no line
    outside the pair, which cuts the draw at 1; then every special fiber
    has m'' = 1 and T(f) is trivial.  The pairs drawn then pass the
    residue screen, the Wronskian prefilter on two probe lines that miss
    every meeting point, span dedup against the searched and already swept
    pencils, and exact classification.  The residue screen and the
    prefilter work per block on the first probe (`_SweepTables`): the
    screen reads each block's direct residue table,
    (S(t), L(t)) mod 7, 11 and 13 at every t, and the top coefficients of
    S = prod R_j and L = sum m_j R_j' prod_{i != j} R_i; S and L themselves
    are built only for the pairs that pass it, whose Wronskian is
    L_a*S_b - S_a*L_b.  These, and the block products on the second probe
    (`_block_products`), are `_BlockTable`s, as in the search.  The residue
    screen rejects a pair whose Wronskian has no zero mod some prime that
    keeps its degree, before any polynomial of the pair is built; the
    comment above `_SCREEN_PRIMES` proves it loses no candidate.

    Every record is one `ComponentRecord` of source, subtorus, character
    and certification.  A local record is a multiple point with the
    subtorus of its point pencil (`_point_subtorus`) and the trivial
    character; a global record is a searched classification with its
    `pullback_subtorus` and the trivial character, unless its subtorus is
    already listed; a translated record is a swept or searched
    classification with its pullback subtorus, one lifted character off
    that subtorus, and the certification of `_translated_certification`.
    Translated records are kept once per component: one set of
    (`ExponentSubtorus.saturated_key`, `ExponentSubtorus.coset`) keys, the
    rational span of the subtorus and the class of the character modulo
    it, keeps the first record of each class.  A translated subtorus of
    dimension 2 or more whose span no record lists adds a global record of
    its source with the trivial character.  Local records sort by point,
    global ones keep the order found, and translated ones sort by span key
    and character.  The catalog's warnings are its
    own and those of every searched pencil and every swept pencil that
    reaches classification.  A pair that the base-point rule rejects adds
    none: the one warning a pencil carries flags possible special fibers
    over irrational points, and every such fiber of a rejected pair has
    m'' = 1, so it carries no record.  On b3 plus the line x + y - z the
    rule leaves 3 swept pencils to classify, and 4 when it reads only the
    points with no line outside the pair, with the same catalog.  Caps
    that would leave the global stage empty raise `CatalogError`, and so
    does a component that the irreducibility probe of
    `Arrangement.irreducibility_warnings` shows to be reducible.
    """
    if max_multiplicity < 1:
        raise CatalogError(f"max_multiplicity (--max-mult) must be >= 1, got {max_multiplicity}")
    if max_blocks < 3:
        raise CatalogError(
            f"max_blocks (--max-blocks) must be >= 3 for global components, got {max_blocks}"
        )
    reducible = arr.irreducibility_warnings()
    if reducible:
        raise CatalogError("; ".join(reducible))
    warnings: list[str] = []

    # --- Step 1: arrange for an infinity line ---
    work = arr
    if arr.infinity_index is None:
        lines = arr.line_indices()
        if lines:
            work = arr.with_infinity(lines[0])
            warnings.append(
                f"no designated infinity line; torsion sweep uses {arr.labels[lines[0]]}"
            )
        else:
            work = None
            warnings.append("no line component; translated sweep skipped")
    base_arr = work if work is not None else arr
    tables = _SearchTables(base_arr, max_multiplicity)

    # --- Step 2: local components from multiple points ---
    # curves of degree >= 2 through a point that span a pencil are full
    # fibers of that pencil: step 3 lists it once as a global pencil, where
    # local records would list it again at each rational base point
    trivial = TorsionCharacter([0] * base_arr.size)
    locals_: list[ComponentRecord] = []
    for mp in tables.points:
        if mp.yields_local_pencil and mp.degree == 1:
            locals_.append(ComponentRecord(mp, _point_subtorus(base_arr.size, mp), trivial))
    known_keys = {rec.subtorus.saturated_key() for rec in locals_}

    # --- Step 3: global components from the partition search ---
    results = pencil_search(tables, max_blocks)
    globals_: list[ComponentRecord] = []
    searched_spans: set[tuple] = set()
    for cl in results:
        searched_spans.add(cl.pencil.span_key())
        subtorus = pullback_subtorus(cl)
        key = subtorus.saturated_key()
        if key in known_keys:
            continue  # the point pencil of a multiple point, already listed
        known_keys.add(key)
        globals_.append(ComponentRecord(cl, subtorus, trivial))

    # --- Step 4: translated sweep over the found pencils ---
    translated: list[ComponentRecord] = []
    seen_classes: set[tuple[tuple, tuple]] = set()
    if work is not None:
        candidates = [detect_special_fibers(cl) for cl in results]

        first, second = (r for _, _, _, r in _probe_lines(tables))
        sweep = _SweepTables(first)
        products = _block_products(second)
        survivor_spans: set[tuple] = set()
        for blk_a, blk_b in iter_block_pairs(tables, sweep=True):
            if not sweep.screen(blk_a, blk_b):
                continue  # no rational root of W on the first probe
            params = _candidate_parameters(sweep, blk_a, blk_b)
            if not any(_repeated_root_at(products, blk_a, blk_b, lam) for lam in params):
                continue  # no candidate repeats its root on the second probe
            # disjoint supports of irreducibles are never proportional
            pencil = Pencil(tables.block_form(blk_a), tables.block_form(blk_b))
            span = pencil.span_key()
            if span in searched_spans or span in survivor_spans:
                continue
            survivor_spans.add(span)
            candidates.append(detect_special_fibers(classify(work, pencil)))

        cup = cup_structure(work, tables.points)
        for cl in candidates:
            for w in cl.warnings:
                if w not in warnings:
                    warnings.append(w)
            maximal: Optional[bool] = None
            if cup is not None:
                subspace = subspace_from_pencil(cl, cup)
                maximal = subspace.maximal
                if cl.k == 2 and maximal is False:
                    continue
            _, lifts = lifted_characters(cl)
            if not lifts:
                continue
            subtorus = pullback_subtorus(cl)
            certification = _translated_certification(cl, maximal)
            for rho in lifts:
                coset = subtorus.coset(rho)
                if not any(coset):
                    continue  # not translated: the lift already sits on the subtorus
                key = (subtorus.saturated_key(), coset)
                if key not in seen_classes:
                    seen_classes.add(key)
                    translated.append(ComponentRecord(cl, subtorus, rho, certification))

    # --- Step 5: cross-reference and deterministic order ---
    for rec in translated:
        if rec.dimension >= 2 and rec.subtorus.saturated_key() not in known_keys:
            known_keys.add(rec.subtorus.saturated_key())
            globals_.append(ComponentRecord(rec.source, rec.subtorus, trivial))

    locals_.sort(key=lambda r: r.source.point)
    translated.sort(key=lambda r: (r.subtorus.saturated_key(), r.torsion.exponents))
    records = tuple(locals_ + globals_ + translated)
    return Catalog(arrangement=base_arr, records=records, warnings=tuple(warnings))
