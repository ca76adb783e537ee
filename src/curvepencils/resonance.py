"""Residue classes, cup-product isotropy, and pencil reconstruction.

Degree-one cohomology classes of the complement are written as residue
vectors: one integer entry per component, summing to zero against the
component degrees.  Only spans are read, so an integer multiple stands for
any rational class.  For line arrangements with a designated infinity line
the cup product is available through `CupStructure`, and isotropy of a
subspace can be decided exactly in integers; reconstruction of a pencil
from a subspace and of a map from a single ray work for any arrangement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import lcm
from numbers import Rational
from typing import NamedTuple, Optional, Sequence

from .arrangement import Arrangement, MultiplePoint, pullback_subtorus
from .exactalg import echelon_rows, primitive_vector
from .pencil import Pencil, PencilClassification, PencilError
from .polyform import TernaryForm

__all__ = [
    "ResonanceError",
    "ResidueVector",
    "CupStructure",
    "cup_structure",
    "IsotropyFlags",
    "IsotropicSubspace",
    "RayMap",
    "is_maximal_isotropic",
    "subspace_from_pencil",
    "pencil_from_subspace",
    "ray_to_map",
]


class ResonanceError(ValueError):
    """Raised when a residue-class computation is not available."""


@dataclass(frozen=True)
class ResidueVector:
    """Integer residues along the components, one entry per component.

    A rational class enters as an integer multiple; only its span is read.
    """

    entries: tuple[int, ...]

    def degree_pairing(self, degrees: Sequence[int]) -> int:
        return sum(d * a for d, a in zip(degrees, self.entries))


class IsotropyFlags(NamedTuple):
    isotropic: bool
    maximal: bool


@dataclass(frozen=True)
class IsotropicSubspace:
    """A subspace of residue classes with its isotropy flags.

    Flags stay None when no cup structure is available (curve components,
    or no designated infinity line).
    """

    basis: tuple[ResidueVector, ...]
    isotropic: Optional[bool] = None
    maximal: Optional[bool] = None

    @property
    def dimension(self) -> int:
        return len(echelon_rows(v.entries for v in self.basis))


# -- cup product on an affine line complement ---------------------------------


class CupStructure:
    """Degree-two relations of the complement of an affine line arrangement.

    ``points`` are the arrangement's `local_pencil_points`, found once per
    catalog.  Wedge coordinates run over pairs of affine lines.  A pair
    meeting on the designated infinity line wedges to zero; three lines
    i < j < k through a common affine point impose e_ij - e_ik + e_jk = 0.

    Reduction runs in integers because every reduced echelon row of the
    relations has pivot 1 and entries in {0, +-1}.  Two lines meet in one
    point, so the rows split into blocks on disjoint sets of pairs, one
    block per multiple point, and the reduced echelon form is that of each
    block.  A point on the infinity line gives unit rows e_ij.  An affine
    point on r lines gives the boundaries of all triangles of the complete
    graph K_r, which span its cycle space.  The pivot columns of a reduced
    echelon basis of a cycle space are the edges outside a spanning tree
    T, and the row of a pivot edge e is the one cycle with coefficient 1 on
    e and 0 on every other edge outside T: the fundamental cycle of e in
    T, whose entries lie in {0, +-1}.
    """

    def __init__(self, arr: Arrangement, points: Sequence[MultiplePoint]) -> None:
        if not arr.is_line_arrangement():
            raise ResonanceError("cup product implemented for line arrangements only")
        if arr.infinity_index is None:
            raise ResonanceError("no line designated as infinity")
        self.arrangement = arr
        self.affine_indices = arr.affine_indices()
        self._slot = {j: i for i, j in enumerate(self.affine_indices)}
        n = len(self.affine_indices)
        self.pairs = tuple(itertools.combinations(range(n), 2))
        self._pair_slot = {p: i for i, p in enumerate(self.pairs)}

        parallel: list[tuple[int, ...]] = []
        concurrent: list[tuple[int, ...]] = []
        for mp in points:
            if arr.infinity_index in mp.incident:
                affine = tuple(j for j in mp.incident if j != arr.infinity_index)
                if len(affine) >= 2:
                    parallel.append(affine)
            elif len(mp.incident) >= 2:
                concurrent.append(mp.incident)
        self.parallel_classes = tuple(parallel)
        self.concurrency_classes = tuple(concurrent)

        rows: list[list[int]] = []
        for group in parallel:
            for i, j in itertools.combinations(sorted(self._slot[g] for g in group), 2):
                row = [0] * len(self.pairs)
                row[self._pair_slot[(i, j)]] = 1
                rows.append(row)
        for group in concurrent:
            slots = sorted(self._slot[g] for g in group)
            for i, j, k in itertools.combinations(slots, 3):
                row = [0] * len(self.pairs)
                row[self._pair_slot[(i, j)]] = 1
                row[self._pair_slot[(i, k)]] = -1
                row[self._pair_slot[(j, k)]] = 1
                rows.append(row)
        self._relation_rows = echelon_rows(rows)
        self._relation_pivots = [
            next(j for j, e in enumerate(row) if e) for row in self._relation_rows
        ]
        if any(row[p] != 1 for row, p in zip(self._relation_rows, self._relation_pivots)):
            raise ResonanceError("cup relations have a reduced row with pivot other than 1")

    def _affine_part(self, v: ResidueVector) -> list[int]:
        if len(v.entries) != self.arrangement.size:
            raise ResonanceError(
                f"residue vector has {len(v.entries)} entries, expected {self.arrangement.size}"
            )
        return [v.entries[j] for j in self.affine_indices]

    def _reduce(self, coords: list[int]) -> tuple[int, ...]:
        for row, pivot in zip(self._relation_rows, self._relation_pivots):
            c = coords[pivot]
            if c:
                coords = [a - c * b for a, b in zip(coords, row)]
        return tuple(coords)

    def wedge_class(self, v: ResidueVector, w: ResidueVector) -> tuple[int, ...]:
        """Class of v wedge w in degree two, in reduced coordinates."""
        x, y = self._affine_part(v), self._affine_part(w)
        coords = [x[i] * y[j] - x[j] * y[i] for i, j in self.pairs]
        return self._reduce(coords)


def cup_structure(arr: Arrangement, points: Sequence[MultiplePoint]) -> CupStructure | None:
    """The arrangement's `CupStructure`; None without one (curves, or no infinity line)."""
    if arr.is_line_arrangement() and arr.infinity_index is not None:
        return CupStructure(arr, points)
    return None


def is_maximal_isotropic(cs: CupStructure, subspace: IsotropicSubspace) -> IsotropyFlags:
    """Decide whether all products vanish and whether the annihilator is no bigger."""
    basis = subspace.basis
    isotropic = all(
        not any(cs.wedge_class(v, w))
        for v, w in itertools.combinations(basis, 2)
    )
    if not isotropic:
        return IsotropyFlags(False, False)
    # annihilator of the subspace inside the affine coordinates
    n = len(cs.affine_indices)
    rows: list[list[int]] = []
    for v in basis:
        y = cs._affine_part(v)
        unit_classes = []
        for a in range(n):
            coords = [0] * len(cs.pairs)
            for p, (i, j) in enumerate(cs.pairs):
                if i == a:
                    coords[p] = y[j]
                elif j == a:
                    coords[p] = -y[i]
            unit_classes.append(cs._reduce(coords))
        for p in range(len(cs.pairs)):
            rows.append([unit_classes[a][p] for a in range(n)])
    annihilator_dim = n - len(echelon_rows(rows))
    maximal = annihilator_dim == len(echelon_rows(cs._affine_part(v) for v in basis))
    return IsotropyFlags(True, maximal)


# -- pencils and subspaces ------------------------------------------------------


def subspace_from_pencil(
    classification: PencilClassification, cup: CupStructure | None
) -> IsotropicSubspace:
    """Pullback of degree-one classes of the punctured target line.

    The basis is the columns of `pullback_subtorus`, the pencil's exponent
    lattice: one vector per base point except the last, holding that
    fiber's member multiplicities minus those of the last fiber.
    Isotropy flags are filled in when ``cup``, the arrangement's
    `cup_structure`, exists; one structure serves every pencil.
    """
    if len(classification.base_points) < 2:
        raise ResonanceError("need at least two fully-arrangement fibers")
    columns = pullback_subtorus(classification).columns()
    subspace = IsotropicSubspace(tuple(ResidueVector(c) for c in columns))
    if cup is not None:
        flags = is_maximal_isotropic(cup, subspace)
        subspace = replace(subspace, isotropic=flags.isotropic, maximal=flags.maximal)
    return subspace


def pencil_from_subspace(arr: Arrangement, subspace: IsotropicSubspace) -> Pencil:
    """Reconstruct the pencil whose pullback subspace was given.

    Components are grouped by proportionality of their residue functionals
    (the per-component coordinate evaluations on the subspace basis),
    tested by integer cross-multiplication; the functionals' entries at
    the group's pivot coordinate give the fiber multiplicities, and the
    fiber products of the first two groups span the pencil.
    """
    basis = subspace.basis
    if len(basis) < 2 or subspace.dimension < 2:
        raise ResonanceError("not a pencil subspace: dimension below two")
    functionals = [
        tuple(v.entries[j] for v in basis) for j in range(arr.size)
    ]
    blocks: list[tuple[int, list[int]]] = []
    for j, func in enumerate(functionals):
        if not any(func):
            continue
        for pivot, members in blocks:
            rep = functionals[members[0]]
            if all(a * rep[pivot] == b * func[pivot] for a, b in zip(func, rep)):
                members.append(j)
                break
        else:
            blocks.append((next(i for i, e in enumerate(func) if e), [j]))
    if len(blocks) < 3:
        raise ResonanceError("not a pencil subspace: fewer than three fiber groups")
    groups: list[tuple[list[int], tuple[int, ...], int]] = []
    for pivot, members in blocks:
        entries = [functionals[j][pivot] for j in members]
        if any((e > 0) != (entries[0] > 0) for e in entries):
            raise ResonanceError("not a pencil subspace: mixed signs inside a fiber group")
        mults = primitive_vector(entries)
        groups.append((members, mults, sum(arr.degrees[j] * m for j, m in zip(members, mults))))
    # proportionality only fixes multiplicities up to a group scalar;
    # equal fiber degrees pin the scalars down
    degree = lcm(*(d for _, _, d in groups))
    forms = [
        arr.block_form((j, m * (degree // d)) for j, m in zip(members, mults))
        for members, mults, d in groups
    ]
    try:
        pencil = Pencil(forms[0], forms[1])
    except PencilError as exc:
        raise ResonanceError(f"not a pencil subspace: {exc}") from exc
    for form in forms[2:]:
        if not pencil.contains(form):
            raise ResonanceError("not a pencil subspace: fiber groups do not span a pencil")
    return pencil


# -- single rays -----------------------------------------------------------------


@dataclass(frozen=True)
class RayMap:
    """A formal product of component equations with coprime exponents."""

    exponents: tuple[int, ...]
    numerator: TernaryForm
    denominator: TernaryForm
    description: str
    note: str


def ray_to_map(
    arr: Arrangement, direction: ResidueVector | Sequence[Rational]
) -> RayMap:
    """Scale a rational ray to coprime integers and form the defining map.

    The sign is fixed by making the first nonzero exponent positive; the
    note records why the generic fiber of the resulting map is connected.
    """
    entries = direction.entries if isinstance(direction, ResidueVector) else tuple(direction)
    if len(entries) != arr.size:
        raise ResonanceError(
            f"direction has {len(entries)} entries, expected {arr.size}"
        )
    if not any(entries):
        raise ResonanceError("zero direction does not define a map")
    if sum(d * a for d, a in zip(arr.degrees, entries)):
        raise ResonanceError("direction must pair to zero with the component degrees")
    exponents = primitive_vector(entries)
    up, down = [], []
    for j, m in enumerate(exponents):
        label = arr.components[j].label
        if m > 0:
            up.append(label if m == 1 else f"{label}^{m}")
        elif m < 0:
            down.append(label if m == -1 else f"{label}^{-m}")
    numerator = arr.block_form((j, m) for j, m in enumerate(exponents) if m > 0)
    denominator = arr.block_form((j, -m) for j, m in enumerate(exponents) if m < 0)
    description = " * ".join(up) + " / (" + " * ".join(down) + ")"
    return RayMap(
        exponents=exponents,
        numerator=numerator,
        denominator=denominator,
        description=description,
        note="connectivity of the generic fiber follows from Bertini's theorem",
    )
