"""Torsion quotient of a pencil map and the characters it carries.

Everything here works in the affine chart obtained by deleting a designated
line of the arrangement.  First-homology classes of the complement are
written in coordinates dual to the loops around the remaining components,
so an exponent vector of length ``len(affine_indices)`` always refers to
that slot order.

The pipeline is `kernel_fstar` -> `theta` -> `compute_Tf` ->
`characters_of_Tf` -> `lift_character`.  Each stage only consumes the
output of the previous one, so intermediate data can be inspected or
serialised between steps.  `compute_Tf` has one algorithm: the relation
lattice of the kernel images inside the product of the special-fiber
cyclic groups, with a trivial exit when every special fiber is reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .arrangement import Arrangement, TorsionCharacter
from .exactalg import (
    FinAbelianGroup,
    IntMatrix,
    QmodZ,
    echelon_rows,
    integer_kernel_basis,
    product_relation_lattice,
    smith_normal_form,
)
from .pencil import PencilClassification, SpecialPoint
from .polyform import P1Point

__all__ = [
    "TorsionError",
    "ThetaData",
    "TfGroup",
    "LiftedCharacter",
    "kernel_fstar",
    "theta",
    "compute_Tf",
    "characters_of_Tf",
    "lift_character",
    "epsilon_count",
]


class TorsionError(ValueError):
    """Raised when torsion data is requested from unsuitable input."""


# -- affine chart ------------------------------------------------------------


def _affine_chart(
    arr: Arrangement, classification: PencilClassification
) -> tuple[tuple[int, ...], dict[int, int], tuple[P1Point, ...], list[int], list[list[int]]]:
    """Slot order, base points and fiber relation rows of the affine chart.

    The last base point in canonical order is the one placed at infinity on
    the target line; each remaining base point contributes one relation row
    (its member multiplicities minus those of the infinity side, restricted
    to affine components).
    """
    if arr.infinity_index is None:
        raise TorsionError("no line designated as infinity")
    if arr.components[arr.infinity_index].degree != 1:
        raise TorsionError("designated infinity component is not a line")
    if not classification.base_points:
        raise TorsionError("need at least one fully-arrangement fiber")
    affine = arr.affine_indices()
    slot = {j: i for i, j in enumerate(affine)}

    def member_vector(point: P1Point) -> list[int]:
        vec = [0] * len(affine)
        for j, mult in classification.fiber_members(point):
            if j in slot:
                vec[slot[j]] = mult
        return vec

    base = classification.base_points
    inf_vec = member_vector(base[-1])
    rows = [
        [a - b for a, b in zip(member_vector(b), inf_vec)] for b in base[:-1]
    ]
    return affine, slot, base, inf_vec, rows


def kernel_fstar(arr: Arrangement, classification: PencilClassification) -> IntMatrix:
    """Basis of the kernel of the map induced by the pencil on first homology.

    Coordinates run over the affine components in slot order; the returned
    matrix holds one basis vector per column.  With a single base point the
    map on homology is zero and the kernel is everything.
    """
    affine, _slot, _base, _inf, rows = _affine_chart(arr, classification)
    if not rows:
        return IntMatrix.identity(len(affine))
    return integer_kernel_basis(IntMatrix(rows))


# -- theta data --------------------------------------------------------------


@dataclass(frozen=True)
class ThetaData:
    """Target data of the torsion computation.

    ``theta_rows`` has one row per special point, giving the value of the
    corresponding cyclic coordinate on each affine loop, reduced modulo that
    point's new-part multiplicity.  ``kernel_images`` packs the images of
    the kernel basis vectors as columns.
    """

    affine_indices: tuple[int, ...]
    infinity_index: int
    base_points: tuple[P1Point, ...]
    relation_rows: IntMatrix
    kernel_basis: IntMatrix
    infinity_fiber_row: tuple[int, ...]
    special_points: tuple[SpecialPoint, ...]
    moduli: tuple[int, ...]
    theta_rows: IntMatrix
    kernel_images: IntMatrix
    conditional: bool


def theta(
    arr: Arrangement, classification: PencilClassification, kernel: IntMatrix
) -> ThetaData:
    """Connecting map from the pencil kernel into the special-fiber cyclic groups.

    Requires `detect_special_fibers` to have run: the classification must
    carry its special-point list.  The value of the coordinate at a special
    point on a homology class is the infinity-side weighted sum minus the
    weighted sum over the members sitting inside that special fiber, taken
    modulo the new-part multiplicity.
    """
    if classification.special_points is None:
        raise TorsionError("special fiber data not computed")
    affine, slot, base, inf_vec, rows = _affine_chart(arr, classification)
    specials = tuple(classification.special_points)
    moduli = tuple(sp.m_dprime for sp in specials)
    assert all(m >= 1 for m in moduli)

    theta_rows: list[list[int]] = []
    for sp, m in zip(specials, moduli):
        row = list(inf_vec)
        for j, mult in sp.members:
            if j in slot:
                row[slot[j]] -= mult
        theta_rows.append([e % m for e in row])

    images = []
    for t in range(kernel.ncols):
        v = kernel.column(t)
        images.append(
            tuple(
                sum(a * b for a, b in zip(trow, v)) % m
                for trow, m in zip(theta_rows, moduli)
            )
        )
    return ThetaData(
        affine_indices=affine,
        infinity_index=arr.infinity_index,
        base_points=base,
        relation_rows=IntMatrix(rows),
        kernel_basis=kernel,
        infinity_fiber_row=tuple(inf_vec),
        special_points=specials,
        moduli=moduli,
        theta_rows=IntMatrix(theta_rows),
        kernel_images=IntMatrix.from_columns(images, nrows=len(specials)),
        conditional=classification.conditional,
    )


# -- the torsion group -------------------------------------------------------


@dataclass(frozen=True)
class TfGroup:
    """The image of the kernel inside the product of special-fiber groups.

    ``generator_images`` are representatives of the invariant-factor
    generators inside the product (entries reduced modulo the moduli),
    ``section_columns`` are kernel elements mapping onto them, and
    ``basis_classes[t]`` expresses the image of the t-th kernel basis
    vector in generator coordinates.
    """

    theta: ThetaData
    group: FinAbelianGroup
    generator_images: tuple[tuple[int, ...], ...]
    section_columns: tuple[tuple[int, ...], ...]
    basis_classes: tuple[tuple[int, ...], ...]
    conditional: bool

    @property
    def order(self) -> int:
        return self.group.order

    def elements(self) -> frozenset[tuple[int, ...]]:
        """All elements of the image, as reduced vectors in the product."""
        moduli = self.theta.moduli
        out = {(0,) * len(moduli)}
        for image, d in zip(self.generator_images, self.group.invariant_factors):
            out = {
                tuple((a + k * b) % m for a, b, m in zip(elt, image, moduli))
                for elt in out
                for k in range(d)
            }
        return frozenset(out)


def _trivial_tf(data: ThetaData) -> TfGroup:
    return TfGroup(
        theta=data,
        group=FinAbelianGroup.trivial(),
        generator_images=(),
        section_columns=(),
        basis_classes=tuple(() for _ in range(data.kernel_basis.ncols)),
        conditional=data.conditional,
    )


def _general_tf(data: ThetaData) -> TfGroup:
    r = data.kernel_basis.ncols
    if r == 0:
        return _trivial_tf(data)
    # --- Step 1: relations among the kernel images inside the product ---
    generators = [data.kernel_images.column(t) for t in range(r)]
    relations = product_relation_lattice(data.moduli, generators)
    # --- Step 2: the group and its coordinates from the Smith decomposition ---
    dec = smith_normal_form(relations)
    diag = dec.invariant_factors
    keep = [i for i in range(len(diag)) if diag[i] > 1]
    if not keep:
        return _trivial_tf(data)
    group = FinAbelianGroup(diag[i] for i in keep)
    basis_classes = tuple(
        tuple(dec.U.entry(i, t) % diag[i] for i in keep) for t in range(r)
    )
    # --- Step 3: sections of the generators through the kernel basis ---
    # U is unimodular, so the echelon form of [U | 1] is [1 | U^-1]
    inverse = echelon_rows(u + e for u, e in zip(dec.U.rows, IntMatrix.identity(r).rows))
    assert len(inverse) == r and all(row[i] == 1 for i, row in enumerate(inverse))
    sections = []
    images = []
    for i in keep:
        coeffs = [row[r + i] for row in inverse]
        section = tuple(data.kernel_basis.mul_vector(coeffs))
        sections.append(section)
        images.append(
            tuple(
                sum(a * b for a, b in zip(trow, section)) % m
                for trow, m in zip(data.theta_rows.rows, data.moduli)
            )
        )
    tf = TfGroup(
        theta=data,
        group=group,
        generator_images=tuple(images),
        section_columns=tuple(sections),
        basis_classes=basis_classes,
        conditional=data.conditional,
    )
    _verify_tf(tf)
    return tf


def _verify_tf(tf: TfGroup) -> None:
    data = tf.theta
    moduli = data.moduli
    product_order = 1
    for m in moduli:
        product_order *= m
    assert product_order % tf.group.order == 0
    for t in range(data.kernel_basis.ncols):
        acc = [0] * len(moduli)
        for c, image in zip(tf.basis_classes[t], tf.generator_images):
            for i, (e, m) in enumerate(zip(image, moduli)):
                acc[i] = (acc[i] + c * e) % m
        assert tuple(acc) == data.kernel_images.column(t)


def compute_Tf(data: ThetaData) -> TfGroup:
    """Structure of the torsion quotient carried by the pencil.

    The image is trivial when every special fiber is reduced (all moduli
    are 1), whatever the base-point fibers; otherwise it is read off the
    Smith form of the relation lattice of the kernel images inside the
    product of the special-fiber cyclic groups, and checked against them.
    """
    if all(m == 1 for m in data.moduli):
        return _trivial_tf(data)
    return _general_tf(data)


def characters_of_Tf(tf: TfGroup) -> list[tuple[QmodZ, ...]]:
    """All characters of the torsion group, trivial one first."""
    return list(tf.group.characters())


# -- lifting characters to the ambient torus ---------------------------------


@dataclass(frozen=True)
class LiftedCharacter:
    """A character of the torsion group written on the arrangement torus.

    ``rho`` assigns a root-of-unity exponent to every component of the
    arrangement, the designated infinity line included; its restriction to
    the kernel factors through the torsion group as the character that
    `lift_character` was given.
    """

    rho: TorsionCharacter
    conditional: bool


def _as_qmodz(value: QmodZ | Fraction | int) -> QmodZ:
    return value if isinstance(value, QmodZ) else QmodZ(value)


def lift_character(
    arr: Arrangement,
    classification: PencilClassification,
    tf: TfGroup,
    rho_tilde: Iterable[QmodZ | Fraction | int],
) -> LiftedCharacter:
    """Exponent vector on the ambient torus inducing a torsion character.

    The lift is made canonical fiberwise: for every base point other than
    the infinity side, the member with the smallest (multiplicity, index)
    pair gets exponent zero; whenever that member has multiplicity above one
    the remaining finite ambiguity is resolved lexicographically.  The
    exponent of the infinity line follows from the degree relation.
    """
    data = tf.theta
    affine = data.affine_indices
    slot = {j: i for i, j in enumerate(affine)}
    n = len(affine)
    factors = tf.group.invariant_factors
    values = tuple(_as_qmodz(v) for v in rho_tilde)
    if len(values) != len(factors):
        raise TorsionError(
            f"inconsistent character: expected {len(factors)} generator values, got {len(values)}"
        )
    for d, q in zip(factors, values):
        if not (d * q).is_zero():
            raise TorsionError(
                f"inconsistent character: value {q} is not killed by the generator order {d}"
            )

    # --- Step 1: particular solution of rho(v_t) = rho_tilde(theta(v_t)) ---
    r = data.kernel_basis.ncols
    chi: list[QmodZ] = []
    for t in range(r):
        acc = QmodZ(0)
        for q, c in zip(values, tf.basis_classes[t]):
            acc = acc + q * c
        chi.append(acc)
    if r:
        dec = smith_normal_form(data.kernel_basis.transpose())
        u_chi = []
        for i in range(r):
            acc = QmodZ(0)
            for t in range(r):
                acc = acc + chi[t] * dec.U.entry(i, t)
            u_chi.append(acc)
        sigma = [Fraction(0)] * n
        for i in range(r):
            d = dec.D.entry(i, i) if i < n else 0
            if d == 0:
                if not u_chi[i].is_zero():
                    raise TorsionError("inconsistent character: no lift exists")
                continue
            assert d == 1, "kernel basis lattice must be saturated"
            sigma[i] = u_chi[i].value
        exps = [
            QmodZ(sum(dec.V.entry(j, i) * sigma[i] for i in range(n)))
            for j in range(n)
        ]
    else:
        exps = [QmodZ(0)] * n

    # --- Step 2: canonical representative, one pivot per finite base point ---
    relation_rows = {
        b: row for b, row in zip(data.base_points[:-1], data.relation_rows.rows)
    }
    for b in data.base_points[:-1]:
        members = [
            (m, j) for j, m in classification.fiber_members(b) if j in slot
        ]
        if not members:
            continue
        m_piv, j_piv = min(members)
        row = relation_rows[b]
        shift = (-exps[slot[j_piv]]).value / m_piv
        exps = [e + QmodZ(shift * c) for e, c in zip(exps, row)]
        if m_piv > 1:
            candidates = []
            for k in range(m_piv):
                step = Fraction(k, m_piv)
                cand = [e + QmodZ(step * c) for e, c in zip(exps, row)]
                candidates.append(tuple(cand))
            exps = list(min(candidates, key=lambda c: tuple(e.value for e in c)))
        assert exps[slot[j_piv]].is_zero()

    # --- Step 3: exponent at infinity from the degree relation ---
    inf_exp = QmodZ(0)
    for j, e in zip(affine, exps):
        inf_exp = inf_exp - arr.components[j].degree * e
    full = [QmodZ(0)] * arr.size
    for j, e in zip(affine, exps):
        full[j] = e
    full[data.infinity_index] = inf_exp

    rho = TorsionCharacter(full)
    assert rho.satisfies_degree_relation(arr.degrees)
    for t in range(r):
        acc = QmodZ(0)
        for j, c in zip(affine, data.kernel_basis.column(t)):
            acc = acc + c * full[j]
        assert acc == chi[t]
    return LiftedCharacter(rho=rho, conditional=tf.conditional)


def epsilon_count(classification: PencilClassification, rho: TorsionCharacter) -> int:
    """Number of special points where the character is nontrivial on a member loop.

    Special points without members never count; neither do points whose
    members all carry exponent zero.  This feeds the expected first Betti
    number of a translated character.
    """
    if classification.special_points is None:
        raise TorsionError("special fiber data not computed")
    count = 0
    for sp in classification.special_points:
        if any(not rho.exponents[j].is_zero() for j, _m in sp.members):
            count += 1
    return count
