"""Torsion quotient of a pencil map and the characters it carries.

Everything here works in the affine chart obtained by deleting a designated
line of the arrangement.  First-homology classes of the complement are
written in coordinates dual to the loops around the remaining components,
so an exponent vector of length ``len(arr.affine_indices())`` always
refers to that slot order.

The pipeline is `kernel_fstar` -> `theta` -> `compute_Tf` ->
`lift_character`, the last on each nontrivial character of ``tf.group``;
`lifted_characters` runs it.  The pencil's classification is the only
input: `kernel_fstar` and `theta` take it and read the fiber relation
rows from `pullback_subtorus`, and the later stages read it as
``ThetaData.classification``.  `compute_Tf` has one algorithm: the relation
lattice of the kernel images inside the product of the special-fiber
cyclic groups, with a trivial exit when every special fiber is reduced.

Characters enter and leave as Fractions in [0, 1), one per invariant-factor
generator or per component.  Inside `lift_character` an exponent is an
integer numerator a modulo a common denominator N, standing for a/N; N
starts at the largest invariant factor and grows by each pivot
multiplicity, and the result becomes Fractions only once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .arrangement import TorsionCharacter, pullback_subtorus
from .exactalg import (
    FinAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    echelon_rows,
    integer_kernel_basis,
    product_relation_lattice,
    smith_normal_form,
)
from .pencil import PencilClassification

__all__ = [
    "TorsionError",
    "ThetaData",
    "TfGroup",
    "kernel_fstar",
    "theta",
    "compute_Tf",
    "lift_character",
    "lifted_characters",
    "epsilon_count",
]


class TorsionError(ValueError):
    """Raised when torsion data is requested from unsuitable input."""


# -- affine chart ------------------------------------------------------------


def _relation_rows(classification: PencilClassification) -> IntMatrix:
    """Fiber relation rows of the affine chart, one per base point but the last.

    A row is that base point's member multiplicities minus those of the
    last base point in canonical order, the one placed at infinity on the
    target line, on the affine components: a column of `pullback_subtorus`
    restricted to them.  With a single base point there are none.
    """
    arr = classification.arrangement
    if arr.infinity_index is None:
        raise TorsionError("no line designated as infinity")
    if arr.components[arr.infinity_index].degree != 1:
        raise TorsionError("designated infinity component is not a line")
    if not classification.base_points:
        raise TorsionError("need at least one fully-arrangement fiber")
    if classification.k == 1:
        return IntMatrix([])
    affine = arr.affine_indices()
    columns = pullback_subtorus(classification).columns()
    return IntMatrix([[c[j] for j in affine] for c in columns])


def _affine_chart(classification: PencilClassification) -> tuple[dict[int, int], list[int]]:
    """Slot of each affine component and the member vector of the infinity side."""
    affine = classification.arrangement.affine_indices()
    slot = {j: i for i, j in enumerate(affine)}
    inf_vec = [0] * len(affine)
    for j, mult in classification.fiber_members(classification.base_points[-1]):
        if j in slot:
            inf_vec[slot[j]] = mult
    return slot, inf_vec


def kernel_fstar(classification: PencilClassification) -> IntMatrix:
    """Basis of the kernel of the map induced by the pencil on first homology.

    Coordinates run over the affine components in slot order; the returned
    matrix holds one basis vector per column.  With a single base point the
    map on homology is zero and the kernel is everything.  Otherwise f_* is
    dual to the pullback f^*, so its rows are `_relation_rows`.
    """
    rows = _relation_rows(classification)
    if not rows.rows:
        return IntMatrix.identity(len(classification.arrangement.affine_indices()))
    return integer_kernel_basis(rows)


# -- theta data --------------------------------------------------------------


@dataclass(frozen=True)
class ThetaData:
    """Target data of the torsion computation.

    ``classification`` is the pencil's, with its special points detected;
    its arrangement fixes the affine chart.  ``relation_rows`` has one row
    per base point but the last.  ``theta_rows`` has one row per special
    point, giving the value of the corresponding cyclic coordinate on each
    affine loop, reduced modulo that point's new-part multiplicity.
    ``kernel_images`` packs the images of the kernel basis vectors as
    columns.
    """

    classification: PencilClassification
    relation_rows: IntMatrix
    kernel_basis: IntMatrix
    moduli: tuple[int, ...]
    theta_rows: IntMatrix
    kernel_images: IntMatrix


def theta(classification: PencilClassification, kernel: IntMatrix) -> ThetaData:
    """Connecting map from the pencil kernel into the special-fiber cyclic groups.

    Requires `detect_special_fibers` to have run: the classification must
    carry its special-point list.  The value of the coordinate at a special
    point on a homology class is the infinity-side weighted sum minus the
    weighted sum over the members sitting inside that special fiber, taken
    modulo the new-part multiplicity.
    """
    if classification.special_points is None:
        raise TorsionError("special fiber data not computed")
    rows = _relation_rows(classification)
    slot, inf_vec = _affine_chart(classification)
    specials = classification.special_points
    moduli = tuple(sp.m_dprime for sp in specials)
    if any(m < 1 for m in moduli):
        raise TorsionError("special fiber multiplicities must be positive")

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
        classification=classification,
        relation_rows=rows,
        kernel_basis=kernel,
        moduli=moduli,
        theta_rows=IntMatrix(theta_rows),
        kernel_images=IntMatrix.from_columns(images, nrows=len(specials)),
    )


# -- the torsion group -------------------------------------------------------


@dataclass(frozen=True)
class TfGroup:
    """The image of the kernel inside the product of special-fiber groups.

    ``generator_images`` are representatives of the invariant-factor
    generators inside the product (entries reduced modulo the moduli),
    ``section_columns`` are kernel elements mapping onto them, and
    ``basis_classes[t]`` expresses the image of the t-th kernel basis
    vector in generator coordinates.  ``kernel_smith`` is computed on first
    use and then shared by every character lifted through this group.
    """

    theta: ThetaData
    group: FinAbelianGroup
    generator_images: tuple[tuple[int, ...], ...]
    section_columns: tuple[tuple[int, ...], ...]
    basis_classes: tuple[tuple[int, ...], ...]

    @cached_property
    def kernel_smith(self) -> SmithDecomposition:
        """Smith decomposition of the transposed kernel basis."""
        return smith_normal_form(self.theta.kernel_basis.transpose())


def _trivial_tf(data: ThetaData) -> TfGroup:
    return TfGroup(
        theta=data,
        group=FinAbelianGroup.trivial(),
        generator_images=(),
        section_columns=(),
        basis_classes=tuple(() for _ in range(data.kernel_basis.ncols)),
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
    if len(inverse) != r or any(row[i] != 1 for i, row in enumerate(inverse)):
        raise TorsionError("Smith transform of the relation lattice is not unimodular")
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
    )
    _verify_tf(tf)
    return tf


def _verify_tf(tf: TfGroup) -> None:
    data = tf.theta
    moduli = data.moduli
    product_order = 1
    for m in moduli:
        product_order *= m
    if product_order % tf.group.order != 0:
        raise TorsionError("torsion group order does not divide the product order")
    for t in range(data.kernel_basis.ncols):
        acc = [0] * len(moduli)
        for c, image in zip(tf.basis_classes[t], tf.generator_images):
            for i, (e, m) in enumerate(zip(image, moduli)):
                acc[i] = (acc[i] + c * e) % m
        if tuple(acc) != data.kernel_images.column(t):
            raise TorsionError("generator coordinates miss a kernel image")


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


# -- lifting characters to the ambient torus ---------------------------------


def lift_character(tf: TfGroup, rho_tilde: Iterable[Fraction | int]) -> TorsionCharacter:
    """Exponent vector on the ambient torus inducing a torsion character.

    The result assigns a root-of-unity exponent to every component of the
    arrangement, the designated infinity line included; its restriction to
    the kernel factors through the torsion group as ``rho_tilde``.

    The lift is made canonical fiberwise: for every base point other than
    the infinity side, the member with the smallest (multiplicity, index)
    pair gets exponent zero; whenever that member has multiplicity above one
    the remaining finite ambiguity is resolved lexicographically.  The
    exponent of the infinity line follows from the degree relation.  All
    work runs on integer numerators over one denominator N.
    """
    data = tf.theta
    classification = data.classification
    arr = classification.arrangement
    affine = arr.affine_indices()
    slot = {j: i for i, j in enumerate(affine)}
    n = len(affine)
    factors = tf.group.invariant_factors
    values = [Fraction(v) % 1 for v in rho_tilde]
    if len(values) != len(factors):
        raise TorsionError(
            f"inconsistent character: expected {len(factors)} generator values, got {len(values)}"
        )
    for d, q in zip(factors, values):
        if (d * q).denominator != 1:
            raise TorsionError(
                f"inconsistent character: value {q} is not killed by the generator order {d}"
            )
    # the factors form a divisibility chain, so every value is a/N0
    N0 = factors[-1] if factors else 1
    numerators = [int(q * N0) for q in values]

    # --- Step 1: particular solution of rho(v_t) = rho_tilde(theta(v_t)) ---
    N = N0
    r = data.kernel_basis.ncols
    chi = [
        sum(a * c for a, c in zip(numerators, tf.basis_classes[t])) % N for t in range(r)
    ]
    exps = [0] * n
    if r:
        dec = tf.kernel_smith
        sigma = [0] * n
        for i in range(r):
            u_chi = sum(dec.U.entry(i, t) * chi[t] for t in range(r)) % N
            d = dec.D.entry(i, i) if i < n else 0
            if d == 0:
                if u_chi:
                    raise TorsionError("inconsistent character: no lift exists")
                continue
            if d != 1:
                raise TorsionError("kernel basis lattice must be saturated")
            sigma[i] = u_chi
        exps = [sum(dec.V.entry(j, i) * sigma[i] for i in range(n)) % N for j in range(n)]

    # --- Step 2: canonical representative, one pivot per finite base point ---
    # over N * m the pivot exponent p / N becomes p * m, and the shift by
    # -p / (N * m) times the relation row zeroes it; the m lifts of that
    # shift differ by k / m = k * N / (N * m) times the row
    for b, row in zip(classification.base_points[:-1], data.relation_rows.rows):
        members = [
            (m, j) for j, m in classification.fiber_members(b) if j in slot
        ]
        if not members:
            continue
        m_piv, j_piv = min(members)
        shift = -exps[slot[j_piv]]
        step = N
        N *= m_piv
        candidates = (
            tuple((a * m_piv + (shift + k * step) * c) % N for a, c in zip(exps, row))
            for k in range(m_piv)
        )
        exps = list(min(candidates))
        if exps[slot[j_piv]]:
            raise TorsionError("canonical lift left a nonzero pivot exponent")

    # --- Step 3: exponent at infinity from the degree relation ---
    full = [0] * arr.size
    for j, e in zip(affine, exps):
        full[j] = e
    full[arr.infinity_index] = -sum(
        arr.components[j].degree * e for j, e in zip(affine, exps)
    ) % N

    if sum(d * e for d, e in zip(arr.degrees, full)) % N:
        raise TorsionError("lifted character breaks the degree relation")
    scale = N // N0
    for t in range(r):
        acc = sum(c * full[j] for j, c in zip(affine, data.kernel_basis.column(t)))
        if (acc - chi[t] * scale) % N:
            raise TorsionError("lifted character misses its value on the kernel")
    return TorsionCharacter(Fraction(a, N) for a in full)


def lifted_characters(
    classification: PencilClassification,
) -> tuple[TfGroup, list[TorsionCharacter]]:
    """T(f) of the pencil and the lift of each of its nontrivial characters.

    The one path through the stages; the classification must carry its
    special points (`detect_special_fibers`).
    """
    tf = compute_Tf(theta(classification, kernel_fstar(classification)))
    return tf, [lift_character(tf, chi) for chi in tf.group.characters() if any(chi)]


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
        if any(rho.exponents[j] != 0 for j, _m in sp.members):
            count += 1
    return count
