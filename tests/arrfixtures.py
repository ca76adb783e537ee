"""Arrangements and pencils shared across the test suite."""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from curvepencils.arrangement import Arrangement, CurveComponent
from curvepencils.pencil import Pencil
from curvepencils.polyform import TernaryForm


def F(text: str) -> TernaryForm:
    return TernaryForm.parse(text)


def lines(*texts: str, prefix: str = "L", infinity: int | None = None) -> Arrangement:
    comps = [CurveComponent(f"{prefix}{i+1}", F(t)) for i, t in enumerate(texts)]
    return Arrangement(comps, infinity)


def deleted_b3() -> Arrangement:
    return lines(
        "x", "x - z", "y", "y - z", "x - y - z", "x - y", "x - y + z", "z",
        infinity=7,
    )


def deleted_b3_plus(form: TernaryForm) -> Arrangement:
    """Deleted B3 and one more line, named L9."""
    base = deleted_b3()
    return Arrangement([*base.components, CurveComponent("L9", form)], base.infinity_index)


@st.composite
def deleted_b3_plus_a_line(draw, bound: int) -> Arrangement:
    """`deleted_b3_plus` a line with coefficients in [-bound, bound] that is not one of its lines."""
    a, b, c = draw(st.tuples(*[st.integers(-bound, bound)] * 3).filter(any))
    form = TernaryForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
    assume(not any(form.proportional_to(cp.form) for cp in deleted_b3().components))
    return deleted_b3_plus(form)


def fw_pencil() -> Pencil:
    P = F("x") * F("y - z") * F("x - y - z").power(2)
    Q = F("x - z") * F("y") * F("x - y + z").power(2)
    return Pencil(P, Q)


def braid_pencil() -> Pencil:
    return Pencil(F("x") * F("x - y - z"), F("x - z") * F("x - y"))


def b3() -> Arrangement:
    return lines("x", "y", "z", "x - y", "x + y", "x - z", "x + z", "y - z", "y + z")


def b3_plus_one() -> Arrangement:
    """b3 and the line x + y - z, named L10; no infinity line."""
    return lines(
        "x", "y", "z", "x - y", "x + y", "x - z", "x + z", "y - z", "y + z", "x + y - z"
    )


def b3_plus_two() -> Arrangement:
    """`b3_plus_one` and the line x - y + 2z, named L11; no infinity line."""
    return lines(
        "x", "y", "z", "x - y", "x + y", "x - z", "x + z", "y - z", "y + z", "x + y - z",
        "x - y + 2*z",
    )


def b3_pencil() -> Pencil:
    return Pencil(F("x^2*z^2 - y^2*z^2"), F("x^2*y^2 - x^2*z^2"))


def ceva2() -> Arrangement:
    return lines("x - y", "x + y", "y - z", "y + z", "x - z", "x + z")


def ceva2_pencil() -> Pencil:
    return Pencil(F("x^2 - y^2"), F("y^2 - z^2"))


def ceva3() -> Arrangement:
    comps = [
        CurveComponent("C1", F("x - y")),
        CurveComponent("C2", F("x^2 + x*y + y^2")),
        CurveComponent("C3", F("y - z")),
        CurveComponent("C4", F("y^2 + y*z + z^2")),
        CurveComponent("C5", F("x - z")),
        CurveComponent("C6", F("x^2 + x*z + z^2")),
    ]
    return Arrangement(comps)


def ceva3_pencil() -> Pencil:
    return Pencil(F("x^3 - y^3"), F("y^3 - z^3"))


def a2() -> Arrangement:
    return lines(
        "x", "y", "x - y", "x + y", "x - z", "x + z", "y - z", "y + z",
        prefix="A", infinity=2,
    )


def a2_pencil() -> Pencil:
    return Pencil(F("x^2*y^2 - x^2*z^2"), F("x^2*y^2 - y^2*z^2"))


def a3() -> Arrangement:
    comps = [
        CurveComponent("A1", F("x")),
        CurveComponent("A2", F("y")),
        CurveComponent("A3", F("x - y")),
        CurveComponent("A4", F("x^2 + x*y + y^2")),
        CurveComponent("A5", F("x - z")),
        CurveComponent("A6", F("x^2 + x*z + z^2")),
        CurveComponent("A7", F("y - z")),
        CurveComponent("A8", F("y^2 + y*z + z^2")),
    ]
    return Arrangement(comps, 2)


def a3_pencil() -> Pencil:
    P = F("x").power(3) * (F("y").power(3) - F("z").power(3))
    Q = F("y").power(3) * (F("x").power(3) - F("z").power(3))
    return Pencil(P, Q)


def exfin3() -> Arrangement:
    comps = [
        CurveComponent("L1", F("x - y")),
        CurveComponent("L2", F("x + y")),
        CurveComponent("L3", F("x - z")),
        CurveComponent("L4", F("x + z")),
        CurveComponent("L5", F("y - z")),
        CurveComponent("L6", F("y + z")),
        CurveComponent("Q1", F("2*x^2*y^2 - x^2*z^2 - y^2*z^2")),
        CurveComponent("Q2", F("x^2*y^2 - 2*x^2*z^2 + y^2*z^2")),
    ]
    return Arrangement(comps, 0)


def exfin3_pencil() -> Pencil:
    return a2_pencil()


def ex2() -> Arrangement:
    comps = [
        CurveComponent("C1", F("x")),
        CurveComponent("C2", F("y")),
        CurveComponent("C3", F("z")),
        CurveComponent("C4", F("x^2 - y*z")),
    ]
    return Arrangement(comps)


def ex2_pencil() -> Pencil:
    return Pencil(F("x^2"), F("y*z"))


def triangle() -> Arrangement:
    return lines("x", "y", "z", prefix="T")


def four_generic_lines() -> Arrangement:
    return lines("x", "y", "z", "x + y + z", prefix="G")


def double_line_pencil() -> tuple[Arrangement, Pencil]:
    """Conic pencil with one non-reduced fiber away from the arrangement.

    The fiber over (1:1) is a double line carrying no arrangement component,
    and the fiber over (1:2) factors as x*y, so every component is a fiber
    member and the classification is minimal.
    """
    comps = [
        CurveComponent("L1", F("x")),
        CurveComponent("L2", F("y")),
        CurveComponent("C1", F("x*y - z^2")),
        CurveComponent("C2", F("x*y - 2*z^2")),
    ]
    return Arrangement(comps, 0), Pencil(F("x*y - z^2"), F("x*y - 2*z^2"))


def random_line_pencil(rng) -> tuple[Arrangement, Pencil]:
    """Four pairwise non-proportional lines, pencil spanned by two products.

    Both base fibers are reduced by construction; whatever the interior
    fibers do is up to the draw.
    """
    from curvepencils.pencil import classify, PencilError

    while True:
        forms = []
        while len(forms) < 4:
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            if not any(coeffs):
                continue
            form = F("x").scale(coeffs[0]) + F("y").scale(coeffs[1]) + F("z").scale(coeffs[2])
            if any(form.proportional_to(other) for other in forms):
                continue
            forms.append(form)
        try:
            pencil = Pencil(forms[0] * forms[1], forms[2] * forms[3])
        except PencilError:
            continue
        arr = Arrangement(
            [CurveComponent(f"R{i + 1}", f) for i, f in enumerate(forms)], 0
        )
        try:
            classification = classify(arr, pencil)
        except PencilError:
            continue  # a line dividing both products
        if len(classification.base_points) != 2:
            continue
        return arr, pencil


def signed_permutation(form: TernaryForm, perm, signs) -> TernaryForm:
    """The form after the substitution x_i -> signs[i] * x_perm[i]."""
    terms = {}
    for exps, coef in form.terms.items():
        image = [0, 0, 0]
        for i, e in enumerate(exps):
            image[perm[i]] += e
            coef *= signs[i] ** e
        terms[tuple(image)] = coef
    return TernaryForm(terms)


def random_special_pencil(rng, arr: Arrangement, pencil: Pencil) -> tuple[Arrangement, Pencil]:
    """A seeded signed permutation of the coordinates applied to a pencil.

    The change is unimodular, so fiber multiplicities, and with them the
    special fibers and their m'', carry over from the given pencil.
    """
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    comps = [
        CurveComponent(c.label, signed_permutation(c.form, perm, signs)) for c in arr.components
    ]
    moved = Pencil(*(signed_permutation(f, perm, signs) for f in (pencil.P, pencil.Q)))
    return Arrangement(comps, arr.infinity_index), moved
