"""The deletion oracle: the catalog of A minus one component lies inside the catalog of A.

Let H be a component of A.  M(A) is M(A - H) minus H, which has real
codimension 2, so pi_1(M(A)) maps onto pi_1(M(A - H)), and for an
epimorphism inflation on H^1 is injective (the inflation-restriction
sequence).  So V_1(A - H) embeds in V_1(A) as the characters that are 1 on
H: a component rho'*T' of the smaller catalog, given a zero exponent row
and a zero torsion exponent at H, lies in some component rho*T of the
larger one.  This holds for curve arrangements too, and checks translated
records against records found by other stages of another catalog.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, example, given, settings

from arrfixtures import (
    F,
    a2,
    b3,
    b3_plus_one,
    ceva2,
    deleted_b3,
    deleted_b3_plus,
    deleted_b3_plus_a_line,
    ex2,
)
from curvepencils.arrangement import Arrangement, ExponentSubtorus, TorsionCharacter
from curvepencils.catalog import Catalog, ComponentRecord, build_catalog
from curvepencils.exactalg import echelon_rows

# a record of A - H lies in A's catalog only if its containing pencil is
# within A's caps; a miss at the default caps is retried at these
LARGER_CAPS = {"max_multiplicity": 3, "max_blocks": 4}


def deletion(arr: Arrangement, h: int) -> Arrangement:
    """A without component h, keeping the infinity line unless it is h."""
    components = [c for j, c in enumerate(arr.components) if j != h]
    infinity = arr.infinity_index
    if infinity is not None:
        infinity = None if infinity == h else infinity - (infinity > h)
    return Arrangement(components, infinity)


def extended(record: ComponentRecord, h: int) -> tuple[ExponentSubtorus, TorsionCharacter]:
    """The record's subtorus and character with a zero row and exponent at h."""
    rows = list(record.subtorus.rows)
    rows.insert(h, (0,) * record.subtorus.dimension)
    exponents = list(record.torsion.exponents)
    exponents.insert(h, 0)
    return ExponentSubtorus(tuple(rows)), TorsionCharacter(exponents)


def lies_in(subtorus: ExponentSubtorus, rho: TorsionCharacter, record: ComponentRecord) -> bool:
    """Whether rho*subtorus lies in the record's translated subtorus.

    The subtorus lies in the record's when its columns do not raise the
    rank of the record's, and the translate lies in it when the two
    characters differ by a point of the record's subtorus: an all-zero coset.
    """
    target = record.subtorus
    rank = len(echelon_rows(target.columns() + subtorus.columns()))
    if rank != len(target.saturated_key()):
        return False
    difference = TorsionCharacter(a - b for a, b in zip(rho.exponents, record.torsion.exponents))
    return not any(target.coset(difference))


def deletion_records(arr: Arrangement) -> list[tuple[int, ComponentRecord]]:
    """(h, record) for every record of every one-component deletion A - H,
    H the component h."""
    return [
        (h, record) for h in range(arr.size) for record in build_catalog(deletion(arr, h)).records
    ]


def misses(
    pairs: list[tuple[int, ComponentRecord]], records: tuple[ComponentRecord, ...]
) -> list[tuple[int, ComponentRecord]]:
    """The pairs whose extended record lies in none of the records."""
    return [
        (h, record)
        for h, record in pairs
        if not any(lies_in(*extended(record, h), big) for big in records)
    ]


def assert_deletions_lie_in(name: str, arr: Arrangement, catalog: Catalog) -> list:
    """Check every one-component deletion of arr against its catalog; return
    the (h, record) pairs checked.

    A miss counts as a defect only if it persists at `LARGER_CAPS`.
    """
    pairs = deletion_records(arr)
    missed = misses(pairs, catalog.records)
    if missed:
        missed = misses(missed, build_catalog(arr, **LARGER_CAPS).records)
    assert not missed, "; ".join(
        f"{name} minus {arr.labels[h]}: {record.describe()} lies in no record of the "
        f"{name} catalog at the default caps or at {LARGER_CAPS}"
        for h, record in missed
    )
    return pairs


# arrangement, the session catalog of it if there is one, and how many
# records and translated records its deletions carry
CASES = {
    "deletedB3": (deleted_b3, "db3_catalog", 48, 0),
    "a2": (a2, "a2_catalog", 48, 0),
    "ceva2": (ceva2, None, 12, 0),
    # deleting L1, L2 or L3 leaves a deleted B3, whose translated torus
    # lies in a 2-dimensional global record of b3
    "b3": (b3, None, 87, 3),
    # b3 and x + y - z: ten lines, no infinity line; its deletions carry
    # the translated tori of the 9-line arrangements inside it
    "b3plus1": (b3_plus_one, None, 157, 9),
    # deleting C1 leaves the candidate translated torus of the pencil
    # C2 + C3 | C4, which lies in the global record 2*C1 | C2 + C3 | C4
    "ex2": (ex2, "ex2_catalog", 1, 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_one_component_deletion_lies_in_the_catalog(request, name):
    make, shared, count, translated = CASES[name]
    arr = make()
    catalog = request.getfixturevalue(shared) if shared else build_catalog(arr)
    pairs = assert_deletions_lie_in(name, arr, catalog)
    assert len(pairs) == count
    assert sum(record.kind == "translated" for _, record in pairs) == translated


# x + y + z keeps the translated torus of deleted B3 translated in the
# larger catalog, so this example checks a translated record of A against
# its deletions: the one of A - L9 among them
WITH_TRANSLATED = F("x + y + z")


# an example costs a 9-line catalog and nine 8-line ones, about 2 s, so
# shrinking a failure would rerun it for minutes; the assertion names the
# arrangement and the record instead
@settings(max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(deleted_b3_plus_a_line(3))
@example(deleted_b3_plus(WITH_TRANSLATED))
def test_every_deletion_of_deleted_b3_plus_a_line_lies_in_its_catalog(arr):
    catalog = build_catalog(arr)
    line = arr.components[-1].form
    if line == WITH_TRANSLATED:
        assert any(record.kind == "translated" for record in catalog.records)
    assert_deletions_lie_in(f"deleted B3 + {line}", arr, catalog)
