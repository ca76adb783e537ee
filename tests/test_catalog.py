"""Catalog records: local and global components plus translated subtori."""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st

from arrfixtures import (
    SMALL_VECTORS,
    F,
    a2,
    a3,
    b3,
    b3_plus_one,
    b3_plus_two,
    ceva2,
    ceva3,
    deleted_b3,
    deleted_b3_plus_a_line,
    ex2,
    exfin3,
    fw_pencil,
    moved,
    triangle,
    unimodular_matrices,
)
from drawref import Reference, blocks_by_degree
from latticeref import lattice_key, saturate_lattice
from curvepencils import arrangement as arrangement_module
from curvepencils import catalog as catalog_module
from curvepencils import exactalg as exactalg_module
from curvepencils import pencil as pencil_module
from curvepencils import resonance as resonance_module
from curvepencils import torsion as torsion_module
from curvepencils.arrangement import (
    Arrangement,
    CurveComponent,
    ExponentSubtorus,
    TorsionCharacter,
    meeting_points,
)
from curvepencils.catalog import (
    _SCREEN_PRIMES,
    CatalogError,
    ComponentRecord,
    _block_products,
    _candidate_parameters,
    _integer_restrictions,
    _probe_candidates,
    _probe_lines,
    _repeated_root_at,
    _SweepTables,
    build_catalog,
)
from curvepencils.exactalg import (
    coeffs_derivative,
    coeffs_evaluate,
    coeffs_mul,
    primitive_vector,
)
from curvepencils.pencil import (
    Pencil,
    _Block,
    _SearchTables,
    classify,
    detect_special_fibers,
    iter_block_pairs,
)
from curvepencils.polyform import TernaryForm
from curvepencils.torsion import lifted_characters

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"

W_FLAG = "certified (m'(c) = 1 for all c in C(f))"
NO_CUP = "candidate (no cup-product structure on this arrangement)"


def of_kind(catalog, kind):
    return tuple(r for r in catalog.records if r.kind == kind)


def fiber_partition(record):
    cl = record.source
    labels = cl.arrangement.labels
    return frozenset(
        frozenset(labels[j] for j, _ in cl.fiber_members(b)) for b in cl.base_points
    )


# -- deleted B3 -----------------------------------------------------------------


def test_deleted_b3_shape(db3_catalog):
    assert db3_catalog.warnings == ()
    assert len(of_kind(db3_catalog, "local")) == 7
    assert len(of_kind(db3_catalog, "global")) == 5
    assert len(of_kind(db3_catalog, "translated")) == 1
    # deterministic order: locals by point, then globals, then translated
    assert [r.kind for r in db3_catalog.records] == ["local"] * 7 + [
        "global"
    ] * 5 + ["translated"]


def test_deleted_b3_local_records(db3_catalog):
    locals_ = of_kind(db3_catalog, "local")
    assert [str(r.source.point) for r in locals_] == [
        "(0:0:1)",
        "(0:1:0)",
        "(0:1:1)",
        "(1:0:0)",
        "(1:0:1)",
        "(1:1:0)",
        "(1:1:1)",
    ]
    assert [r.dimension for r in locals_] == [2, 2, 2, 2, 2, 3, 2]
    for rec in locals_:
        assert rec.flags == ("coordinate component", "certified")
        assert rec.torsion.is_trivial()
        assert rec.subtorus.dimension == rec.dimension
        assert rec.expected_generic_h1 == rec.dimension - 1


def test_deleted_b3_global_partitions(db3_catalog):
    globals_ = of_kind(db3_catalog, "global")
    expected = {
        frozenset({frozenset({"L1", "L5"}), frozenset({"L2", "L6"}), frozenset({"L3", "L8"})}),
        frozenset({frozenset({"L2", "L8"}), frozenset({"L3", "L6"}), frozenset({"L4", "L5"})}),
        frozenset({frozenset({"L1", "L4"}), frozenset({"L2", "L3"}), frozenset({"L6", "L8"})}),
        frozenset({frozenset({"L1", "L6"}), frozenset({"L2", "L7"}), frozenset({"L4", "L8"})}),
        frozenset({frozenset({"L1", "L8"}), frozenset({"L3", "L7"}), frozenset({"L4", "L6"})}),
    }
    assert {fiber_partition(r) for r in globals_} == expected
    for rec in globals_:
        assert rec.dimension == 2 and rec.subtorus.dimension == 2
        assert rec.flags == ("coordinate component", "certified")
        assert rec.expected_generic_h1 == 1
    # the six triple-point partitions found by the search collapse onto the
    # local records, so local and global subtori never repeat
    keys = [r.subtorus.saturated_key() for r in db3_catalog.records[:12]]
    assert len(set(keys)) == 12


def test_deleted_b3_translated_component(db3_catalog):
    (rec,) = of_kind(db3_catalog, "translated")
    assert rec.dimension == 1
    assert rec.source_string() == "L1 + L4 + 2*L5 | L2 + L3 + 2*L7"
    assert rec.torsion.value_strings() == ("1", "-1", "-1", "1", "1", "-1", "1", "-1")
    assert rec.subtorus.monomial_strings() == (
        "t",
        "t^-1",
        "t^-1",
        "t",
        "t^2",
        "1",
        "t^-2",
        "1",
    )
    assert rec.flags == ("translated coordinate component", W_FLAG)
    assert rec.certification == W_FLAG
    assert rec.witness == "L6"
    assert rec.expected_generic_h1 == 1
    assert "witness L6" in rec.describe()
    assert any(rec.subtorus.coset(rec.torsion))


def _lattice_membership_oracle(subtorus, character):
    # the torsion point lies on the subtorus iff its scaled exponent vector
    # lies in the saturated exponent lattice plus order * Z^n
    order = lcm(*(e.denominator for e in character.exponents))
    if order == 1:
        return True
    size = subtorus.size
    scaled = [int(e * order) for e in character.exponents]
    cols = [list(col) for col in saturate_lattice(subtorus.columns(), size)]
    cols += [[order if i == j else 0 for i in range(size)] for j in range(size)]
    return lattice_key(cols + [scaled], size) == lattice_key(cols, size)


def _random_torsion_point(rng, rows, size, den):
    """A torsion point of order dividing den, on the subtorus half the time."""
    if rng.randrange(2):
        # a torsion point of the subtorus: t_i = e(k_i / den)
        params = [Fraction(rng.randrange(den), den) for _ in range(len(rows[0]))]
        return [sum(e * t for e, t in zip(row, params)) for row in rows]
    return [Fraction(rng.randrange(den), den) for _ in range(size)]


def test_subtorus_keys_match_lattice_oracles():
    # `saturated_key` and `coset` against the Smith/Hermite oracles of
    # `exactalg` on random integer column sets: equal keys iff equal
    # saturated lattices, an all-zero coset iff the point lies on the
    # subtorus, and equal cosets iff the two points differ by one
    rng = random.Random(4417)
    inside = outside = same_span = same_coset = 0
    for _ in range(300):
        size = rng.randint(2, 5)
        dim = rng.randint(1, size - 1)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(size))
        subtorus = ExponentSubtorus(rows)
        # a second column set: an integer recombination of the first (same
        # span unless it drops rank) or a fresh one
        if rng.randrange(2):
            mix = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
            other_rows = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in mix) for row in rows
            )
        else:
            other_rows = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(size))
        other = ExponentSubtorus(other_rows)
        oracle = [
            lattice_key(saturate_lattice(sub.columns(), size), size) for sub in (subtorus, other)
        ]
        assert (subtorus.saturated_key() == other.saturated_key()) == (oracle[0] == oracle[1])
        same_span += oracle[0] == oracle[1]

        den = rng.choice((2, 3, 4, 6))
        exponents = _random_torsion_point(rng, rows, size, den)
        character = TorsionCharacter(exponents)
        expected = _lattice_membership_oracle(subtorus, character)
        assert (not any(subtorus.coset(character))) == expected, (rows, exponents)
        inside += expected
        outside += not expected

        shift = TorsionCharacter(_random_torsion_point(rng, rows, size, den))
        second = TorsionCharacter(a + b for a, b in zip(character.exponents, shift.exponents))
        difference = TorsionCharacter(
            a - b for a, b in zip(character.exponents, second.exponents)
        )
        expected = _lattice_membership_oracle(subtorus, difference)
        assert (subtorus.coset(character) == subtorus.coset(second)) == expected
        same_coset += expected
    assert inside > 100 and outside > 100
    assert 50 < same_span < 250 and 100 < same_coset < 200


# -- small arrangements -----------------------------------------------------------


def test_triangle_catalog_is_empty(triangle_catalog):
    assert triangle_catalog.records == ()
    assert triangle_catalog.warnings == (
        "no designated infinity line; torsion sweep uses T1",
    )


def test_ex2_single_global(ex2_catalog):
    assert ex2_catalog.warnings == (
        "no designated infinity line; torsion sweep uses C1",
    )
    (rec,) = ex2_catalog.records
    assert rec.kind == "global" and rec.dimension == 2
    assert rec.source_string() == "2*C1 | C2 + C3 | C4"
    assert rec.flags == ("essential", "certified")
    # inside the degree-relation torus the subtorus is cut out by the single
    # character with exponents (1, 2, 0, 2)
    assert rec.subtorus.perp_lattice_key() == lattice_key([[1, 1, 1, 2], [1, 2, 0, 2]], 4)


def test_ex2_catalog_deterministic(ex2_catalog):
    again = build_catalog(ex2())
    assert again.to_json() == ex2_catalog.to_json()


# -- full A2 ----------------------------------------------------------------------


def test_a2_catalog_shape(a2_catalog):
    assert len(of_kind(a2_catalog, "local")) == 7
    assert len(of_kind(a2_catalog, "global")) == 5
    dims = {str(r.source.point): r.dimension for r in of_kind(a2_catalog, "local")}
    assert dims["(0:0:1)"] == 3
    assert sorted(dims.values()) == [2, 2, 2, 2, 2, 2, 3]


def test_a2_translated_component(a2_catalog):
    (rec,) = of_kind(a2_catalog, "translated")
    assert rec.dimension == 1
    assert rec.source_string() == "2*A2 + A5 + A6 | 2*A1 + A7 + A8"
    assert rec.torsion.value_strings() == ("1", "1", "-1", "-1", "1", "1", "-1", "-1")
    assert rec.flags == ("translated coordinate component", W_FLAG)
    assert rec.witness == "A3"
    assert rec.expected_generic_h1 == 1


# -- a curve arrangement ------------------------------------------------------------


def test_exfin3_catalog_shape(exfin3_catalog):
    assert len(of_kind(exfin3_catalog, "local")) == 4
    (glob,) = of_kind(exfin3_catalog, "global")
    assert fiber_partition(glob) == frozenset(
        {frozenset({"L1", "L2"}), frozenset({"L3", "L4"}), frozenset({"L5", "L6"})}
    )
    assert len(of_kind(exfin3_catalog, "translated")) == 7


def test_exfin3_translated_candidates(exfin3_catalog):
    records = of_kind(exfin3_catalog, "translated")
    for rec in records:
        assert rec.dimension == 1
        assert rec.source_string() == "Q1 | Q2"
        assert rec.certification == NO_CUP and rec.flags[-1] == NO_CUP
        assert rec.expected_generic_h1 == rec.torsion.value_strings()[:6].count("-1") // 2
    # one character per nontrivial class of (Z/2)^3; epsilon counts the
    # fibers whose members it detects
    assert sorted(r.expected_generic_h1 for r in records) == [1, 1, 1, 2, 2, 2, 3]
    values = {r.torsion.value_strings() for r in records}
    assert ("-1", "-1", "-1", "-1", "-1", "-1", "1", "-1") in values
    full = next(
        r
        for r in records
        if r.torsion.value_strings() == ("-1", "-1", "-1", "-1", "-1", "-1", "1", "-1")
    )
    assert full.flags == ("translated coordinate component", NO_CUP)
    assert full.witness == "L1"
    mixed = next(
        r
        for r in records
        if r.torsion.value_strings() == ("1", "1", "1", "1", "-1", "-1", "1", "-1")
    )
    assert mixed.flags == ("coordinate component", "translated coordinate component", NO_CUP)
    assert mixed.witness == "L5"


# -- golden catalog documents -------------------------------------------------------


@pytest.mark.parametrize(
    "golden,catalog",
    [
        ("catalog_deletedB3.json", "db3_catalog"),
        ("catalog_a2.json", "a2_catalog"),
        ("catalog_exfin3.json", "exfin3_catalog"),
    ],
)
def test_catalog_json_matches_golden(request, golden, catalog):
    doc = request.getfixturevalue(catalog).to_json()
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == (GOLDEN / golden).read_text()


def test_three_conic_catalog():
    # C = A + B, so the pencil span(A, B) has three full fibers; the vote
    # points of the search must lie on their conics to see it
    A = F("-2*x^2 - x*y + x*z - y*z + z^2")
    B = F("x^2 + 2*x*y + x*z + 3*y*z - 2*z^2")
    arr = Arrangement([CurveComponent(label, form) for label, form in zip("ABC", (A, B, A + B))])
    assert [rec.describe() for rec in build_catalog(arr).records] == [
        "global dim 2; A | B | C; essential; certified; expected generic h1 = 1"
    ]


# -- sweep helpers and caps -----------------------------------------------------------


def test_probe_restrictions_agree_with_evaluation():
    for arr in (deleted_b3(), exfin3()):
        for _, q0, q1, restrictions in _probe_lines(_SearchTables(arr, 2)):
            assert restrictions == _integer_restrictions(arr, q0, q1)
            for cp, coeffs in zip(arr.components, restrictions):
                assert len(coeffs) == cp.degree + 1
                for s in range(cp.degree + 2):
                    point = tuple(s * a + b for a, b in zip(q0, q1))
                    assert sum(c * s**k for k, c in enumerate(coeffs)) == cp.form.evaluate(point)


def test_parametrization_point_on_a_component_raises_under_optimization():
    # the check must survive python -O, which strips asserts
    code = """
from curvepencils.arrangement import Arrangement, CurveComponent
from curvepencils.catalog import CatalogError, _integer_restrictions
from curvepencils.polyform import TernaryForm
arr = Arrangement([CurveComponent(v, TernaryForm.parse(v)) for v in "xyz"])
try:
    _integer_restrictions(arr, (0, 1, 1), (1, 1, 1))
except CatalogError as exc:
    print(exc)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert "lies on component 'x'" in done.stdout


def test_probe_lines_miss_every_line_intersection():
    # every meeting point of two components, of any degrees, rational or not:
    # sympy's resultants of the restrictions are nonzero, and no probe passes
    # through a rational point that `meeting_points` lists
    s = sympy.symbols("s")
    for arr in (deleted_b3(), exfin3(), ex2(), ceva3()):
        meets = {
            p for a, b in itertools.combinations(arr.components, 2) for p in meeting_points(a, b)
        }
        assert meets
        for form, _, _, restrictions in _probe_lines(_SearchTables(arr, 2)):
            polys = [sum(c * s**k for k, c in enumerate(r)) for r in restrictions]
            for f, g in itertools.combinations(polys, 2):
                assert sympy.resultant(f, g, s) != 0
            assert all(form.evaluate(p.coords) != 0 for p in meets)


PARENT_PROBES = {
    "a2": [("x - y + 3*z", (6, 3, -1), (9, 3, -2)), ("2*x + 2*y - z", (2, 1, 6), (3, 1, 8))],
    "a3": [("x - y - 2*z", (4, 2, 1), (8, 2, 3)), ("2*x + y + z", (2, 1, -5), (3, 1, -7))],
    "b3": [("2*x - y + 4*z", (3, 2, -1), (8, 4, -3)), ("4*x - y - 2*z", (3, 2, 5), (4, 2, 7))],
    "ceva2": [("x - y - z", (3, 1, 2), (4, 1, 3)), ("2*x - y + 2*z", (0, 2, 1), (1, 2, 0))],
    "ceva3": [("x - y - z", (0, 1, -1), (3, 1, 2)), ("x + y + 2*z", (0, 2, -1), (2, 0, -1))],
    "deletedB3": [
        ("x + y + 2*z", (4, 2, -3), (8, 2, -5)),
        ("2*x - y + 3*z", (9, 3, -5), (12, 3, -7)),
    ],
    "ex2": [("x - y - z", (2, 1, 1), (3, 1, 2)), ("x + y - 2*z", (4, 2, 3), (3, 1, 2))],
    "exfin3": [("x - y - z", (3, 1, 2), (4, 1, 3)), ("2*x - y + 2*z", (0, 2, 1), (1, 2, 0))],
    "triangle": [("x - y - z", (2, 1, 1), (3, 1, 2)), ("x + y - 2*z", (1, 1, 1), (4, 2, 3))],
}


@pytest.mark.parametrize("name", sorted(PARENT_PROBES))
def test_probe_lines_are_pinned(name):
    # the integer search picks the probes the Fraction search picked
    arr = Arrangement.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
    chosen = [(str(form), q0, q1) for form, q0, q1, _ in _probe_lines(_SearchTables(arr, 2))]
    assert chosen == PARENT_PROBES[name]


def test_probe_candidates_come_by_height():
    # the lazy walk yields the primitive triples of the bounded box sorted
    # by height, ties lexicographic
    box = [
        (a, b, c)
        for a in range(1, 24)
        for b in range(-a, a + 1)
        for c in range(-a - abs(b), a + abs(b) + 2)
        if gcd(gcd(a, b), c) == 1
    ]
    box.sort(key=lambda t: (sum(abs(v) for v in t), t))
    assert list(_probe_candidates()) == box


def test_ceva3_sweep_classifies_two_spans(monkeypatch):
    # the probes miss the line-conic points (0:1:0) and (0:0:1), the base
    # points of most swept pencils, so the Wronskian prefilter decides them
    calls = []
    original = catalog_module.classify

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "classify", counting)
    cat = build_catalog(ceva3())
    assert len(calls) == 2
    assert [r.kind for r in cat.records] == ["local", "global"]


def test_one_table_per_catalog(monkeypatch):
    # the local records, both walks and the cup structure read one
    # `_SearchTables`: the multiple points are found once, and the sweep
    # draws 50 of the 18,529 disjoint coprime pairs: those that pass its
    # content, concurrency and base-point rules, which run inside the draw
    calls = {"local_pencil_points": 0}
    for name in calls:
        original = getattr(pencil_module, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in (arrangement_module, pencil_module, resonance_module, catalog_module):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    walk, swept = catalog_module.iter_block_pairs, []

    def drawing(*args, **kwargs):
        for pair in walk(*args, **kwargs):
            swept.append(pair)
            yield pair

    monkeypatch.setattr(catalog_module, "iter_block_pairs", drawing)
    build_catalog(deleted_b3())
    assert calls == {"local_pencil_points": 1}
    assert len(swept) == 50


def test_smith_calls_per_catalog(monkeypatch):
    # every kernel (`kernel_fstar`, the perp basis of a coset, the relation
    # lattice of T(f)) is one Hermite pass, so the Smith decompositions
    # left on deleted B3 are the two of its one pencil with m'' >= 2: the
    # invariant factors of T(f), and `TfGroup.kernel_smith` for the lifts
    calls = []
    original = exactalg_module.smith_normal_form

    def counting(A):
        calls.append(A)
        return original(A)

    for module in (exactalg_module, torsion_module, arrangement_module, catalog_module):
        if vars(module).get("smith_normal_form") is original:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    build_catalog(deleted_b3())
    assert len(calls) == 2


def test_sweep_tables_die_with_their_catalog(monkeypatch):
    # the sweep's block-table steps close over locals, not over the tables,
    # so reference counting alone frees the memo when `build_catalog` returns
    made = []

    class Tracked(_SweepTables):
        def __init__(self, restrictions):
            super().__init__(restrictions)
            made.append(weakref.ref(self))

    monkeypatch.setattr(catalog_module, "_SweepTables", Tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        build_catalog(deleted_b3())
        assert len(made) == 1 and made[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_second_probe_sees_a_repeated_root_at_infinity():
    # (3 + t^2) - (1 + t^2) = 2 falls two degrees short: a double root at t = infinity
    products = _block_products([(3, 0, 1), (1, 0, 1)])
    a, b = _Block(1, (0,), (1,), 1), _Block(2, (1,), (1,), 1)
    assert _repeated_root_at(products, a, b, (1, 1))
    # (3 + t^2) - 2*(1 + t^2) = 1 - t^2 has simple roots only
    assert not _repeated_root_at(products, a, b, (2, 1))


# -- the sweep's per-block algebra and residue screen --------------------------------


def _restriction(degree):
    lead = st.integers(-6, 6).filter(bool)
    return st.tuples(*[st.integers(-6, 6)] * degree, lead)


@st.composite
def _block_pair(draw):
    """Random restrictions of degree 1-3 and two disjoint blocks of equal degree."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    restrictions = [draw(_restriction(d)) for d in degrees]
    blocks = []  # (degree, block)
    for mask in range(1, 1 << len(degrees)):
        members = tuple(j for j in range(len(degrees)) if mask >> j & 1)
        for mults in itertools.product((1, 2), repeat=len(members)):
            degree = sum(degrees[j] * m for j, m in zip(members, mults))
            blocks.append((degree, _Block(mask, members, mults, gcd(*mults))))
    pairs = [
        (a, b)
        for (da, a), (db, b) in itertools.combinations(blocks, 2)
        if not a.mask & b.mask and da == db
    ]
    assume(pairs)
    return restrictions, draw(st.sampled_from(pairs))


@settings(max_examples=80, deadline=None)
@given(_block_pair())
def test_block_algebra_wronskian_and_screen(case):
    restrictions, (a, b) = case
    t = sympy.symbols("t")
    R = [sum(c * t**k for k, c in enumerate(r)) for r in restrictions]
    ray = {**dict(zip(a.indices, a.mults)), **{j: -m for j, m in zip(b.indices, b.mults)}}
    # the logarithmic Wronskian summed over the whole support
    direct = sympy.expand(
        sum(
            c * sympy.diff(R[j], t) * sympy.prod([R[i] for i in ray if i != j])
            for j, c in ray.items()
        )
    )
    sweep = _SweepTables(restrictions)
    wron, degree_e = sweep.wronskian(a, b)
    assert degree_e == sum(len(restrictions[j]) - 1 for j in ray)
    expected = tuple(sympy.Poly(direct, t).all_coeffs()[::-1]) if direct != 0 else ()
    assert wron == expected
    if not sweep.screen(a, b):
        assert len(wron) - 1 == degree_e - 2
        _, factors = sympy.factor_list(direct, t)
        assert all(sympy.degree(f, t) != 1 for f, _ in factors)


def test_identically_vanishing_wronskian_is_a_broken_invariant():
    # equal restrictions break the coprimality that `_probe_lines` certifies:
    # W = R_0'*R_1 - R_0*R_1' = 0
    sweep = _SweepTables([(1, 1), (1, 1)])
    a, b = _Block(1, (0,), (1,), 1), _Block(2, (1,), (1,), 1)
    with pytest.raises(CatalogError, match="vanishes identically"):
        _candidate_parameters(sweep, a, b)


# -- the block tables of the search and the sweep ----------------------------------


def _check_sweep_entry(sweep, restrictions, block):
    """The sweep's entry and polynomials of the block equal their definitions, from scratch."""
    S = (1,)
    for j in block.indices:
        S = coeffs_mul(S, restrictions[j])
    L = [0] * (len(S) - 1)
    for j, m in zip(block.indices, block.mults):
        term = coeffs_derivative(restrictions[j])
        for i in block.indices:
            if i != j:
                term = coeffs_mul(term, restrictions[i])
        L = [x + m * y for x, y in zip(L, term)]
    assert sweep.polys(block) == (S, tuple(L))
    tops = (S[-1], S[-2], L[-1], L[-2] if len(L) > 1 else 0)
    residues = tuple(
        tuple((coeffs_evaluate(S, t) % p, coeffs_evaluate(L, t) % p) for t in range(p))
        for p in _SCREEN_PRIMES
    )
    assert sweep.entry(block) == (tops, residues)


def _check_block_tables(arr):
    """Every value of the four block tables equals its definition, from scratch."""
    tables = _SearchTables(arr, 2)
    first, second = (r for _, _, _, r in _probe_lines(tables))
    sweep, products = _SweepTables(first), _block_products(second)
    for blocks in blocks_by_degree(arr, 2).values():
        for block in blocks:
            pairs = list(zip(block.indices, block.mults))
            form = arr.block_form(pairs)
            assert tables.block_form(block) == form
            assert tables.block_values(block) == tuple(
                tuple(form.evaluate(p) for p in c.vote_points) for c in arr.components
            )
            _check_sweep_entry(sweep, first, block)
            V = (1,)
            for j, m in pairs:
                for _ in range(m):
                    V = coeffs_mul(V, second[j])
            assert products(block) == V


@pytest.mark.parametrize("make", [ceva2, ex2])
def test_block_tables_match_their_definitions(make):
    _check_block_tables(make())


_CONICS = ("x^2 + y^2 - z^2", "x^2 - y*z", "x*y + y*z + z*x")


@st.composite
def _small_arrangement(draw):
    """Two to four random lines, sometimes with one smooth conic."""
    line = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
    forms = [
        TernaryForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
        for a, b, c in draw(st.lists(line, min_size=2, max_size=4))
    ]
    if draw(st.booleans()):
        forms.append(F(draw(st.sampled_from(_CONICS))))
    assume(not any(f.proportional_to(g) for f, g in itertools.combinations(forms, 2)))
    return Arrangement([CurveComponent(f"C{i}", f) for i, f in enumerate(forms)])


@settings(max_examples=25, deadline=None)
@given(_small_arrangement())
def test_block_tables_match_their_definitions_on_random_arrangements(arr):
    _check_block_tables(arr)


@pytest.mark.parametrize("m", [7, 11, 13, 14])
def test_sweep_entries_at_multiplicities_zero_mod_a_screen_prime(m):
    # m = 0 mod p (7, 11, 13, and 14 for p = 7) drops the m*S*R' term of
    # the step mod p, so a zero t of R_j sends both S(t) and L(t) to 0;
    # t and t^2 + 7t vanish at t = 0, t^2 + 7t also at t = -7, and
    # (t - 1)^2 has a double root
    restrictions = [(0, 1), (0, 7, 1), (1, -2, 1), (3, 5, 2)]
    sweep = _SweepTables(restrictions)
    for mask in range(1, 1 << len(restrictions)):
        members = tuple(j for j in range(len(restrictions)) if mask >> j & 1)
        for mults in itertools.product((1, m), repeat=len(members)):
            block = _Block(mask, members, mults, gcd(*mults))
            _check_sweep_entry(sweep, restrictions, block)


def test_screen_cuts_the_sweep_rational_root_calls(monkeypatch):
    # deleted B3: 1,218 sweep calls of `rational_roots` with the 7/11 check
    # on built Wronskians; 646 once the residue screen runs on every pair
    calls = []
    original = catalog_module.rational_roots

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "rational_roots", counting)
    build_catalog(deleted_b3())
    assert len(calls) < 1218


def _pairwise_sweep_draw(tables):
    """The disjoint pairs, in combinations order, that pass the sweep's
    content, concurrency and base-point rules, each tested pair by pair."""
    reference = Reference(tables)
    return [(a, b) for a, b in reference.pairs() if reference.swept(a, b)]


@pytest.mark.parametrize("make", [deleted_b3, a2, b3, ceva2, ceva3, ex2])
def test_sweep_walk_draws_the_pairwise_stage_chain_in_order(make):
    # the rules the draw applies as each point closes make the decisions
    # that testing each disjoint pair makes, in combinations order
    tables = _SearchTables(make(), 2)
    reference = _pairwise_sweep_draw(tables)
    assert reference
    assert list(iter_block_pairs(tables, sweep=True)) == reference


def test_base_point_screen_reads_the_lower_block_at_unequal_counts():
    # deleted B3, a = L1 + 2*L5.  With b = L6 + L7 + L8 the rule reads one
    # point, L5.L6.L7.L8, where n_X(a) = 2 < n_X(b) = 3 and h_X is a's gcd,
    # 2 (b's is 1); the other points of a and b have equal counts and a
    # third line.  With b = L2 + 2*L6 it reads L1.L3.L6, where n_X(a) = 1 <
    # n_X(b) = 2 and h_X is a's gcd, 1 (b's is 2), and L2.L3.L5, the other
    # way round; both pass L3, a line of neither block.  A screen that read
    # the higher block would swap the two decisions
    tables = _SearchTables(deleted_b3(), 2)
    a = _Block(0b10001, (0, 4), (1, 2), 1)
    keep = _Block(0b11100000, (5, 6, 7), (1, 1, 1), 1)
    drop = _Block(0b100010, (1, 5), (1, 2), 1)
    reference = Reference(tables)
    assert (reference.base_point_gcd(a, keep), reference.base_point_gcd(a, drop)) == (2, 1)
    drawn = set(iter_block_pairs(tables, sweep=True))
    assert (a, keep) in drawn and (a, drop) not in drawn


def test_base_point_screen_counts_on_deleted_b3(monkeypatch):
    # the base-point screen runs before the residue screen: of the pairs
    # past the content and concurrency tests, 50 reach the residue screen
    # (674 when the rule reads only points whose lines all lie in a u b,
    # 3,138 with the bound n_X(a)*n_X(b) in place of h_X there, 14,258
    # without the screen), 6 Wronskians reach `rational_roots` (62, 208,
    # 646) and 1 swept pencil, the translated one, reaches `classify` (1,
    # 3, 4)
    calls = {"screen": 0, "rational_roots": 0, "classify": 0}

    def counted(name, original):
        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counting

    monkeypatch.setattr(_SweepTables, "screen", counted("screen", _SweepTables.screen))
    for name in ("rational_roots", "classify"):
        monkeypatch.setattr(catalog_module, name, counted(name, getattr(catalog_module, name)))
    build_catalog(deleted_b3())
    assert calls == {"screen": 50, "rational_roots": 6, "classify": 1}


def test_base_point_screen_keeps_the_translated_pencil():
    # the deleted B3 pencil of the translated torus, L1 + L4 + 2*L5 |
    # L2 + L3 + 2*L7, whose special fiber has m'' = 2: the multiple points
    # with all their lines in the support are L1.L4.L7 and L2.L3.L5, each
    # with n_X(a) = n_X(b) = 2, so h_X = 2 at both and the gcd is 2
    tables = _SearchTables(deleted_b3(), 2)
    a = _Block(0b0011001, (0, 3, 4), (1, 1, 2), 1)
    b = _Block(0b1000110, (1, 2, 6), (1, 1, 2), 1)
    assert tables.block_form(a) == fw_pencil().P and tables.block_form(b) == fw_pencil().Q
    assert Reference(tables).base_point_gcd(a, b) == 2


def test_base_point_screen_rejects_no_multiple_fiber_on_deleted_b3():
    # the pairs the base-point screen takes from the residue screen on
    # deleted B3 (646 - 6 = 640 Wronskians no longer built) all span
    # pencils whose special fibers have m'' = 1
    arr = deleted_b3()
    tables = _SearchTables(arr, 2)
    sweep = _SweepTables(_probe_lines(tables)[0][3])
    reference = Reference(tables)
    checked = 0
    for a, b in reference.pairs():
        if a.content == b.content == 1 and reference.base_point_gcd(a, b) == 1:
            if sweep.screen(a, b):
                cl = classify(arr, Pencil(tables.block_form(a), tables.block_form(b)))
                assert all(sp.m_dprime == 1 for sp in detect_special_fibers(cl).special_points)
                checked += 1
    assert checked == 640


@st.composite
def _lines_with_infinity(draw):
    """Four to seven distinct random lines with small coefficients, the first at infinity."""
    coefficients = draw(
        st.lists(
            st.sampled_from(SMALL_VECTORS), min_size=4, max_size=7, unique_by=primitive_vector
        )
    )
    forms = [
        TernaryForm({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) for a, b, c in coefficients
    ]
    return Arrangement([CurveComponent(f"L{i}", f) for i, f in enumerate(forms)], 0)


@settings(max_examples=40, deadline=None)
@given(_lines_with_infinity())
def test_sweep_walk_draws_the_pairwise_stage_chain_on_random_lines(arr):
    tables = _SearchTables(arr, 2)
    assert list(iter_block_pairs(tables, sweep=True)) == _pairwise_sweep_draw(tables)


def _base_point_rejections(reference):
    """The disjoint content-1 pairs whose base-point gcd is 1."""
    return [
        (a, b)
        for a, b in reference.pairs()
        if a.content == b.content == 1 and reference.base_point_gcd(a, b) == 1
    ]


def _assert_trivial_tf(tables, pairs):
    # exact classification is the oracle: a rejected pair spans a pencil
    # whose special fibers all have m'' = 1, so its T(f) lifts no character
    for a, b in pairs:
        pencil = Pencil(tables.block_form(a), tables.block_form(b))
        cl = detect_special_fibers(classify(tables.arr, pencil))
        assert all(sp.m_dprime == 1 for sp in cl.special_points), (a, b)
        assert not lifted_characters(cl)[1], (a, b)


@settings(max_examples=50, deadline=None)
@given(_lines_with_infinity(), st.data())
def test_base_point_screen_rejects_only_trivial_tf(arr, data):
    # a 7-line arrangement has thousands of rejected pairs at about 2 ms
    # each, so each example checks up to 15 of them, drawn by hypothesis
    tables = _SearchTables(arr, 2)
    rejected = _base_point_rejections(Reference(tables))
    assume(rejected)
    drawn = data.draw(st.lists(st.sampled_from(rejected), max_size=15, unique=True))
    _assert_trivial_tf(tables, drawn)


# an example takes about 3 s, so shrinking a failure would rerun it for
# minutes; the assertion names the failing pair instead
@settings(max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(deleted_b3_plus_a_line(2), st.data())
def test_base_point_screen_rejects_only_trivial_tf_on_deleted_b3_plus_a_line(arr, data):
    # random small lines almost never span a pencil with m'' >= 2, while
    # these arrangements keep the translated pencil of deleted B3, whose
    # special fiber has m'' = 2 (unless the new line is its doubled line),
    # and often gain others.  Of the about 70,000
    # rejected pairs, every one that the product bound n_X(a)*n_X(b) keeps
    # and that passes the residue screen is checked, about 1,000 at 2-3 ms
    # each: those are the pairs where h_X, or an unequal-count point with a
    # line outside a u b, decides and W keeps a zero mod 7, 11 and 13.
    # Hypothesis draws 15 more from the rest
    tables = _SearchTables(arr, 2)
    sweep = _SweepTables(_probe_lines(tables)[0][3])
    reference = Reference(tables)
    sharp, rest = [], []
    for a, b in _base_point_rejections(reference):
        kept = reference.product_bound(a, b) != 1 and sweep.screen(a, b)
        (sharp if kept else rest).append((a, b))
    assert sharp
    drawn = data.draw(st.lists(st.sampled_from(rest), max_size=15, unique=True))
    _assert_trivial_tf(tables, sharp + drawn)


def _free_line_rejections(reference):
    """The rejected pairs that only the unequal-count points with a line
    outside a u b reject: the gcd of h_X over the points whose lines all
    lie in a u b is not 1."""
    return [
        (a, b)
        for a, b in _base_point_rejections(reference)
        if gcd(*(h for h, free, _ in reference.heights(a, b) if not free)) != 1
    ]


# about one random arrangement in ten has such a pair: it needs a point of
# three or more lines
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_lines_with_infinity(), st.data())
def test_base_point_screen_free_line_cuts_reject_only_trivial_tf(arr, data):
    # the tangent-cone lemma at an unequal-count point needs no condition on
    # the other lines through it; these pairs are a small share of all
    # rejections, so they are drawn on their own
    tables = _SearchTables(arr, 2)
    rejected = _free_line_rejections(Reference(tables))
    assume(rejected)
    drawn = data.draw(st.lists(st.sampled_from(rejected), max_size=10, unique=True))
    _assert_trivial_tf(tables, drawn)


@settings(max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(deleted_b3_plus_a_line(2), st.data())
def test_base_point_screen_free_line_cuts_reject_only_trivial_tf_on_deleted_b3_plus_a_line(
    arr, data
):
    # of the 1,000-2,000 pairs that only these cuts reject, every one that
    # passes the residue screen is checked, about 100-150, and 15 more are
    # drawn from the rest
    tables = _SearchTables(arr, 2)
    sweep = _SweepTables(_probe_lines(tables)[0][3])
    sharp, rest = [], []
    for a, b in _free_line_rejections(Reference(tables)):
        (sharp if sweep.screen(a, b) else rest).append((a, b))
    assert sharp
    drawn = data.draw(st.lists(st.sampled_from(rest), max_size=15, unique=True))
    _assert_trivial_tf(tables, sharp + drawn)


def test_caps_that_empty_the_global_stage_are_rejected():
    with pytest.raises(CatalogError, match="max_multiplicity"):
        build_catalog(ex2(), max_multiplicity=0)
    with pytest.raises(CatalogError, match="max_blocks"):
        build_catalog(ex2(), max_blocks=2)


# -- coordinate changes ----------------------------------------------------------


_RECORD_KEYS = ("kind", "dimension", "torsion", "flags", "expected_generic_h1")
_MOVED_FIXTURES = (deleted_b3, a2, ceva2, ex2, ceva3, triangle)


@functools.cache
def _coordinate_free_records(make, matrix=None) -> list:
    """The catalog's records without their points and printed forms, sorted.

    A subtorus enters by the span of its exponent lattice: the order of a
    pencil's fibers, which the coordinates decide, picks its printed basis.
    """
    arr = make() if matrix is None else moved(make(), matrix)
    catalog = build_catalog(arr)
    return sorted(
        json.dumps([rec.subtorus.saturated_key(), *(doc[k] for k in _RECORD_KEYS)])
        for rec, doc in zip(catalog.records, catalog.to_json()["records"])
    )


# a change of coordinates is a homeomorphism of the plane that keeps the
# components and their order, so it keeps the characteristic variety and
# with it every record; the two matrices give leading coefficients other
# than +-1 to most components, where the membership test pseudo-divides.
# An example takes about 0.2 s
@settings(max_examples=30, deadline=None)
@example(((0, -1, 1), (2, -1, 2), (-1, -2, 1)))
@example(((0, 1, 0), (2, -1, 1), (1, 0, 1)))
@given(unimodular_matrices())
def test_catalog_does_not_depend_on_coordinates(matrix):
    for make in _MOVED_FIXTURES:
        assert _coordinate_free_records(make, matrix) == _coordinate_free_records(make), (
            make.__name__
        )


# -- catalogs without a golden file -------------------------------------------------


@pytest.mark.parametrize(
    "make, digest",
    [
        (a3, "c977710f18fe65bb5fb9852257f710a44bb2e0bf449627660eade1b9f4ab52e8"),
        (b3, "2ef1c2ec0f3f47ac72e6607708abb8caf8e5aee58e293299216de012f1ff99fb"),
        (b3_plus_one, "c82da56c6a2dc69b4e33ba1c577f23bb7a28beeb6b4818bfccf39240bf3313ce"),
        (b3_plus_two, "b5c30eff3ccb14a09e26ee6607721dbc920b1246cb69574441ac98e534377de4"),
        (ceva2, "91ea15f195d876c07530aa029de8245cc5cc3c8c28ee5bae677a16c928847e83"),
        (ceva3, "757c4f3fee821dfea7881de82c193531396b31a01637e6c214755b2afaff2058"),
        (triangle, "6d17d38907c1529cb93adb4662f26867f41f0bccec7c7fa5130663a55d5087ca"),
    ],
    ids=["a3", "b3", "b3plus1", "b3plus2", "ceva2", "ceva3", "triangle"],
)
def test_catalog_json_digest(make, digest):
    text = json.dumps(build_catalog(make()).to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- invariants across every catalog ------------------------------------------------


def test_a_record_is_its_source_subtorus_character_and_certification():
    # kind, dimension, flags, witness, exceptional note and expected h1 are
    # derived from these four, so no record can disagree with itself
    names = [field.name for field in dataclasses.fields(ComponentRecord)]
    assert names == ["source", "subtorus", "torsion", "certification"]


def test_catalog_invariants(db3_catalog, a2_catalog, ex2_catalog, exfin3_catalog, triangle_catalog):
    for catalog in (db3_catalog, a2_catalog, ex2_catalog, exfin3_catalog, triangle_catalog):
        global_keys = {r.subtorus.saturated_key() for r in of_kind(catalog, "global")}
        local_keys = {r.subtorus.saturated_key() for r in of_kind(catalog, "local")}
        assert not global_keys & local_keys
        for rec in catalog.records:
            assert rec.dimension == rec.subtorus.dimension
            certiflags = [f for f in rec.flags if f.startswith(("certified", "candidate"))]
            assert len(certiflags) == 1
            assert len(rec.flags) > 1
            if rec.kind in ("local", "global"):
                assert rec.dimension >= 2
                assert rec.torsion.is_trivial()
            else:
                assert not rec.torsion.is_trivial()
                assert any(rec.subtorus.coset(rec.torsion))
                if rec.dimension >= 2:
                    assert rec.subtorus.saturated_key() in global_keys
