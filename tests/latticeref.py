"""Lattice oracles for the subtorus keys: a canonical key and the saturation.

`curvepencils.exactalg` keys a lattice by its column Hermite form; these
functions rebuild the saturation from two integer kernels, independently of
`ExponentSubtorus.saturated_key` and `coset`, which the tests compare them with.
"""

from __future__ import annotations

from typing import Sequence

from curvepencils.exactalg import IntMatrix, hermite_column_form, integer_kernel_basis


def lattice_key(columns: Sequence[Sequence[int]], nrows: int) -> tuple:
    """Hashable canonical key for the lattice spanned by the columns."""
    return tuple(hermite_column_form(columns, nrows))


def saturate_lattice(columns: Sequence[Sequence[int]], nrows: int) -> list[tuple[int, ...]]:
    """Saturation: all integer vectors some multiple of which lies in the span."""
    cols = [c for c in columns if any(e != 0 for e in c)]
    if not cols:
        return []
    C = IntMatrix.from_columns(cols, nrows)
    relations = integer_kernel_basis(C.transpose())
    if relations.ncols == 0:
        return [tuple(c) for c in IntMatrix.identity(nrows).columns()]
    sat = integer_kernel_basis(relations.transpose())
    return sat.columns()
