"""Session-wide catalog builds and searches.

Catalogs are deterministic but the searches behind them are the slowest
part of the suite, so each arrangement is built or searched once and shared.
"""

from __future__ import annotations

import pytest

from arrfixtures import a2, deleted_b3, ex2, exfin3, triangle
from curvepencils.catalog import build_catalog
from curvepencils.pencil import _SearchTables, pencil_search


@pytest.fixture(scope="session")
def db3_catalog():
    return build_catalog(deleted_b3())


@pytest.fixture(scope="session")
def a2_catalog():
    return build_catalog(a2())


@pytest.fixture(scope="session")
def ex2_catalog():
    return build_catalog(ex2())


@pytest.fixture(scope="session")
def exfin3_catalog():
    return build_catalog(exfin3())


@pytest.fixture(scope="session")
def triangle_catalog():
    return build_catalog(triangle())


@pytest.fixture(scope="session")
def db3_search():
    return pencil_search(_SearchTables(deleted_b3(), 2), 3)
