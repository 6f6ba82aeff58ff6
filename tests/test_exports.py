"""The package's export list: every name in ``blockpec.__all__`` resolves,
and a star import brings in exactly those names."""

from __future__ import annotations

import blockpec


def test_every_exported_name_resolves():
    missing = [name for name in blockpec.__all__ if not hasattr(blockpec, name)]
    assert not missing, missing
    assert len(set(blockpec.__all__)) == len(blockpec.__all__)


def test_star_import_brings_in_the_export_list():
    namespace: dict = {}
    exec("from blockpec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(blockpec.__all__)
