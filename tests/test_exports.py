"""The package's public name list: every exported name resolves, and the
list is sorted without duplicates, so a deleted feature cannot leave a
stale export behind."""

from __future__ import annotations

import bntrim


def test_all_names_resolve_sorted_and_unique():
    names = bntrim.__all__
    missing = [n for n in names if not hasattr(bntrim, n)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
