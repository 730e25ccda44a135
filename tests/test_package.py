"""The package's public surface."""

import unitprod


def test_all_names_resolve():
    missing = [name for name in unitprod.__all__ if not hasattr(unitprod, name)]
    assert missing == []
    assert len(set(unitprod.__all__)) == len(unitprod.__all__)
