"""The package's public surface."""

import l1risk


def test_every_exported_name_resolves_once():
    assert len(l1risk.__all__) == len(set(l1risk.__all__))
    missing = [name for name in l1risk.__all__ if not hasattr(l1risk, name)]
    assert missing == []
    namespace = {}
    exec("from l1risk import *", namespace)
    assert set(l1risk.__all__) <= set(namespace)
