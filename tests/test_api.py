"""The package's public names stay importable."""

import signorini


def test_every_exported_name_resolves():
    missing = [name for name in signorini.__all__ if not hasattr(signorini, name)]
    assert not missing
    namespace = {}
    exec("from signorini import *", namespace)
    assert set(signorini.__all__) <= namespace.keys()
