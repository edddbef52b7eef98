"""The package's advertised names exist."""

import bjjsense


def test_every_exported_name_resolves():
    missing = [name for name in bjjsense.__all__
               if not hasattr(bjjsense, name)]
    assert missing == []
    assert len(set(bjjsense.__all__)) == len(bjjsense.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from bjjsense import *", namespace)
    assert set(bjjsense.__all__) <= set(namespace)
