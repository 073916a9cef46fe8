import aoisim


def test_every_exported_name_resolves():
    assert len(aoisim.__all__) == len(set(aoisim.__all__))
    missing = [name for name in aoisim.__all__ if not hasattr(aoisim, name)]
    assert missing == []


def test_star_import_gives_the_export_list():
    namespace = {}
    exec("from aoisim import *", namespace)
    assert set(aoisim.__all__) <= set(namespace)
