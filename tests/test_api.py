import importlib

import pytest


@pytest.mark.parametrize("name", [
    "epart", "epart.dsl", "epart.partition", "epart.runtime", "epart.bench",
])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
