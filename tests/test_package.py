import types

import listlab


def test_every_exported_name_resolves():
    missing = [name for name in listlab.__all__ if not hasattr(listlab, name)]
    assert missing == []
    assert len(set(listlab.__all__)) == len(listlab.__all__)


def test_verifier_and_engine_errors_are_exported():
    assert {"verify_engines", "UnsortedCounters"} <= set(listlab.__all__)


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(listlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(listlab.__all__) == public
