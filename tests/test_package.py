"""The package's public names."""

import tapcheck


def test_every_exported_name_resolves():
    assert [name for name in tapcheck.__all__
            if not hasattr(tapcheck, name)] == []
    assert len(set(tapcheck.__all__)) == len(tapcheck.__all__)
