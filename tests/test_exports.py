"""The package's public names."""

import duadiq


def test_every_exported_name_resolves():
    # a name deleted from the package must leave __all__ too
    assert [name for name in duadiq.__all__ if not hasattr(duadiq, name)] == []
    assert len(set(duadiq.__all__)) == len(duadiq.__all__)
