"""The package's public surface."""

import photonsim


def test_every_exported_name_resolves():
    missing = [name for name in photonsim.__all__ if not hasattr(photonsim, name)]
    assert missing == []
    assert len(set(photonsim.__all__)) == len(photonsim.__all__)
