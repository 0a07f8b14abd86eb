"""The package's public surface."""

import mvfuse


def test_every_public_name_resolves():
    assert not [name for name in mvfuse.__all__ if not hasattr(mvfuse, name)]
    assert len(set(mvfuse.__all__)) == len(mvfuse.__all__)
