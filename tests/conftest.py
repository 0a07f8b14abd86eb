"""Shared fixtures."""

from collections import Counter

import pytest


@pytest.fixture
def spy(monkeypatch):
    """Count calls per instance of patched methods for the test's duration.

    ``calls = spy((StaticEncoder, "__call__"), (TemporalEncoder, "__call__"))``
    wraps each method and returns one Counter, keyed by the instance called.
    """

    def install(*targets):
        calls = Counter()

        def counted(method):
            def wrapper(self, *args, **kwargs):
                calls[self] += 1
                return method(self, *args, **kwargs)
            return wrapper

        for owner, name in targets:
            monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
        return calls

    return install
