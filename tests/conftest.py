"""Fixtures shared by the test modules."""

import pytest

from armformer import tensor as T


@pytest.fixture
def submitted(monkeypatch):
    """The groups of tiles handed to the worker pool, as their argument tuples."""
    groups = []
    pool = T._executor()

    class Recording:
        def submit(self, fn, *args):
            groups.append(args)
            return pool.submit(fn, *args)

    monkeypatch.setattr(T, "_executor", Recording)
    return groups
