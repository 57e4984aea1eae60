"""Shared fixtures."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, *modules) wraps each module's binding of name.

    Returns one list that every wrapped call appends its positional
    arguments to; clear it between runs to count them separately.
    """

    def install(name, *modules):
        calls = []
        for module in modules:
            real = getattr(module, name)

            def wrapper(*args, _real=real, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
