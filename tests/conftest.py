import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from qperm import cli  # noqa: E402


@pytest.fixture(autouse=True)
def _no_cached_model():
    """Each test starts and ends with no flat model cached in ``cli``, so a
    monkeypatched grid builder takes effect whatever ran before it."""
    cli._model.cache_clear()
    yield
    cli._model.cache_clear()
