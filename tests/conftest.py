import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pakemail.groups import get_group


@pytest.fixture(scope="session")
def toy():
    return get_group("toy")


@pytest.fixture(scope="session")
def production():
    return get_group("production")


@pytest.fixture
def blocking_poll():
    """Start ``backend.poll(b"b@x", timeout)`` in a thread; return the thread and its results."""
    def start(backend, timeout):
        got = []
        waiter = threading.Thread(target=lambda: got.extend(backend.poll(b"b@x", timeout)),
                                  daemon=True)
        waiter.start()
        return waiter, got
    return start
