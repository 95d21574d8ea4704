import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test after which a thread it started is still alive: a helper
    that is not joined before its call returns or raises."""
    before = set(threading.enumerate())
    yield
    alive = [t.name for t in threading.enumerate() if t not in before]
    assert not alive, f"threads started by the test are still alive: {alive}"
