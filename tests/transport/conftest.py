"""A leaked socket fails the asyncio UDP transport tests.

``ResourceWarning`` is raised from a destructor, so on its own it only
scrolls past (at best as an "unraisable exception" note on whichever
test the collector happened to run in).  For the tests that own aio
sockets it is an error, and a collection at teardown makes it land on
the test that leaked.
"""

import gc
import warnings

import pytest


def _owns_aio_sockets(item) -> bool:
    name = item.path.name
    return name == "test_aio.py" or (
        name == "test_contract.py" and "[aio-udp]" in item.name
    )


def pytest_collection_modifyitems(items):
    for item in items:
        if _owns_aio_sockets(item):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"
            ))


@pytest.fixture(autouse=True)
def _leaked_sockets_fail(request):
    if not _owns_aio_sockets(request.node):
        yield
        return
    with warnings.catch_warnings():
        # Garbage left by earlier tests is not this test's leak.
        warnings.simplefilter("ignore", ResourceWarning)
        gc.collect()
    yield
    gc.collect()
