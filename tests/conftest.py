"""A time limit per test under tests/, so that a hang fails its test, not the whole run.

Built on SIGALRM and setitimer, as no timeout plugin is a dependency.  Only the tests in
this directory get it; perfbench's loop arms its own SIGALRM and is left alone.
"""

import signal

import pytest

LIMIT_S = 60.0  # the slowest test takes about 2 s


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test once it has run LIMIT_S, then restore the previous handler and timer."""
    def expire(signum, frame):
        pytest.fail(f"the test ran past its {LIMIT_S:g} s limit", pytrace=False)

    handler = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)
