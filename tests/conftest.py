"""Fixtures shared by the tests under tests/: a time limit per test, and two recorders.

The time limit makes a hang fail its test, not the whole run.  It is built on SIGALRM
and setitimer, as no timeout plugin is a dependency.  Only the tests in this directory
get it; perfbench's loop arms its own SIGALRM and is left alone.

check_calls counts the domain checks a test makes, and chunk_draws records what the
simulator's kernel draws.
"""

import signal
import sys

import pytest

from intermod import _domain, cli, detector, simulator, sumrate

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


@pytest.fixture
def check_calls(monkeypatch):
    """Count the domain checks a test makes: check is wrapped where each module binds it."""
    calls, real = [0], _domain.check

    def counted(name, value):
        calls[0] += 1
        return real(name, value)

    bound = [module for name, module in list(sys.modules.items())
             if name.startswith("intermod.") and getattr(module, "check", None) is real]
    for module in bound:
        monkeypatch.setattr(module, "check", counted)
    assert {cli, detector, sumrate} <= set(bound)
    return calls


@pytest.fixture
def chunk_draws(monkeypatch):
    """Each call of the simulator's kernel, as its (ones, variates), in call order."""
    kernel, draws = simulator._chunk_variates, []

    def record(*args):
        draws.append(kernel(*args))
        return draws[-1]

    monkeypatch.setattr(simulator, "_chunk_variates", record)
    return draws
