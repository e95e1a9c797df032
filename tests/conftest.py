"""A wall-clock limit on each test, so that a run fails instead of hanging.

A wrong elimination step can turn exact divisions inexact, and then the
entries of a minor sweep grow without bound; such a test fails with its name
after LIMIT_S seconds.  The limit is a SIGALRM timer, so it applies where
the platform has ``signal.setitimer``.
"""

import signal

import pytest

# more than ten times the slowest test under ``python -X dev``
LIMIT_S = 40


def _expire(signum, frame):
    pytest.fail(f"ran past the {LIMIT_S} s limit on one test")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
