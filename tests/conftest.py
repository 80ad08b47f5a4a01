"""Test-session setup: CLI subprocesses import the package from src/ too,
and every test runs under a wall-clock cap.

pytest puts src/ on sys.path (pyproject.toml, pythonpath); the tests that
run ``python -m toricval`` in a subprocess need it in PYTHONPATH as well.

A test that runs past TEST_CAP_S seconds (setup and teardown included) ends
the whole run: faulthandler's watchdog thread writes every thread's
traceback to stderr and exits, so a stalled kernel fails the suite instead
of hanging it.  The cap uses no signal, because tests/test_golden.py and the
benchmark time their jobs with ITIMER_REAL.
"""

import faulthandler
import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

# well above the slowest test, which takes about 8 s
TEST_CAP_S = 120.0

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of fd 2 taken outside output capture, which redirects fd 2
    # while a test runs
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        TEST_CAP_S, exit=True, file=item.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
