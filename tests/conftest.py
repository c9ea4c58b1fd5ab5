import os
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from do_icbf import build_acc, build_bicycle, build_example1


@pytest.fixture(scope="session")
def acc_scenario():
    return build_acc()


@pytest.fixture(scope="session")
def bicycle_scenario():
    return build_bicycle()


@pytest.fixture(scope="session")
def example1_scenario():
    return build_example1()


@pytest.fixture
def forks(monkeypatch):
    """The forks this process makes during the test, one entry each."""
    made = []
    real_fork = os.fork

    def fork():
        made.append(True)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def deadline():
    """Fail, rather than hang, a command whose forked child is never joined."""
    def hung(signum, frame):
        raise TimeoutError("the command did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
