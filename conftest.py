import pathlib
import signal
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "tests"))


@pytest.fixture
def deadline():
    """deadline(seconds) makes the test fail with TimeoutError once it has
    run that long, instead of hanging the suite."""
    def start(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"test ran past its {seconds} s limit")
        signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    yield start
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
