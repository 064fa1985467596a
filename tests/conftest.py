import contextlib
import signal

import pytest

_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    out = yield
    rep = out.get_result()
    if rep.when != "call":
        return
    props = dict(item.user_properties)
    n = props.get("criterion")
    if n is None:
        return
    _RESULTS[n] = (props.get("label", item.name), props.get("elapsed"), rep.passed)


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_RESULTS):
        label, elapsed, passed = _RESULTS[n]
        timing = "" if elapsed is None else " [%.2fs]" % elapsed
        terminalreporter.write_line(
            "criterion %d %s: %s%s" % (n, "PASS" if passed else "FAIL", label, timing)
        )


class BudgetExceeded(Exception):
    """Raised inside the code under test when its time budget runs out."""


@pytest.fixture
def time_budget():
    """``with time_budget(s):`` stops the block with BudgetExceeded after s
    seconds of wall time (SIGALRM), so a slow path fails instead of hanging."""

    @contextlib.contextmanager
    def budget(seconds):
        def expire(signum, frame):
            raise BudgetExceeded("over the %g s budget" % seconds)

        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return budget
