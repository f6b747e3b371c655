import pytest

from chowtwist.gmodules import GModule


def change_ring_mod(M, p):
    """Reduction M/pM of an integral module."""
    if M.p is not None:
        raise ValueError("reduction mod p needs an integral module")
    gens = {g: M.act(g) % p for g in M.group.generators}
    return GModule(M.group, "F%d" % p, M.rank, gens, check=False,
                   name=M.name + " mod %d" % p)


def p_rank(A, p):
    """The number of invariant factors of A divisible by p."""
    return sum(1 for d in A.invariant_factors if d % p == 0)


_CRITERION_LINES = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion, then assert."""

    def rec(name, ok, detail=""):
        line = ("PASS " if ok else "FAIL ") + name
        if detail and not ok:
            line += " -- " + detail
        _CRITERION_LINES.append(line)
        assert ok, name + (": " + detail if detail else "")

    return rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
