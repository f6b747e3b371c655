import concurrent.futures
import os

from chowtwist import gmodules, verify


def test_klein_tail_runs_once():
    # klein_checks(1) gives 4 checks, the parameter-free tail 7 more
    assert len(verify.run_battery("klein", params=[1])) == 11
    assert verify.battery_klein(ms=[]) == verify.run_battery("klein", params=[])


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    created = []

    def __init__(self, max_workers):
        _SerialPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


def test_jobs_clamped_to_cpus_and_params(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.created = []
    expected = verify.battery_klein(ms=[1, 2, 3])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert verify.run_battery("klein", params=[1, 2, 3], jobs=100000) == expected
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert verify.run_battery("klein", params=[1, 2, 3], jobs=100000) == expected
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify.run_battery("klein", params=[1, 2, 3], jobs=100000) == expected
    assert _SerialPool.created == [3, 2]


def test_cyclic_oracle_independent_of_closed_form(monkeypatch):
    # the periodic oracle must not share the closed form's trace quotient
    monkeypatch.setattr(gmodules.GModule, "trace_quotient",
                        lambda self: gmodules.FiniteAbelianGroup([97], 0))
    periodic = [c for c in verify.cyclic_checks(4) if "vs periodic" in c["name"]]
    assert len(periodic) == 15
    assert not any(c["ok"] for c in periodic)
