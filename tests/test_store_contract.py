"""The contract every content-addressed disk store keeps.

:class:`~repro.harness.sweep.ResultStore`,
:class:`~repro.trace.store.TraceStore` and
:class:`~repro.trace.artifacts.ArtifactStore` share their put / read /
degrade mechanics (:class:`repro.diskstore.DiskStore`); each case below runs
against all three, driven by injected faults (``REPRO_FAULTS``):

* a torn write reads back as a miss, is counted in ``corrupted`` and removed;
* 3 consecutive write errors trip ``degraded`` with exactly one
  ``degraded.store.<name>`` event, and a success in between re-arms the latch;
* a degraded store still serves the entries written before it tripped;
* a write whose rename fails leaves no ``*.tmp.*`` file behind.
"""

import errno
import os
from array import array

import pytest

from repro import faults, obs
from repro.harness.sweep import ResultStore, RunRecord, RunSpec
from repro.trace.artifacts import ArtifactStore
from repro.trace.format import Trace, TraceKey
from repro.trace.store import TraceStore


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)


class _Results:
    name, site = "result", "store.put"

    def __init__(self, tmp_path):
        self.store = ResultStore(tmp_path / "cache")

    @staticmethod
    def _spec(i):
        return RunSpec.create("micro-baseline", "hybrid", "-", kind="micro",
                              params={"iterations": 10 + i})

    def expected(self, i):
        spec = self._spec(i)
        return RunRecord(
            workload=spec.workload, mode=spec.mode, scale=spec.scale,
            kind=spec.kind, spec_hash=spec.spec_hash,
            machine_overrides={}, params=dict(spec.params), cycles=1.0 + i,
            instructions=1, phase_cycles={}, mispredictions=0,
            branch_predictions=0, memory_stats={}, core_stats={},
            energy={"total": 1.0})

    def put(self, i):
        return self.store.put(self._spec(i), self.expected(i))

    def get(self, i):
        return self.store.get(self._spec(i))


class _Traces:
    name, site = "trace", "trace.put"

    def __init__(self, tmp_path):
        self.store = TraceStore(tmp_path)

    def expected(self, i):
        return Trace(
            key=TraceKey.create("micro-baseline", "hybrid", "-", kind="micro",
                                params={"iterations": 10 + i}),
            program_fingerprint="f" * 16, instructions=64, branch_count=3,
            branch_bits=b"\x05",
            mem_addrs=array("Q", range(4096, 4096 + 64 * 32, 64)),
            mem_pcs=array("I", [7, 9] * 16))

    def put(self, i):
        return self.store.put(self.expected(i))

    def get(self, i):
        return self.store.get(self.expected(i).key)


class _Artifacts:
    name, site = "artifact", "artifact.write"

    def __init__(self, tmp_path):
        self.store = ArtifactStore(tmp_path / "traces")

    def expected(self, i):
        return {"i": i}, {"data": bytes(range(i, i + 64))}

    def put(self, i):
        meta, sections = self.expected(i)
        return self.store.put("ab" * 8, "decode", {"i": i}, meta,
                              list(sections.items()))

    def get(self, i):
        return self.store.get("ab" * 8, "decode", {"i": i})


@pytest.fixture(params=[_Results, _Traces, _Artifacts],
                ids=["result", "trace", "artifact"])
def adapter(request, tmp_path):
    return request.param(tmp_path)


def test_torn_write_reads_as_miss_and_is_removed(adapter, monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV, f"{adapter.site}=torn")
    path = adapter.put(0)
    assert path is not None and path.exists()
    monkeypatch.delenv(faults.FAULTS_ENV)
    # Same store instance: nothing cached at put time may mask the tear.
    assert adapter.get(0) is None
    assert adapter.store.corrupted == 1 and adapter.store.misses == 1
    assert not path.exists()
    assert adapter.put(0) is not None
    assert adapter.get(0) == adapter.expected(0)


def test_three_consecutive_write_errors_degrade_once(adapter, monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV, f"{adapter.site}=os")
    with obs.recording() as rec:
        for i in range(4):
            assert adapter.put(i) is None
    assert adapter.store.degraded
    assert adapter.store.put_errors == adapter.store.DEGRADE_AFTER == 3
    assert rec.counters[f"degraded.store.{adapter.name}"] == 1


def test_successful_write_rearms_the_latch(adapter, monkeypatch):
    for i, spec in enumerate(["os", "os", "", "os", "os"]):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"{adapter.site}={spec}" if spec else "")
        assert (adapter.put(i) is None) == bool(spec)
    assert adapter.store.put_errors == 4 and not adapter.store.degraded


def test_degraded_store_still_serves_reads(adapter, monkeypatch):
    assert adapter.put(0) is not None
    monkeypatch.setenv(faults.FAULTS_ENV, f"{adapter.site}=os")
    for i in range(1, 4):
        assert adapter.put(i) is None
    assert adapter.store.degraded
    assert adapter.get(0) == adapter.expected(0)
    assert adapter.get(1) is None
    assert adapter.store.hits == 1 and adapter.store.corrupted == 0


def test_failed_rename_leaves_no_tmp_file(adapter, monkeypatch):
    def no_space(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    assert adapter.put(0) is None
    assert adapter.store.put_errors == 1
    assert list(adapter.store.root.rglob("*.tmp.*")) == []
    assert adapter.get(0) is None


def test_injected_trace_decode_error_reads_as_miss(tmp_path, monkeypatch):
    traces = _Traces(tmp_path)
    path = traces.put(0)
    monkeypatch.setenv(faults.FAULTS_ENV, "trace.decode=err")
    assert traces.get(0) is None
    assert traces.store.corrupted == 1 and not path.exists()
    monkeypatch.delenv(faults.FAULTS_ENV)
    assert traces.put(0) is not None
    assert traces.get(0) == traces.expected(0)
