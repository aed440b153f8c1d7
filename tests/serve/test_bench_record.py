"""The serve bench record shared by ``repro loadgen`` and the benchmark."""

import os

import pytest

from repro.serve.loadgen import LoadgenResult, bench_record


def _result(samples_per_s=84_141.5):
    return LoadgenResult(
        n_streams=64, total_samples=128_000, total_chunks=640,
        elapsed_s=1.5, ingest_p50_ms=69.0, ingest_p99_ms=84.0,
        ingest_mean_ms=69.0, samples_per_s=samples_per_s, resumes=0,
    )


def _record(shards, cpu_count, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    return bench_record(
        _result(), chunk_samples=200, pace=0.0, shards=shards,
        sample_rate=200.0, verified=True,
    )


def test_streams_per_core_counts_only_cores_the_machine_has(monkeypatch):
    record = _record(shards=2, cpu_count=1, monkeypatch=monkeypatch)
    assert record["cores_used"] == 3
    assert record["streams_per_core"] == pytest.approx(420.707, abs=1e-3)


def test_streams_per_core_divides_by_cores_used(monkeypatch):
    record = _record(shards=2, cpu_count=8, monkeypatch=monkeypatch)
    assert record["streams_per_core"] == pytest.approx(84_141.5 / 200 / 3, abs=1e-3)
    assert _record(0, 8, monkeypatch)["cores_used"] == 1


def test_record_is_marked_closed_loop(monkeypatch):
    record = _record(shards=2, cpu_count=1, monkeypatch=monkeypatch)
    assert record["name"] == "serve_loadgen"
    assert record["loop"] == "closed"
    assert record["verified"] is True and record["mismatches"] == 0
