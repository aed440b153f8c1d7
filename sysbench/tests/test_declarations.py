"""BENCHMARK.json and the metrics the harness prints must agree."""

import json
import re

import pytest

from sysbench.common import (
    E2E_METRICS,
    LAYER_METRICS,
    ROOT,
    WORKLOADS,
    BenchError,
    layer_row,
    result_line,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 1 <= len(bench["paths"]) <= 16
    assert all(PATH.match(p) and ".." not in p and not p.startswith("/") for p in bench["paths"])
    assert len(bench["command"]) <= 32 and all(len(a) <= 200 for a in bench["command"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_harness(bench):
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_every_printed_end_to_end_metric_is_declared_and_vice_versa(bench):
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == E2E_METRICS
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_printed_layer_metric_is_declared_and_vice_versa(bench):
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == LAYER_METRICS
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")


def test_names_and_units_follow_the_contract(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])


def test_result_line_prints_exactly_the_declared_metrics():
    values = {name: 1.5 for name in E2E_METRICS}
    doc = json.loads(result_line(True, 3, 0, values, E2E_METRICS))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(BenchError):
        result_line(True, 3, 0, {**values, "extra": 1.0}, E2E_METRICS)
    with pytest.raises(BenchError):
        result_line(True, 3, 0, {"setup_s": 1.0}, E2E_METRICS)


def test_layer_row_fills_unused_layers_and_rejects_unknown_ones():
    row = layer_row({"cache.hit_ratio": 1.0})
    assert set(row) == set(LAYER_METRICS) and row["cache.hit_ratio"] == 1.0
    assert row["core.nsync.analyze.cps"] == 0.0
    with pytest.raises(BenchError):
        layer_row({"no.such.layer": 1.0})
