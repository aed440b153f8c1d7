import asyncio
import json
import multiprocessing
import time

import pytest

from sysbench import ledger as L


def burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_sync_spans_nest_and_carry_cpu(tmp_path):
    led = L.Ledger(tmp_path)
    inner = L.traced(led, "inner", lambda: burn(0.01))
    outer = L.traced(led, "outer", lambda: (burn(0.01), inner()))
    led.rid = "s/1"
    outer()
    (o, i) = led.spans
    assert o[L.NAME] == "outer" and i[L.PARENT] == 0 and o[L.PARENT] == -1
    assert i[L.RID] == o[L.RID] == "s/1"
    assert o[L.CPU] >= i[L.CPU] >= 0.009
    rows = L.summarize(led.spans)
    assert rows["outer"]["cpu"] == o[L.CPU] and rows["inner"]["calls"] == 1
    assert rows["outer"]["top_cpu"] == o[L.CPU] and rows["inner"]["top_cpu"] == 0.0


def test_coroutine_spans_exclude_suspended_time(tmp_path):
    led = L.Ledger(tmp_path)

    async def work():
        burn(0.02)
        await asyncio.sleep(0.15)
        burn(0.02)
        return 7

    async def outer():
        return await L.traced_async(led, "inner", work)()

    assert asyncio.run(L.traced_async(led, "outer", outer)()) == 7
    (o, i) = led.spans
    assert i[L.PARENT] == 0
    assert i[L.END] - i[L.START] >= 0.15
    assert 0.035 <= i[L.CPU] < 0.1
    assert o[L.CPU] >= i[L.CPU]


def test_coroutine_span_closes_when_it_raises(tmp_path):
    led = L.Ledger(tmp_path)

    async def boom():
        await asyncio.sleep(0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        asyncio.run(L.traced_async(led, "boom", boom)())
    assert led.spans[0][L.END] > 0 and led.stack == []


def test_marks_bound_the_window(tmp_path):
    led = L.Ledger(tmp_path)
    f = L.traced(led, "f", lambda: None)
    f()
    led.mark()
    f()
    f()
    led.mark()
    f()
    assert led.window() == (1, 3)
    assert L.summarize(led.spans, *led.window())["f"]["calls"] == 2


def _child(led_fn):
    led_fn()


def test_a_forked_process_keeps_and_flushes_its_own_spans(tmp_path):
    led = L.Ledger(tmp_path)
    f = L.traced(led, "f", lambda: None)
    f()  # a parent span the child must not re-flush
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_child, args=(f,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    processes = L.read_spans(tmp_path)
    assert [len(spans) for spans in processes] == [1]
    assert processes[0][0][L.NAME] == "f"


def test_stage_deltas_match_by_suffix_and_include_nested_spans():
    def row(cpu, count):
        return {"cpu_total_s": cpu, "count": count}

    before = {"a/repro.core.engine.push/synchronize": row(1.0, 10)}
    after = {
        "a/repro.core.engine.push/synchronize": row(3.0, 30),
        "a/repro.core.engine.push/synchronize/repro.sync.dwm.window": row(0.5, 5),
        "a/repro.core.engine.push/sanitize": row(0.25, 20),
    }
    out = L.stage_deltas(before, after)
    assert out["synchronize"] == {"cpu": 2.0, "calls": 20}
    assert out["sanitize"] == {"cpu": 0.25, "calls": 20}
    assert out["compare"] == {"cpu": 0.0, "calls": 0}


def test_flush_writes_json_lines_once(tmp_path):
    led = L.Ledger(tmp_path)
    L.traced(led, "f", lambda: None)()
    led.flush()
    led.flush()
    lines = (tmp_path / f"{led.pid}.jsonl").read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])[L.NAME] == "f"
