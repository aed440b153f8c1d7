import json
import socket
import threading
import time

import numpy as np

from sysbench import fleet


def make_result(**kw):
    result = fleet.PhaseResult("r2", 4)
    n = kw.pop("n", 2000)
    lat = kw.pop("latency_s", 0.001)
    result.dues = [i * 0.001 for i in range(n)]
    result.latencies = [lat] * n
    result.lags = [kw.pop("lag_s", 0.0001)] * n
    for key, value in kw.items():
        setattr(result, key, value)
    return result


def test_a_quiet_rung_is_sustained():
    assert make_result().verdict() == "sustained"


def test_tail_over_the_limit_is_not_sustained():
    assert make_result(latency_s=0.25).verdict() == "not sustained (latency)"
    assert make_result(latency_s=0.19).verdict() == "sustained"


def test_a_growing_backlog_is_not_sustained():
    assert make_result(backlog_at_stop=fleet.BACKLOG_LIMIT).verdict() == "sustained"
    assert make_result(backlog_at_stop=fleet.BACKLOG_LIMIT + 1).verdict() == "not sustained (backlog)"
    assert make_result(aborted=True).verdict() == "not sustained (backlog)"


def test_any_failure_is_not_sustained():
    assert make_result(failed=1).verdict() == "not sustained (failures)"


def test_a_late_generator_invalidates_the_rung():
    assert make_result(lag_s=0.006).verdict() == "invalid (generator lag)"


class StallingServer:
    """Answers chunk requests in order; stalls once, for every connection,
    after ``stall_after`` requests."""

    def __init__(self, stall_after: int, stall_s: float) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.stall_after, self.stall_s = stall_after, stall_s
        self.lock = threading.Lock()
        self.seen = 0
        self.stall_window = None
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                doc = json.loads(line)
                with self.lock:
                    self.seen += 1
                    if self.seen == self.stall_after:
                        start = time.perf_counter()
                        time.sleep(self.stall_s)
                        self.stall_window = (start, time.perf_counter())
                reply = {"ok": True, "op": "chunk", "stream_id": doc["stream_id"], "seq": doc["seq"]}
                conn.sendall((json.dumps(reply) + "\n").encode())

    def close(self):
        self.listener.close()


def fake_inputs(n_blocks: int = 64) -> fleet.FleetInputs:
    payload = b',"samples":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]}\n'
    return fleet.FleetInputs(
        model=None,
        streams=[np.zeros(10 * n_blocks)] * fleet.N_STREAMS,
        chunk_samples=10,
        prefixes=[
            b'{"op":"chunk","stream_id":"%s","seq":' % fleet.stream_id(k).encode()
            for k in range(fleet.N_STREAMS)
        ],
        payloads=[[payload] * n_blocks] * fleet.N_STREAMS,
        encode_cpu_s=0.0,
    )


def test_latency_runs_from_the_due_time_through_a_server_stall(monkeypatch):
    monkeypatch.setattr(fleet, "WARMUP_S", 0.0)
    server = StallingServer(stall_after=300, stall_s=0.3)
    conns = [fleet.Conn(server.port) for _ in range(2)]
    try:
        t_start = time.perf_counter()
        result = fleet.open_loop(conns, fake_inputs(), "r2", mult=1, seconds=1.2)
    finally:
        for conn in conns:
            conn.close()
        server.close()
    assert result.failed == 0 and result.sent == len(result.latencies)
    stall_start, stall_end = (t - t_start for t in server.stall_window)
    due = np.asarray(result.dues)
    done = due + np.asarray(result.latencies)
    queued = (due > stall_start + 0.02) & (due < stall_end - 0.05)
    # Open loop: the client kept sending through the stall, at the
    # schedule's 1,280 requests/s ...
    assert queued.sum() > 0.8 * 1280 * (stall_end - stall_start - 0.07)
    # ... and each queued request is charged from its due time to the end
    # of the stall, so later requests show proportionally less latency.
    assert np.all(done[queued] >= stall_end - 0.02)
    assert np.all(done[queued] <= stall_end + 0.15)
    assert max(result.latencies) > 0.25
