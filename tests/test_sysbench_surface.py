"""The program surface the ``sysbench`` benchmark drives.

``sysbench/`` imports these names, wraps some of them to time layers, and
feeds campaigns through an engine stand-in that has nothing but
``iter_execute``.  A refactor that moves or renames one of them, or that
makes a lazy campaign touch its engine any other way, breaks the
benchmark without breaking any other test; this module pins the contract.
"""

from __future__ import annotations

import importlib

import pytest

from repro.attacks import TABLE_I_ATTACKS
from repro.cache import RunCache
from repro.eval.dataset import default_setup, generate_campaign
from repro.eval.engine import CampaignEngine
from repro.eval.experiments import nsync_results

#: ``module:attribute.path`` of every name the benchmark resolves.
SURFACE = (
    "repro.serve.server:decode_request",
    "repro.serve.server:samples_to_array",
    "repro.serve.server:encode",
    "repro.serve.server:FleetServer._handle_line",
    "repro.serve.server:FleetServer.checkpoint_now",
    "repro.serve.checkpoint:CheckpointStore.save",
    "repro.serve.shard:ShardPool.chunk",
    "repro.serve.shard:EngineHost.chunk",
    "repro.cache:RunCache.put",
    "repro.cache:RunCache.get",
    "repro.cache:RunCache.get_lazy",
    "repro.cache:run_cache_key",
    "repro.eval.dataset:simulate_print",
    "repro.eval.dataset:campaign_requests",
    "repro.eval.dataset:run_process",
    "repro.eval.dataset:default_setup",
    "repro.eval.dataset:generate_campaign",
    "repro.eval.experiments:spectrogram",
    "repro.eval.experiments:nsync_results",
    "repro.eval.engine:CampaignEngine.iter_execute",
    "repro.core.pipeline:NsyncIds.analyze",
    "repro.sensors.daq:DataAcquisition.acquire",
    "repro.sensors.daq:default_daq",
    "repro.serve.loadgen:offline_verdict",
    "repro.eval.throughput:ThroughputWorkload",
    "repro.serve.model:ServeModel",
    "repro.core.discriminator:Thresholds",
    "repro.sync.dwm:DwmParams",
    "repro.cli:main",
)


@pytest.mark.parametrize("name", SURFACE)
def test_name_resolves(name):
    module_name, path = name.split(":")
    obj = importlib.import_module(module_name)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), name


class IterExecuteOnly:
    """An engine with nothing but ``iter_execute``, logging each stream.

    Any other attribute access fails the test, so a campaign that reaches
    for ``execute``, ``cache`` or ``stats`` is caught here.
    """

    def __init__(self, engine):
        self._engine = engine
        self.streams = []

    def iter_execute(self, requests, *args, **kwargs):
        requests = list(requests)
        self.streams.append(len(requests))
        return self._engine.iter_execute(requests, *args, **kwargs)

    def __getattr__(self, name):
        raise AssertionError(f"lazy campaign touched engine.{name}")


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    return RunCache(tmp_path_factory.mktemp("surface-cache"))


CAMPAIGN_KW = dict(
    channels=("ACC",),
    n_train=2,
    n_benign_test=2,
    n_attack_runs=1,
    seed=5,
)


def test_lazy_campaign_opens_one_stream_per_evaluation(warm_cache):
    setup = default_setup("UM3", object_height=0.4)
    attacks = TABLE_I_ATTACKS()[:2]
    stub = IterExecuteOnly(CampaignEngine(workers=0, cache=warm_cache))
    campaign = generate_campaign(
        setup, attacks=attacks, engine=stub, materialize=False, **CAMPAIGN_KW
    )
    assert stub.streams == []  # planning runs no run

    n_runs = 1 + 2 + 2 + len(attacks)
    first = nsync_results(campaign, "ACC", "Raw")
    assert stub.streams == [n_runs]  # the reference came from that stream
    second = nsync_results(campaign, "ACC", "Raw")
    assert stub.streams == [n_runs, n_runs]
    assert first.overall.__dict__ == second.overall.__dict__
