"""Campaign generation: the simulated equivalent of the paper's testbed.

The paper performed 151 benign and 100 malicious prints per printer
(Table I).  :func:`generate_campaign` reproduces that structure at a
configurable (much smaller by default) scale: one reference run, a training
set for OCC, a benign test set, and ``n_attack_runs`` runs of each Table I
attack — every run with fresh time noise and fresh sensor noise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..attacks.base import Attack, PrintJob
from ..attacks.gcode_attacks import TABLE_I_ATTACKS
from ..printer.firmware import simulate_print
from ..printer.machine import MachineConfig, ROSTOCK_MAX_V3, ULTIMAKER3
from ..printer.noise import TimeNoiseModel
from ..sensors.daq import DataAcquisition, default_daq
from ..signals.signal import Signal
from ..slicer.models import gear_outline
from ..slicer.slicer import SlicerConfig
from ..sync.dwm import DwmParams, RM3_DWM_PARAMS, UM3_DWM_PARAMS

__all__ = [
    "PrinterSetup",
    "ProcessRun",
    "Campaign",
    "CampaignPlan",
    "campaign_requests",
    "default_setup",
    "generate_campaign",
    "reference_from_gcode",
    "run_process",
]


@dataclass(frozen=True)
class PrinterSetup:
    """A printer plus everything needed to run the evaluation on it."""

    key: str
    machine: MachineConfig
    dwm_params: DwmParams
    slicer_config: SlicerConfig
    noise: TimeNoiseModel
    center: Tuple[float, float]

    def job(self, outline: Optional[np.ndarray] = None) -> PrintJob:
        """Slice the (default: scaled-down paper gear) for this printer."""
        if outline is None:
            outline = gear_outline()
        return PrintJob.slice(outline, self.slicer_config, center=self.center)


@dataclass(frozen=True)
class ProcessRun:
    """One simulated printing process, observed through every side channel."""

    label: str
    is_malicious: bool
    signals: Dict[str, Signal]
    layer_times: Tuple[float, ...]
    duration: float


@dataclass(frozen=True)
class CampaignPlan:
    """Everything needed to (re-)execute a campaign's runs on demand.

    The backing of :class:`Campaign`: the ordered request list plus the
    engine/DAQ to execute it through.  With a warm
    :class:`~repro.cache.RunCache` behind the engine, "executing" a run is
    a metadata read + memmap open, so a plan can be swept over many times
    (one pass per evaluation cell) without ever holding more than one
    run's working set in memory.  :meth:`Campaign.materialize` resolves
    every run once and stores them in :attr:`runs`; from then on the plan
    serves runs from memory and holds no engine.
    """

    setup: PrinterSetup
    requests: Tuple["RunRequest", ...]  # noqa: F821 - engine import cycle
    attack_names: Tuple[str, ...]
    n_train: int
    n_benign_test: int
    n_attack_runs: int
    channels: Optional[Tuple[str, ...]]
    #: CampaignEngine (kept loose: engine imports dataset); ``None`` once
    #: materialized, so the engine's worker pool is not kept alive.
    engine: object
    daq: DataAcquisition
    #: Every run in request order, once resolved by ``materialize()``.
    runs: Optional[Tuple[ProcessRun, ...]] = field(
        default=None, repr=False, compare=False
    )

    def _runs(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[ProcessRun]:
        """Runs ``start:stop`` in request order: the resolved ones when
        present, else streamed through the engine."""
        if self.runs is not None:
            return iter(self.runs[start:stop])
        stream = self.engine.iter_execute(
            self.requests[start:stop], daq=self.daq, channels=self.channels
        )
        return (run for _request, run in stream)

    def run_at(self, index: int) -> ProcessRun:
        """One run by stream index (typically: loaded from cache)."""
        return next(self._runs(index, index + 1))

    def iter_runs(self) -> Iterator[Tuple[str, ProcessRun]]:
        """Stream every run, in order, tagged with its campaign role."""
        for index, run in enumerate(self._runs()):
            yield self.role_of(index), run

    def role_of(self, index: int) -> str:
        """The campaign role of stream position ``index``."""
        if index == 0:
            return "reference"
        if index <= self.n_train:
            return "training"
        if index <= self.n_train + self.n_benign_test:
            return "benign"
        return "malicious"


class _RunView(Sequence):
    """A read-only run sequence backed by a :class:`CampaignPlan` slice.

    Indexing resolves exactly the requested run through the plan (a cache
    hit on any warmed campaign); nothing is retained between accesses, so
    iterating a view never accumulates run payloads.
    """

    __slots__ = ("_plan", "_start", "_count")

    def __init__(self, plan: CampaignPlan, start: int, count: int) -> None:
        self._plan = plan
        self._start = start
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self._plan.run_at(self._start + index)

    def __repr__(self) -> str:
        return f"_RunView({self._count} runs @ {self._start})"


class Campaign:
    """The full dataset for one printer: Table I at configurable scale.

    A view over one :class:`CampaignPlan`: ``training`` / ``benign_test``
    / ``malicious_test`` are sequences that resolve runs through the plan
    as they are indexed, and :meth:`iter_runs` streams the whole campaign
    in one :meth:`~repro.eval.engine.CampaignEngine.iter_execute` pass
    without ever materializing it.  :meth:`materialize` executes every
    run up front instead, for callers that sweep a campaign many times
    without a run cache.
    """

    def __init__(self, setup: PrinterSetup, plan: CampaignPlan) -> None:
        self.setup = setup
        self.plan = plan
        self._reference: Optional[ProcessRun] = None
        n_train, n_test = plan.n_train, plan.n_benign_test
        self.training: Sequence[ProcessRun] = _RunView(plan, 1, n_train)
        self.benign_test: Sequence[ProcessRun] = _RunView(
            plan, 1 + n_train, n_test
        )
        self.malicious_test: Dict[str, Sequence[ProcessRun]] = {}
        cursor = 1 + n_train + n_test
        for name in plan.attack_names:
            self.malicious_test[name] = _RunView(
                plan, cursor, plan.n_attack_runs
            )
            cursor += plan.n_attack_runs

    def materialize(self) -> "Campaign":
        """This campaign with every run executed now, in one engine batch.

        The returned campaign's plan holds the resolved runs (and no
        engine), so indexing and streaming it never execute anything.
        """
        plan = self.plan
        runs = plan.engine.execute(
            plan.requests, daq=plan.daq, channels=plan.channels
        )
        return Campaign(
            self.setup, replace(plan, runs=tuple(runs), engine=None)
        )

    @property
    def reference(self) -> ProcessRun:
        if self._reference is None:
            # Memoized: the reference anchors every evaluation pass, so it
            # is resolved once (a cache hit when warmed).
            self._reference = self.plan.run_at(0)
        return self._reference

    @property
    def channels(self) -> Tuple[str, ...]:
        return tuple(self.reference.signals)

    @property
    def n_benign_test(self) -> int:
        return len(self.benign_test)

    @property
    def n_malicious_test(self) -> int:
        return sum(len(runs) for runs in self.malicious_test.values())

    def all_malicious(self) -> List[ProcessRun]:
        out: List[ProcessRun] = []
        for runs in self.malicious_test.values():
            out.extend(runs)
        return out

    def iter_runs(self) -> Iterator[Tuple[str, ProcessRun]]:
        """Stream ``(role, run)`` over the whole campaign, in order.

        Roles are ``"reference"``, ``"training"``, ``"benign"``, and
        ``"malicious"`` — emitted in exactly that order, so a streaming
        consumer can finish training before the first test run arrives.
        An unmaterialized campaign streams through the engine (each run
        held only for its own iteration).
        """
        return self.plan.iter_runs()


def default_setup(
    printer: str = "UM3",
    object_height: float = 0.6,
    infill_spacing: float = 6.0,
    noise: Optional[TimeNoiseModel] = None,
) -> PrinterSetup:
    """The evaluation configuration for one of the paper's two printers.

    ``object_height`` defaults to a thin 3-layer slice of the paper's
    7.5 mm gear so campaigns stay laptop-sized; pass 7.5 for the full part.
    """
    noise = noise if noise is not None else TimeNoiseModel()
    slicer_config = SlicerConfig(
        object_height=object_height, infill_spacing=infill_spacing
    )
    if printer.upper() == "UM3":
        return PrinterSetup(
            key="UM3",
            machine=ULTIMAKER3,
            dwm_params=UM3_DWM_PARAMS,
            slicer_config=slicer_config,
            noise=noise,
            center=(110.0, 110.0),
        )
    if printer.upper() == "RM3":
        # Table IV's RM3 search window (t_ext = 0.1 s) is tight relative to
        # our simulator's drift rate; following the paper's own procedure
        # ("if DWM is unable to converge, crank up [eta] until DWM
        # converges", Section VI-C) the evaluation uses eta = 0.3.
        return PrinterSetup(
            key="RM3",
            machine=ROSTOCK_MAX_V3,
            dwm_params=replace(RM3_DWM_PARAMS, eta=0.3),
            slicer_config=slicer_config,
            noise=noise,
            center=(0.0, 0.0),
        )
    raise ValueError(f"unknown printer {printer!r}; expected 'UM3' or 'RM3'")


def run_process(
    setup: PrinterSetup,
    job: PrintJob,
    label: str,
    is_malicious: bool,
    seed: int,
    daq: Optional[DataAcquisition] = None,
    channels: Optional[Sequence[str]] = None,
) -> ProcessRun:
    """Simulate one printing process and record its side channels."""
    daq = daq or default_daq()
    trace = simulate_print(job.program, setup.machine, setup.noise, seed=seed)
    signals = daq.acquire(
        trace, np.random.default_rng(seed + 7_919), channels=channels
    )
    return ProcessRun(
        label=label,
        is_malicious=is_malicious,
        signals=signals,
        layer_times=tuple(trace.layer_change_times),
        duration=trace.duration,
    )


def reference_from_gcode(
    setup: PrinterSetup,
    program,
    channel: str = "ACC",
    daq: Optional[DataAcquisition] = None,
) -> Signal:
    """Simulate a G-code file to obtain a reference signal (paper §IV).

    The paper lists two ways to acquire a trusted reference: certify a
    physical benign print, or *simulate the process from its G-code file*
    ([9], [12]).  This helper is the second way: a noiseless, nominal-speed
    execution of the program through the same sensor models.
    """
    from ..printer.noise import NO_TIME_NOISE

    daq = daq or default_daq()
    trace = simulate_print(program, setup.machine, NO_TIME_NOISE, seed=0)
    return daq.acquire(
        trace, np.random.default_rng(0), channels=[channel]
    )[channel]


def campaign_requests(
    setup: PrinterSetup,
    job: Optional[PrintJob] = None,
    n_train: int = 10,
    n_benign_test: int = 10,
    attacks: Optional[Iterable[Attack]] = None,
    n_attack_runs: int = 2,
    seed: int = 0,
) -> Tuple[Tuple["RunRequest", ...], Tuple[str, ...]]:  # noqa: F821
    """Build the ordered campaign request list with seeds pre-assigned.

    Returns ``(requests, attack_names)``.  Seeds come from an *unbounded*
    sequential stream (``itertools.count(seed * 1_000_003)``) consumed in
    the exact order the serial implementation always has — reference,
    training, benign test, then attack runs — so existing campaigns keep
    their exact seed assignment while paper-scale (and larger) campaigns
    no longer hit the historical 10,000-seed ceiling.
    """
    from .engine import RunRequest

    job = job if job is not None else setup.job()
    attacks = list(attacks) if attacks is not None else TABLE_I_ATTACKS()
    seq = itertools.count(seed * 1_000_003)

    requests = [RunRequest(setup, job, "Reference", False, next(seq))]
    requests += [
        RunRequest(setup, job, "Benign", False, next(seq))
        for _ in range(n_train)
    ]
    requests += [
        RunRequest(setup, job, "Benign", False, next(seq))
        for _ in range(n_benign_test)
    ]
    attack_names: List[str] = []
    for attack in attacks:
        attacked = attack.apply(job)
        attack_names.append(attack.name)
        requests += [
            RunRequest(setup, attacked, attack.name, True, next(seq))
            for _ in range(n_attack_runs)
        ]
    return tuple(requests), tuple(attack_names)


def generate_campaign(
    setup: Optional[PrinterSetup] = None,
    channels: Sequence[str] = ("ACC", "MAG", "AUD", "EPT"),
    n_train: int = 10,
    n_benign_test: int = 10,
    attacks: Optional[Iterable[Attack]] = None,
    n_attack_runs: int = 2,
    seed: int = 0,
    daq: Optional[DataAcquisition] = None,
    workers: int = 0,
    cache=None,
    engine=None,
    materialize: bool = True,
) -> Campaign:
    """Generate a full campaign (reference + training + test sets).

    The paper's full scale is ``n_train=50, n_benign_test=100,
    n_attack_runs=20`` per printer; the defaults here are a faithful but
    laptop-sized rendition of the same structure.

    Execution goes through a :class:`~repro.eval.engine.CampaignEngine`:
    ``workers`` fans the independent simulations out over processes (``0``
    keeps the serial in-process path), and ``cache`` (a directory path or
    :class:`~repro.cache.RunCache`) memoizes runs on disk.  Seeds are
    assigned from the sequential stream *before* dispatch
    (:func:`campaign_requests`), so every ``workers`` setting produces
    bit-identical signals.  Pass a pre-configured ``engine`` to share a
    cache/pool and read back its ``stats``; it overrides
    ``workers``/``cache``.

    ``materialize=False`` returns the campaign unexecuted: no run is
    executed up front, and evaluation passes stream runs through the
    engine one at a time (:meth:`Campaign.iter_runs`).  Attach a cache
    when such a campaign will be swept more than once — each pass
    re-resolves runs through the engine, which is only cheap when it
    hits.  The default executes every run now
    (:meth:`Campaign.materialize`).
    """
    from .engine import CampaignEngine

    setup = setup or default_setup()
    daq = daq or default_daq()
    job = setup.job()
    requests, attack_names = campaign_requests(
        setup,
        job=job,
        n_train=n_train,
        n_benign_test=n_benign_test,
        attacks=attacks,
        n_attack_runs=n_attack_runs,
        seed=seed,
    )
    if engine is None:
        engine = CampaignEngine(workers=workers, cache=cache)
    campaign = Campaign(
        setup,
        CampaignPlan(
            setup=setup,
            requests=requests,
            attack_names=attack_names,
            n_train=n_train,
            n_benign_test=n_benign_test,
            n_attack_runs=n_attack_runs,
            channels=tuple(channels) if channels is not None else None,
            engine=engine,
            daq=daq,
        ),
    )
    return campaign.materialize() if materialize else campaign
