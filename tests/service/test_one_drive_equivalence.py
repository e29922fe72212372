"""The one service loop reproduces the dedicated loops it replaced.

The paper's single-drive jukebox runs as the ``drive_count=1`` case of
:class:`~repro.service.JukeboxSimulator`.  Every value pinned below was
captured from the dedicated single-drive, multi-drive, and write-back
loops before they were folded into the one loop, so a drift in the
one-drive rules (no claim filter, every mid-sweep arrival offered to the
incremental scheduler, the exchange as one timed operation, planning
straight after an idle wake) shows up here.  The 14 golden-hash cases in
``tests/test_golden_hashes.py`` cover the figure configurations; this
matrix covers the fault, QoS, open-loop, write-back, and hierarchy paths
those cases leave out.
"""

import random

import pytest

from repro.core import make_scheduler
from repro.core.exact import OrderedServiceList, sweep_order
from repro.des import Environment
from repro.experiments import ExperimentConfig
from repro.experiments.runner import build_simulator
from repro.faults import FaultConfig, RetryPolicy
from repro.hierarchy.simulator import HierarchySimulator, _TapeOnlySource
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.obs import Tracer
from repro.qos import QoSConfig
from repro.service import JukeboxSimulator, MetricsCollector, WritebackSimulator
from repro.service.metrics import report_digest
from repro.workload import ClosedSource, HotColdSkew, OpenSource

BASE = ExperimentConfig(
    tape_count=5, queue_length=20, horizon_s=100_000.0, seed=11
)
OPEN = BASE.with_(queue_length=None, mean_interarrival_s=150.0)
REPLICATED = dict(replicas=2, layout=Layout.VERTICAL, start_position=1.0)
MTBF = FaultConfig(drive_mtbf_s=5_000.0, drive_mttr_s=500.0, seed=3)
#: Robot mis-picks with a two-attempt budget: some cartridges get stuck.
PICK = FaultConfig(
    robot_pick_error_rate=0.2,
    seed=3,
    retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
)
FAULTS_QOS = BASE.with_(
    scheduler="static-max-bandwidth",
    faults=FaultConfig(
        media_error_rate=0.05,
        bad_replica_rate=0.02,
        robot_pick_error_rate=0.02,
        retry=RetryPolicy(),
    ),
    qos=QoSConfig(deadline_s=4000.0, starvation_age_s=6000.0),
    **REPLICATED,
)

CASES = {
    "mtbf_closed": BASE.with_(scheduler="dynamic-max-bandwidth", faults=MTBF),
    "mtbf_open": OPEN.with_(scheduler="dynamic-max-bandwidth", faults=MTBF),
    # Lightly loaded: drive failures come due while the drive is idle.
    "mtbf_open_idle": OPEN.with_(
        scheduler="dynamic-max-bandwidth",
        mean_interarrival_s=400.0,
        faults=FaultConfig(drive_mtbf_s=3_000.0, drive_mttr_s=300.0, seed=3),
    ),
    "mtbf_open_envelope": OPEN.with_(
        scheduler="envelope-max-requests", faults=MTBF
    ),
    "robot_pick_stuck": BASE.with_(
        scheduler="dynamic-max-bandwidth", faults=PICK, **REPLICATED
    ),
    "robot_pick_envelope": BASE.with_(
        scheduler="envelope-max-bandwidth",
        faults=FaultConfig(
            robot_pick_error_rate=0.1,
            seed=3,
            retry=RetryPolicy(max_attempts=4, base_backoff_s=1.0),
        ),
        **REPLICATED,
    ),
    "open_fifo": OPEN.with_(scheduler="fifo"),
    "open_envelope": OPEN.with_(scheduler="envelope-max-requests"),
    "qos_bounded_queue_expiry": OPEN.with_(
        scheduler="dynamic-max-requests",
        mean_interarrival_s=100.0,
        qos=QoSConfig(deadline_s=3000.0, admission="bounded-queue", max_pending=10),
    ),
    "faults_qos_static": FAULTS_QOS,
    # Multi-drive cases: the shared-arm path is unchanged too.
    "two_drive_overload": OPEN.with_(
        scheduler="dynamic-max-bandwidth",
        drive_count=2,
        capacity_mb=2000.0,
        mean_interarrival_s=40.0,
        faults=FaultConfig(media_error_rate=0.02, retry=RetryPolicy()),
        qos=QoSConfig(deadline_s=6000.0, admission="bounded-queue", max_pending=120),
        **REPLICATED,
    ),
    "two_drive_mtbf_closed": BASE.with_(
        scheduler="dynamic-max-bandwidth", drive_count=2, faults=MTBF
    ),
    "two_drive_mtbf_open": OPEN.with_(
        scheduler="dynamic-max-bandwidth", drive_count=2, faults=MTBF
    ),
    "two_drive_pick_stuck": BASE.with_(
        scheduler="dynamic-max-bandwidth", drive_count=2, faults=PICK, **REPLICATED
    ),
    "two_drive_open_fifo": OPEN.with_(scheduler="fifo", drive_count=2),
}

GOLDEN = {
    "mtbf_closed": "68f20364c91559390f45ffe86b7184389524744774968ced8546aa1d90f28f17",
    "mtbf_open": "75ccfb9ac417119a0855268c49d2a0110b53734519b2a315b4d0dadc6c90d862",
    "mtbf_open_idle": "f94c4d9dbb1bc493a6b7724c4d013376a1da2b91798d23fe9aaf1dc63b26b153",
    "mtbf_open_envelope": "79003716a1c3a61e3cc4f9d6034d7cd4f80ca959fe77eed3da1b020d7e60b3f6",
    "robot_pick_stuck": "4cdebb467bc1d6d0c263675425a6032c7a8fb8ff03bd2cb54faa1c1223c2c81e",
    "robot_pick_envelope": "bf03be9f399f86d784cd46e6dc5a13f5f3cc667b14dea8b59f31c64c3e18ca61",
    "open_fifo": "dc97f02c1f554dfc1c314d93d7a7b6ab077c9c525abe2c8f95eee4e23897ecf3",
    "open_envelope": "13791207b0aa8db0c5ae7195b82635acb60daafabaf7fcb35241c0eef3da77a2",
    "qos_bounded_queue_expiry": "3ee499b9229b3b49bb5e082646e3dcd82d217b408c58005c07f5b3fda64181a5",
    "faults_qos_static": "be80d6f7e2080c6dd230a4952614b84ed98689635f73e5944c3aca0ad8e6cf11",
    "two_drive_overload": "d13a3baec7540e37255cb12482de43a67e6ad77c4ae5c30a00bfcac8ae8456da",
    "two_drive_mtbf_closed": "5edfe6fc29ca16c4e973c98dbccfcbccbd5ad5a9ba6df3c56e248f45ba2a249e",
    "two_drive_mtbf_open": "f2a7bc190d4b4a4dec614e6a8c4e53813fd558950749cb10be08ee5027be66e8",
    "two_drive_pick_stuck": "f9962c52b3cd834a81388fb36c8df417fce299f829d5962a64e6cff8a0e2903b",
    "two_drive_open_fifo": "73f72638d841e8939caeb636468eb9533821550015ce576c967cb8838f7eebca",
}


def run_case(config, obs=None):
    simulator = build_simulator(config, obs=obs)
    return simulator, simulator.run(config.horizon_s)


def test_case_matrix_is_fully_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equivalence_digest(name):
    _, report = run_case(CASES[name])
    assert report_digest(report) == GOLDEN[name], name


def test_cases_exercise_their_paths():
    """Each pinned case really reaches the branch it is there for."""
    _, idle = run_case(CASES["mtbf_open_idle"])
    assert idle.drive_failures > 0
    simulator, stuck = run_case(CASES["robot_pick_stuck"])
    assert stuck.fault_counts["robot-pick"] > 0 and stuck.retries > 0
    assert simulator.faults.failed_tapes == {2, 4}  # fail_tape was reached
    _, expiry = run_case(CASES["qos_bounded_queue_expiry"])
    assert expiry.expired_requests > 0 and expiry.shed_requests > 0


def test_traced_equals_untraced_at_one_drive_under_faults_and_qos():
    tracer = Tracer()
    _, traced = run_case(FAULTS_QOS, obs=tracer)
    _, untraced = run_case(FAULTS_QOS)
    assert report_digest(traced) == report_digest(untraced)
    assert report_digest(traced) == GOLDEN["faults_qos_static"]
    # One taxonomy at every drive count: faults are events, drive time
    # is spans.
    assert {"media-error", "retry"} <= {event.kind for event in tracer.events}
    assert {"switch", "read"} <= {span.kind for span in tracer.drive_spans}
    assert "fault" not in {span.kind for span in tracer.drive_spans}


BLOCK = 16.0


def tape_simulator(cls, catalog, source, **kwargs):
    return cls(
        env=Environment(),
        catalog=catalog,
        source=source,
        metrics=MetricsCollector(block_mb=BLOCK),
        scheduler_factory=lambda: make_scheduler("dynamic-max-bandwidth"),
        **kwargs,
    )


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, 7 * 1024.0)


#: name -> ((queue length, read interarrival, write interarrival),
#:          (written, piggybacked, idle flush sweeps, throughput KB/s,
#:           mean response s))
WRITEBACK = {
    "closed": ((10, None, 200.0), (944, 946, 0, 71.10656, 2272.6383317972377)),
    "open": ((None, 300.0, 150.0), (1234, 1210, 7, 58.49088, 2564.9373581991254)),
    "open_write_heavy": (
        (None, 600.0, 100.0),
        (1832, 1500, 32, 27.11552, 1884.7937699157485),
    ),
}


@pytest.mark.parametrize("name", sorted(WRITEBACK))
def test_writeback_equivalence(catalog, name):
    (queue_length, interarrival, write_interarrival), expected = WRITEBACK[name]
    rng = random.Random(5)
    skew = HotColdSkew(40.0)
    if queue_length is not None:
        source = ClosedSource(queue_length, skew, catalog, rng)
    else:
        source = OpenSource(interarrival, skew, catalog, rng)
    simulator = tape_simulator(
        WritebackSimulator,
        catalog,
        source,
        write_interarrival_s=write_interarrival,
        write_rng=random.Random(6),
    )
    report = simulator.run(200_000.0)
    assert (
        simulator.delta.written_total,
        simulator.piggybacked_writes,
        simulator.idle_flush_sweeps,
        report.throughput_kb_s,
        report.mean_response_s,
    ) == expected


def test_hierarchy_equivalence(catalog):
    tape = tape_simulator(JukeboxSimulator, catalog, _TapeOnlySource())
    hierarchy = HierarchySimulator(
        jukebox_simulator=tape,
        memory_blocks=64,
        disk_blocks=600,
        skew=HotColdSkew(80.0),
        rng=random.Random(2),
        mean_interarrival_s=40.0,
    )
    stats = hierarchy.run(200_000.0)
    assert (stats.memory_hits, stats.disk_hits, stats.tape_misses) == (521, 2678, 1762)
    assert stats.latency.mean == 997.3566123069602
    assert stats.tape_latency.mean == 2829.318541410909


def test_two_drive_exact_batch_executes_planned_order():
    """Multi-drive sweeps run the scheduler's plan, not a plain sweep."""
    config = BASE.with_(
        scheduler="exact-batch", drive_count=2, tape_count=6, horizon_s=20_000.0
    )
    simulator = build_simulator(config)
    plans = {index: [] for index in range(2)}
    reads = {index: [] for index in range(2)}
    for index, (scheduler, drive) in enumerate(
        zip(simulator.schedulers, simulator.drives)
    ):

        def defer(context, request):
            # No mid-sweep insertions, so every sweep runs its plan as built.
            context.pending.append(request)
            return False

        def build(entries, head_mb, _build=scheduler.build_service_list, _i=index):
            service = _build(entries, head_mb=head_mb)
            assert isinstance(service, OrderedServiceList)
            plans[_i].append((service.remaining_positions(), entries, head_mb))
            return service

        def access(position_mb, size_mb, _access=drive.access, _i=index):
            reads[_i].append(position_mb)
            return _access(position_mb, size_mb)

        scheduler.on_arrival = defer
        scheduler.build_service_list = build
        drive.access = access
    simulator.run(config.horizon_s)

    reordered = 0
    for index in range(2):
        planned = [position for order, _, _ in plans[index] for position in order]
        assert reads[index] and reads[index] == planned[: len(reads[index])]
        reordered += sum(
            order != [entry.position_mb for entry in sweep_order(entries, head_mb)]
            for order, entries, head_mb in plans[index]
        )
    assert reordered > 0, "no plan differed from the plain sweep order"
