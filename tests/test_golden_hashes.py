"""Hash-level determinism regression: the bit-identical guard.

Every digest below was captured on the pre-optimization tree (before the
slotted DES kernel, cached timing tables, and indexed envelope/pending
paths landed).  A run of the same canonical config must reproduce the
same :func:`repro.service.metrics.report_digest` byte for byte — any
drift in scheduler decisions, event ordering, or float arithmetic shows
up here first.

The matrix deliberately covers every optimized layer: the Figure-4
family sweep (FIFO / static / dynamic), the Figure-8 envelope family
(including the O(n²t²) computer and its incremental ``on_arrival``
path), the serpentine timing model, multi-drive, and runs with faults
and QoS enabled (the masked-catalog and admission paths).

To re-pin after an *intentional* behaviour change, print fresh digests:

    PYTHONPATH=src python -m pytest tests/test_golden_hashes.py --tb=line
"""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, RetryPolicy
from repro.layout.placement import Layout
from repro.qos import QoSConfig
from repro.service.metrics import report_digest

FIG4 = ExperimentConfig(
    scheduler="dynamic-max-bandwidth",
    queue_length=60,
    horizon_s=60_000.0,
    seed=42,
)

FIG8 = ExperimentConfig(
    scheduler="envelope-max-bandwidth",
    layout=Layout.VERTICAL,
    replicas=9,
    start_position=1.0,
    queue_length=60,
    horizon_s=60_000.0,
    seed=42,
)

CASES = {
    "fig4_dynamic_max_bandwidth": FIG4,
    "fig4_static_max_bandwidth": FIG4.with_(scheduler="static-max-bandwidth"),
    "fig4_fifo": FIG4.with_(scheduler="fifo"),
    "fig8_envelope_max_bandwidth": FIG8,
    "fig8_envelope_max_requests": FIG8.with_(scheduler="envelope-max-requests"),
    "fig8_envelope_oldest_max_requests": FIG8.with_(
        scheduler="envelope-oldest-max-requests"
    ),
    "fig8_envelope_faults": FIG8.with_(
        replicas=2,
        faults=FaultConfig(
            media_error_rate=0.05, bad_replica_rate=0.02, retry=RetryPolicy()
        ),
    ),
    "fig8_envelope_qos": FIG8.with_(
        qos=QoSConfig(
            deadline_s=4000.0,
            admission="bounded-queue",
            max_pending=80,
            starvation_age_s=6000.0,
        ),
    ),
    "fig4_dynamic_faults_qos": FIG4.with_(
        replicas=2,
        layout=Layout.VERTICAL,
        start_position=1.0,
        faults=FaultConfig(media_error_rate=0.05, retry=RetryPolicy()),
        qos=QoSConfig(deadline_s=4000.0, starvation_age_s=6000.0),
    ),
    "fig4_serpentine": FIG4.with_(drive_technology="serpentine"),
    "fig4_multidrive": FIG4.with_(
        drive_count=2, tape_count=8, capacity_mb=2000.0
    ),
    "fig4_exact_batch": FIG4.with_(scheduler="exact-batch"),
    "fig4_approx_greedy_cost": FIG4.with_(scheduler="approx-greedy-cost"),
    "fig4_approx_best_pass": FIG4.with_(scheduler="approx-best-pass"),
    # The step-3 and on_arrival tracker fallback (non-exact timing model).
    "fig8_envelope_serpentine": FIG8.with_(drive_technology="serpentine"),
    # The oldest-first filter in front of MaxBandwidth.
    "fig4_dynamic_oldest_max_bandwidth": FIG4.with_(
        scheduler="dynamic-oldest-max-bandwidth"
    ),
}

#: sha256 of each case's report, pinned on the pre-optimization tree.
GOLDEN = {
    "fig4_dynamic_max_bandwidth": "fff45a7a06f6b6cffe23ed98288a6322f28cf1432b887646c6a5022253c4b8c5",
    "fig4_static_max_bandwidth": "84bc9af77fb61cc23f188eb5fe6ae8f24bbcabba259d98acd5a167ac748eafb5",
    "fig4_fifo": "f9b6dcf3d1885d565e79d32bd43ce4e045fc39685cd3333f10e8568f94c6592c",
    "fig8_envelope_max_bandwidth": "4c1347ff60264c9bf04a64b21b79dc9a5cf8f106abe652dd87d52ee51a74db79",
    "fig8_envelope_max_requests": "a2902a502f0ac81b02a9962f0ce84a578ceef49569d912931fdc841d50c21f03",
    "fig8_envelope_oldest_max_requests": "1d6fc3e7d6de6a3850a98f3fcd213aafac04080e2dfd84cbf497bdb2acfc34df",
    "fig8_envelope_faults": "498861721a04b17defdaed6c3b2b0ef78cb400007f9c92026abdbe6691f112e0",
    "fig8_envelope_qos": "9c07f83760c016c049857e301cfb1668caa955a9109de60028778fda5ac0f18e",
    "fig4_dynamic_faults_qos": "8621fbb9b16a0c5db1dc251569528820938ed3acf11eba0095a7081c3e191ecc",
    "fig4_serpentine": "01df9667ce284d938428e74e3e527dac948ffd9f165656cb6ecfe68028b62d9c",
    "fig4_multidrive": "6deffd19af91d1e7fc04ec988e6d8208ee511affc842b78bd586c018ea7ae7aa",
    # LTSP optimality-baseline families, pinned at their introduction.
    "fig4_exact_batch": "c149b3b26b387e8923931e3bb06d504fff6fa15a83de5abcb47aa8a165b56b3a",
    "fig4_approx_greedy_cost": "bac0e5590567174a28530f5a53fb0ddc6c1c926b861de0cc5012757d5dedf8cd",
    "fig4_approx_best_pass": "80024f04ff6ad040a441230f5509d2a6bd186a1c94a433223a229802f54b483b",
    # Pinned before the per-request path was flattened, to guard it.
    "fig8_envelope_serpentine": "976f510b3eb1f68ad323a824e640d091841543329f3b81d844bc041285336429",
    "fig4_dynamic_oldest_max_bandwidth": "cdbe34648905bd5a589c0293b095778008a522a251bcc3d798c08eb6301341d6",
}


def test_case_matrix_is_fully_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name):
    digest = report_digest(run(CASES[name]).report)
    assert digest == GOLDEN[name], (
        f"{name}: report digest drifted — scheduler decisions or metrics "
        f"are no longer bit-identical to the pinned pre-optimization run "
        f"(got {digest})"
    )


def test_digest_is_repeatable_within_process():
    """Two runs of the same config in one process hash identically."""
    first = report_digest(run(CASES["fig4_fifo"]).report)
    second = report_digest(run(CASES["fig4_fifo"]).report)
    assert first == second == GOLDEN["fig4_fifo"]
