"""Figure 1: locate time as a function of distance (1 MB logical blocks).

Regenerates the four linear segments of the paper's measured Exabyte
EXB-8505XL locate-time model and re-runs the paper's validation
experiment: ten random walks of 100 locate+read operations, comparing
the analytic sweep-cost predictions against step-by-step drive
execution (the paper reported <=0.6% locate-time error for its model
against hardware; our model *is* the fitted function, so the check here
is internal consistency of predictor vs. executor).
"""

import random

import pytest

from repro.core import sweep_cost
from repro.report import format_table
from repro.tape import EXB_8505XL, Tape, TapeDrive

DISTANCES = (1, 4, 8, 16, 28, 29, 64, 256, 1024, 4096, 7000)


def locate_rows():
    rows = []
    for distance in DISTANCES:
        rows.append(
            (
                distance,
                EXB_8505XL.locate_forward(float(distance)),
                EXB_8505XL.locate_reverse(float(distance)),
                "short" if distance <= 28 else "long",
            )
        )
    return rows


def random_walk_error(seed: int, steps: int = 100) -> float:
    """Relative error between predicted and executed walk time."""
    rng = random.Random(seed)
    drive = TapeDrive(timing=EXB_8505XL)
    drive.load(Tape(0))
    predicted = 0.0
    actual = 0.0
    for _ in range(steps):
        target = float(rng.randrange(0, 7000))
        startup = drive.read_startup_pending
        predicted += sweep_cost(
            EXB_8505XL, drive.head_mb, [target], 1.0, startup_pending=startup
        ).total_s
        actual += drive.access(target, 1.0)
    return abs(predicted - actual) / actual


@pytest.mark.benchmark(group="fig01")
def test_fig01_locate_model(benchmark, capsys):
    rows = benchmark.pedantic(locate_rows, rounds=1, iterations=1)

    # The four segments: short/long x forward/reverse, linear in distance.
    forward = {distance: fwd for distance, fwd, _rev, _seg in rows}
    assert forward[1] == pytest.approx(4.834 + 0.378)
    assert forward[4096] == pytest.approx(14.342 + 0.028 * 4096)
    # Long-distance motion is far cheaper per MB than short-distance.
    short_rate = (forward[28] - forward[16]) / 12
    long_rate = (forward[4096] - forward[1024]) / 3072
    assert short_rate == pytest.approx(0.378)
    assert long_rate == pytest.approx(0.028)

    # Validation random walks: predictor matches executor exactly.
    errors = [random_walk_error(seed) for seed in range(10)]
    assert max(errors) < 1e-9

    with capsys.disabled():
        print()
        print("Figure 1: Locate Time as a Function of Distance (1 MB blocks)")
        print(
            format_table(
                ("distance_mb", "forward_s", "reverse_s", "segment"),
                rows,
                float_format="{:.2f}",
            )
        )
        print(
            f"\nvalidation: 10 random walks x 100 locates, "
            f"max predictor-vs-executor error {max(errors):.2e} "
            "(paper vs hardware: 0.6%)"
        )
