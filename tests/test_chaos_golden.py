"""Exact same-seed outputs of the virtual-time fleet event loop.

``tests/data/chaos_golden.json`` pins, for four 3-replica
``repro loadgen --event`` runs, everything the loop decides: the
``LoadReport`` (whose tallies are the fleet registry's
``serving_fleet_*`` counters), the run's timeline as its ``request``
and ``request.attempt`` spans (name, trace id, start, duration and
attributes: each attempt's replica, hedge flag, outcome and
cancellation, each root's outcome and attempt and hedge counts),
every replica's health transitions, and the report of the committed
``SLO_serving.json`` spec ticked through the run.  The runs are built
with the CLI's own argument parser and load-run helper, so they are
the runs the CLI makes:

- ``bench`` — the CI chaos-smoke run (kill replica 1 at 0.8 s and
  recover it at 1.4 s, 2 s at 40 req/s, seed 0), whose p95 latency
  and goodput are held to bounds below;
- ``closed`` — a closed-loop run with hedging that kills and recovers
  replica 1 at 0.4 and 0.7 of its 1.5 s (the exact doubles
  ``0.4 * 1.5`` and ``0.7 * 1.5``, as the golden was recorded);
- ``stall`` — an open-loop run with a tight deadline, a stalled
  replica (its backlog only expires), an erroring and a slowed one;
- ``stall-hedge`` — the ``stall`` run with 25 ms hedging, where hedges
  win: duplicates on healthy replicas rescue the requests the stalled
  replica would let expire.

Regenerate (only when a change is meant to move the timeline)::

    PYTHONPATH=src python tests/test_chaos_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.cli import _load_generator, build_parser
from repro.observability.clock import FixedClock
from repro.observability.tracing import Tracer
from repro.observability.metrics import MetricsRegistry

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "chaos_golden.json"

COMMON = ["--replicas", "3", "--slo", str(REPO / "SLO_serving.json")]

RUNS = {
    "bench": [
        "--duration-s", "2", "--rate", "40", "--deadline-ms", "500",
        "--retries", "4", "--seed", "0",
        "--event", "kill:1:0.8", "--event", "recover:1:1.4",
    ],
    "closed": [
        "--mode", "closed", "--concurrency", "6", "--duration-s", "1.5",
        "--deadline-ms", "500", "--retries", "4", "--hedge-ms", "25",
        "--seed", "3",
        "--event", "kill:1:0.6000000000000001",
        "--event", "recover:1:1.0499999999999998",
    ],
    "stall": [
        "--duration-s", "1.5", "--rate", "40", "--deadline-ms", "150",
        "--retries", "3", "--seed", "5",
        "--event", "stall:1:0.3", "--event", "slow:0:0.4:4",
        "--event", "error:2:0.5", "--event", "recover:1:0.9",
        "--event", "recover:2:1.0", "--event", "recover:0:1.1",
    ],
}
RUNS["stall-hedge"] = RUNS["stall"] + ["--hedge-ms", "25"]

#: The spans that record the fleet's decisions, and the fields pinned
#: (span ids are left out: they number every span of the run).
TIMELINE_SPANS = ("request", "request.attempt")
TIMELINE_FIELDS = ("name", "trace_id", "start_s", "duration_s", "attrs")


def run_chaos(argv):
    """One ``repro loadgen --event`` run; returns its golden record."""
    args = build_parser().parse_args(["loadgen"] + argv + COMMON)
    clock = FixedClock(0.0)
    tracer = Tracer(clock=clock)
    generator = _load_generator(args, tracer, MetricsRegistry(), clock)
    report = generator.run()
    fleet, slo = generator.fleet, generator.slo
    record = {
        "report": report.to_dict(),
        "trace": [
            {key: span.to_dict()[key] for key in TIMELINE_FIELDS}
            for span in tracer.finished()
            if span.name in TIMELINE_SPANS
        ],
        "transitions": {
            str(replica.index): replica.health.transitions
            for replica in fleet.replicas
        },
        "slo": slo.report(clock()),
    }
    # Round-trip through JSON so tuples compare as the stored lists.
    return json.loads(json.dumps(record))


def _canonical(value) -> str:
    # SLO reports may carry NaN budgets; compare the serialized form.
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(golden, name):
    got = run_chaos(RUNS[name])
    want = golden[name]
    for key in ("report", "trace", "transitions", "slo"):
        assert _canonical(got[key]) == _canonical(want[key]), key


def test_golden_runs_exercise_the_hard_paths(golden):
    bench, closed, stall, stall_hedge = (
        golden["bench"], golden["closed"], golden["stall"],
        golden["stall-hedge"],
    )
    assert bench["report"]["chaos_events"] == 2
    assert bench["report"]["retries"] >= 1
    # Bounded regression across a golden regen: the bench run's
    # p95 may grow by at most 25% and its goodput shrink by at most
    # 25% from 69.837 ms / 37.0 rps (floors rounded toward strict).
    assert bench["report"]["latency_ms"]["p95"] <= 87.29
    assert bench["report"]["goodput_rps"] >= 27.75
    assert closed["report"]["mode"] == "closed"
    assert closed["report"]["hedges"] >= 1
    assert stall["report"]["expired"] >= 1
    assert stall["report"]["chaos_events"] == 6
    assert stall_hedge["report"]["hedge_wins"] >= 1
    assert stall_hedge["report"]["expired"] == 0
    for record in (bench, closed, stall, stall_hedge):
        assert record["report"]["lost"] == 0


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: run_chaos(argv) for name, argv in RUNS.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
