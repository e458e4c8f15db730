"""Benchmark gate: the fabric's batched event-driven scheduler.

Three experiments, all landing under ``fabric`` in
``BENCH_pipeline.json``:

* **scheduler gate** -- a 16-endpoint saturation fleet on a wide-spread
  (mostly idle) schedule, batched vs the lockstep polling reference,
  interleaved round by round.  Batched must win by >= 1.3x on the run
  loop (boot is mode-invariant and excluded), and both modes must emit
  byte-identical canonical reports;
* **determinism** -- the same seed + topology replayed across runs and
  across ``REVNIC_PARALLEL`` settings produces byte-identical canonical
  report bytes;
* **scale sweep** -- 16 / 64 / 256 endpoints per execution backend.
  Boot is timed apart from the run loop (``boot_seconds``,
  ``run_seconds``), and each rate names its unit: frames through the
  switch per second of run loop (``frames_switched_per_s``) and RX
  deliveries -- flooded copies included, so many per switched frame --
  per second of run loop, in total and per driver
  (``rx_deliveries_per_s``; the per-driver figures sum to the total).

``benchmarks/BENCH_pipeline.baseline.json`` carries the committed
baseline for trajectory tracking.
"""

import time

from benchlib import update_bench

from repro.net.fabric import (FabricRun, build_fleet, build_report,
                              build_workload, canonical_fabric_json,
                              run_fleet)

#: Fixed seed for every fabric bench: the reports are replayable records.
SEED = 0xFAB51

#: Schedule stretch for the scheduler gate: at spread 512 the fleet is
#: idle at almost every tick -- the shape event-driven scheduling is for.
GATE_SPREAD = 512

#: Accumulated across the tests in this module; merged into the bench
#: report as each test completes, so partial runs still record.
_RECORD = {}


def _timed_run(cache, plan, mode):
    """Build, boot, then time the run loop alone; returns
    ``(seconds, canonical_report_bytes, run)``."""
    endpoints = build_fleet(plan, orchestrator=cache)
    run = FabricRun(endpoints, mode=mode)
    for ep in run.endpoints:
        ep.boot()
    run.run(booted=True)
    report = build_report(plan, endpoints, run)
    return run.wall_seconds, canonical_fabric_json(report), run


def test_batched_beats_lockstep(cache):
    plan = build_workload("saturation", 16, SEED, spread=GATE_SPREAD)
    # Warm-up: compile/import every block source once so the race
    # measures scheduling, not first-touch codegen.
    _timed_run(cache, plan, "batched")
    _timed_run(cache, plan, "lockstep")
    best, canon, runs = {}, {}, {}
    for _ in range(5):
        # Interleaved rounds: both schedulers sample the same host load.
        for mode in ("batched", "lockstep"):
            seconds, report, run = _timed_run(cache, plan, mode)
            canon[mode] = report
            runs[mode] = run
            if best.get(mode) is None or seconds < best[mode]:
                best[mode] = seconds
    assert canon["batched"] == canon["lockstep"], \
        "scheduler modes disagree on the canonical fabric report"
    speedup = best["lockstep"] / best["batched"]
    _RECORD["scheduler_gate"] = {
        "workload": "saturation",
        "endpoints": 16,
        "seed": SEED,
        "spread": GATE_SPREAD,
        "ticks": runs["batched"].ticks,
        "batched_seconds": round(best["batched"], 3),
        "lockstep_seconds": round(best["lockstep"], 3),
        "speedup": round(speedup, 2),
        "batched_polls": runs["batched"].polls,
        "lockstep_polls": runs["lockstep"].polls,
    }
    update_bench("fabric", _RECORD)
    assert best["batched"] < best["lockstep"], \
        "batched (%.3fs) not faster than lockstep (%.3fs)" \
        % (best["batched"], best["lockstep"])
    assert speedup >= 1.3, \
        "batched scheduler %.2fx over lockstep, below the 1.3x gate" \
        % speedup


def test_report_bytes_stable_across_runs_and_parallel(cache, monkeypatch):
    plan = build_workload("saturation", 16, SEED)
    canons = []
    for parallel in ("0", "1", "0"):
        monkeypatch.setenv("REVNIC_PARALLEL", parallel)
        report = run_fleet(plan, orchestrator=cache)
        canons.append(canonical_fabric_json(report))
    assert canons[0] == canons[1] == canons[2], \
        "canonical fabric report bytes drift across runs or " \
        "REVNIC_PARALLEL settings"
    _RECORD["determinism"] = {
        "workload": "saturation",
        "endpoints": 16,
        "seed": SEED,
        "runs": len(canons),
        "byte_identical": True,
    }
    update_bench("fabric", _RECORD)


def test_scale_sweep(cache):
    sweep = {}
    for backend in ("compiled", "interp"):
        sweep[backend] = {}
        for count in (16, 64, 256):
            plan = build_workload("saturation", count, SEED)
            endpoints = build_fleet(plan, orchestrator=cache,
                                    backends=(backend,))
            run = FabricRun(endpoints)
            started = time.perf_counter()
            for ep in endpoints:
                ep.boot()
            boot = time.perf_counter() - started
            run.run(booted=True)
            report = build_report(plan, endpoints, run)
            run_wall = run.wall_seconds
            frames = report["switch"]["frames_switched"]
            assert frames > 0, \
                "a %d-endpoint sweep cell switched nothing" % count
            assert report["totals"]["step_errors"] == 0
            sweep[backend][str(count)] = {
                "frames_switched": frames,
                "frames_switched_per_s": round(frames / run_wall, 1),
                "rx_deliveries": report["totals"]["rx_frames"],
                "rx_deliveries_per_s": {
                    "total": round(report["totals"]["rx_frames"]
                                   / run_wall, 1),
                    "per_driver": {
                        driver: round(cell["rx_frames"] / run_wall, 1)
                        for driver, cell in
                        sorted(report["per_driver"].items())},
                },
                "boot_seconds": round(boot, 3),
                "run_seconds": round(run_wall, 3),
                "ticks": report["ticks"],
            }
    _RECORD["scale_sweep"] = sweep
    update_bench("fabric", _RECORD)
    # Scaling sanity: 16x the fleet must move more than 2x the frames.
    for backend in sweep:
        small = sweep[backend]["16"]["frames_switched"]
        large = sweep[backend]["256"]["frames_switched"]
        assert large > 2 * small, backend
