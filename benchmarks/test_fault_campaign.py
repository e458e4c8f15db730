"""Benchmark gate: the chaos fault campaign and its recovery overhead.

Runs handcrafted fault schedules -- a worker kill healed by in-pool
retry, store corruption healed by quarantine + recompute, and a
persistent run fault that must fail loudly -- and lands a
``fault_campaign`` section in ``BENCH_pipeline.json``: the fault-free
baseline warm time next to each schedule's wall clock (recovery
overhead), plus the absorbed-fault counters.  The schedules are explicit
rather than generator-drawn so the bench exercises every fault layer on
every run, deterministically.

The gate is the robustness acceptance bar itself: every schedule ends
loud-or-identical (:class:`ChaosInvariantError` otherwise fails the
test), absorbed faults show up in the resilience report, and a single
faulted job never forces a serial recompute of healthy jobs.
"""

from benchlib import update_bench

from repro.faults.campaign import ChaosCampaign
from repro.faults.plan import PERSISTENT, FaultPlan, FaultSpec

#: Two quick-script drivers keep the cold recomputes affordable while
#: still giving the pool real fan-out to supervise.
DRIVERS = ("rtl8029", "smc91c111")

#: One schedule per fault layer, every parameter pinned.
PLANS = (
    FaultPlan(seed=101, faults=(
        FaultSpec(layer="worker", kind="kill", target=0),)),
    FaultPlan(seed=102, faults=(
        FaultSpec(layer="worker", kind="garbage", target=1,
                  params={"payload": "not json at all"}),)),
    FaultPlan(seed=103, faults=(
        FaultSpec(layer="store", kind="truncate", target=0,
                  params={"keep_fraction": 0.5}),
        FaultSpec(layer="store", kind="partial_publish", target=1,
                  params={"salt": 0xBEEF}),)),
    FaultPlan(seed=104, faults=(
        FaultSpec(layer="run", kind="guest_os_error", target=1,
                  attempts=PERSISTENT),)),
)


def test_fault_campaign_recovery_overhead():
    """Every schedule ends loud-or-identical; recovery overhead vs the
    fault-free warm is recorded in the bench report."""
    campaign = ChaosCampaign(drivers=DRIVERS, script="quick",
                             job_timeout=30.0)
    try:
        report = campaign.run(plans=list(PLANS))
    finally:
        campaign.cleanup()
    summary = report.summary()
    outcomes = {o.seed: o for o in report.outcomes}

    # the invariant held on every schedule (run_schedule raises
    # ChaosInvariantError otherwise); the split is exactly as planned
    assert summary["schedules"] == len(PLANS)
    assert summary["identical"] == 3
    assert summary["faulted"] == 1

    # worker kill: healed by an in-pool retry, and the healthy driver's
    # pooled result was kept -- one faulted job never forces a serial
    # recompute of healthy jobs
    kill = outcomes[101]
    assert kill.resilience["worker_crashes"] >= 1
    assert kill.resilience["retries"] >= 1
    assert kill.resilience["jobs"]["smc91c111"]["outcome"] == "pool"

    # garbage payload: caught by result validation, healed by retry
    garbage = outcomes[102]
    assert garbage.resilience["garbage_results"] >= 1
    assert garbage.resilience["jobs"]["rtl8029"]["outcome"] == "pool"

    # store corruption: quarantined (never trusted), orphan swept,
    # corrupted entries recomputed byte-identically
    corrupt = outcomes[103]
    assert corrupt.resilience["quarantined"] >= 1
    assert corrupt.resilience["recovered_tmp"] >= 1

    # persistent run fault: a loud, classified, replayable failure
    faulted = outcomes[104]
    assert faulted.verdict == "faulted"
    assert faulted.fault_records
    record = faulted.fault_records[0]
    assert record["layer"] == "run" and record["job"] == "smc91c111"
    # ...that still left the healthy driver's artifact computed
    assert faulted.resilience["jobs"]["rtl8029"]["outcome"] in (
        "pool", "serial-fallback")

    baseline = summary["baseline_seconds"]
    update_bench("fault_campaign", {
        "drivers": list(DRIVERS),
        "script": "quick",
        "baseline_seconds": baseline,
        "schedules": [
            {"seed": o.seed,
             "verdict": o.verdict,
             "wall_seconds": round(o.wall_seconds, 3),
             "overhead_x": round(o.wall_seconds / baseline, 2)
             if baseline else None,
             "retries": o.resilience.get("retries", 0),
             "timeouts": o.resilience.get("timeouts", 0),
             "worker_crashes": o.resilience.get("worker_crashes", 0),
             "garbage_results": o.resilience.get("garbage_results", 0),
             "quarantined": o.resilience.get("quarantined", 0),
             "recovered_tmp": o.resilience.get("recovered_tmp", 0)}
            for o in report.outcomes],
        "summary": summary,
    })
