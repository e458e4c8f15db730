"""Benchmark gate: sharded exploration pays for itself on multi-core.

One cold RevNIC engine run (no artifact store involved -- both sides
compute) on the heaviest driver, serial vs 2-worker sharded at the same
split depth.  The gate lands under ``exploration_parallel`` in
``BENCH_pipeline.json``:

* canonical artifact bytes must be identical between the two runs
  (worker count is runtime-only; tier-1 asserts this per driver, the
  gate re-checks it on the exact runs it times);
* on hosts with 2+ cores the sharded run must be at least
  ``MIN_SPEEDUP`` faster than serial;
* a speedup needs two free cores, so the speedup assertion is *skipped*
  -- never simulated, never passed -- on single-core runners and
  whenever a probe of the host load before either timed run finds fewer
  than 2 cores free of other processes.  The report records the skip
  with the core count and the probes, so a missing gate is
  distinguishable from a green one.

The serial run goes first, so it pays the one-time in-process costs
(expression shapes, compiled blocks) still unpaid in this process; the
sharded run's fresh workers pay theirs in parallel.  Repeating the pair
in one process would time a warm serial side against cold workers, a
different quantity (see ROADMAP item 1).
"""

import json
import os
import time

import pytest

from repro.drivers import build_driver, device_class
from repro.pipeline.artifact import build_artifact, canonical_json
from repro.revnic import RevNic, RevNicConfig
from repro.synth import synthesize

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: rtl8139 has the largest eval/solver volume in the corpus -- the run
#: long enough for fan-out to amortize worker spawn.
GATE_DRIVER = "rtl8139"
SPLIT_DEPTH = 3
WORKERS = 2
MIN_SPEEDUP = 1.5
#: Seconds of host-load probing before each timed run.
PROBE_SECONDS = 0.25

_RECORD = {}


def _update_bench():
    path = os.path.join(_REPO_ROOT, "BENCH_pipeline.json")
    report = {}
    if os.path.exists(path):
        with open(path) as handle:
            report = json.load(handle)
    report["exploration_parallel"] = dict(_RECORD)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _busy_cores(cores):
    """Cores kept busy by other processes (steal time included) over a
    short window this process sleeps through, from ``/proc/stat``.
    Without it, the 1-minute load average, which also counts this
    process and so errs toward skipping."""

    def sample():
        with open("/proc/stat") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:9]]
        return sum(ticks) - ticks[3] - ticks[4], sum(ticks)

    try:
        busy_start, total_start = sample()
        time.sleep(PROBE_SECONDS)
        busy_end, total_end = sample()
    except (OSError, ValueError, IndexError):
        return os.getloadavg()[0]
    return cores * (busy_end - busy_start) / max(total_end - total_start, 1)


def _free_cores(cores):
    """Whole cores left free: a core half busy elsewhere is not free."""
    return cores - int(_busy_cores(cores) + 0.5)


def _cold_run(workers):
    image = build_driver(GATE_DRIVER)
    config = RevNicConfig(driver_name=GATE_DRIVER,
                          pci=device_class(GATE_DRIVER).PCI,
                          explore_split_depth=SPLIT_DEPTH)
    engine = RevNic(image, config, explore_workers=workers)
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    artifact = build_artifact(config, result, synthesize(result))
    return elapsed, canonical_json(artifact), result.stats


def test_exploration_parallel_gate(cache):
    cores = os.cpu_count() or 1
    _RECORD["scaling"] = {
        "driver": GATE_DRIVER,
        "split_depth": SPLIT_DEPTH,
        "workers": WORKERS,
        "min_speedup": MIN_SPEEDUP,
        "cores": cores,
    }
    if cores < 2:
        _RECORD["scaling"]["skipped"] = \
            "single-core runner (os.cpu_count()=%d): sharded and " \
            "serial would time the same CPU" % cores
        _update_bench()
        pytest.skip("exploration scaling gate needs 2+ cores, have %d"
                    % cores)

    free = [_free_cores(cores)]
    serial_seconds, serial_bytes, serial_stats = _cold_run(workers=0)
    free.append(_free_cores(cores))
    sharded_seconds, sharded_bytes, stats = _cold_run(workers=WORKERS)
    front = stats["frontier"]
    speedup = serial_seconds / sharded_seconds
    _RECORD["scaling"].update({
        "serial_seconds": round(serial_seconds, 3),
        "sharded_seconds": round(sharded_seconds, 3),
        "speedup": round(speedup, 2),
        "free_cores": free,
        "bytes_identical": sharded_bytes == serial_bytes,
        "subtrees": front["subtrees"],
        "max_depth": front["max_depth"],
        "states_per_worker": front["states_per_worker"],
        "steals": front["steals"],
        "fallbacks": front["fallbacks"],
        "merge_wall_seconds": front["merge_wall_seconds"],
        "serial_blocks": serial_stats["blocks_executed"],
        "sharded_blocks": stats["blocks_executed"],
    })
    busy = min(free) < 2
    if busy:
        _RECORD["scaling"]["skipped"] = \
            "busy host: a load probe found %d of %d cores free of other " \
            "processes; a 2-worker speedup cannot be measured" \
            % (min(free), cores)
    _update_bench()
    assert sharded_bytes == serial_bytes, \
        "sharded exploration changed artifact bytes"
    assert front["fallbacks"] == 0, \
        "worker pool degraded to in-process fallback; not a scaling run"
    if busy:
        pytest.skip("exploration scaling gate needs 2 free cores, a "
                    "probe found %d" % min(free))
    assert speedup >= MIN_SPEEDUP, \
        "sharded exploration (%.3fs) under %.1fx vs serial (%.3fs)" \
        % (sharded_seconds, MIN_SPEEDUP, serial_seconds)
