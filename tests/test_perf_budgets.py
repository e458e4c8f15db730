"""Deterministic perf-regression budgets for the symbolic pipeline.

Wall-clock assertions are flaky on shared CI machines, so the perf
trajectory is guarded by *counter* budgets instead: solver queries, actual
model searches (cache/fast-path misses), compiled-evaluation node visits,
and blocks executed for the ``rtl8139`` run -- the heaviest driver, where
PR 2's incremental-solving work concentrated.  The budgets carry ~50%
headroom over the measured values, so they only trip on algorithmic
blow-ups (a regression to per-query re-solving would exceed them by an
order of magnitude), not on noise.

Measured when the program-run budgets were added (see
BENCH_pipeline.json): rtl8139 queries=954 solves=378 node_visits=17.2M
program_runs=915,785 blocks=2087 forks=259; smc91c111
program_runs=514,447.  The smc91c111 budget guards the solver's random
fallback, which re-scored every known-failing single-symbol repair on
each try before it memoized failed repair groups (2,664,488 runs).

The fleet budgets guard the concrete runtime instead: guest RAM
accesses must stay on the memory's one-lookup fast path (a 16-endpoint
saturation fleet measured 74 checked-path accesses, nearly all of them
first writes that create a page, against 33,584 runtime memory ops), and a synthesized module resolves each block once,
so a second fleet over the same modules compiles nothing.
"""

from repro.eval.runner import get_cache
from repro.ir.compile import exec_counters
from repro.net.fabric import FabricRun, build_fleet, build_workload

BUDGETS = {
    "solver_queries": 1700,
    "solver_comp_solves": 700,
    "eval_node_visits": 32_000_000,
    "blocks_executed": 3500,
    "forks": 450,
    "eval_program_runs": 1_400_000,
}

#: smc91c111 spends most of its searches in the random fallback.
SMC91C111_BUDGETS = {
    "eval_program_runs": 800_000,
}


def _assert_budgets(name, budgets):
    stats = get_cache().run(name).stats
    for counter, budget in budgets.items():
        assert stats[counter] <= budget, (
            "%s %s blew its budget: %d > %d -- the incremental solving "
            "layer regressed (see DESIGN.md)"
            % (name, counter, stats[counter], budget))


def test_rtl8139_counter_budgets():
    _assert_budgets("rtl8139", BUDGETS)


def test_smc91c111_counter_budgets():
    _assert_budgets("smc91c111", SMC91C111_BUDGETS)


def test_rtl8139_caching_is_effective():
    """Most feasibility work must be absorbed by the witness fast path and
    the model cache; ground-truth searches should stay a minority."""
    stats = get_cache().run("rtl8139").stats
    absorbed = stats["solver_fast_path_hits"] + stats["solver_cache_hits"]
    assert absorbed >= stats["solver_comp_solves"], stats


def test_counters_exported_for_all_drivers():
    from repro.drivers import DRIVERS

    for name in sorted(DRIVERS):
        stats = get_cache().run(name).stats
        for counter in BUDGETS:
            assert counter in stats
        assert stats["eval_node_visits"] > 0


#: Checked-path memory accesses allowed per runtime memory op.
CHECKED_ACCESS_SHARE = 0.01


def _saturation_fleet():
    endpoints = build_fleet(build_workload("saturation", 16, 1),
                            orchestrator=get_cache())
    FabricRun(endpoints).run()
    return endpoints


def test_fleet_memory_stays_on_fast_path():
    endpoints = _saturation_fleet()
    runtimes = [ep.dut._front.runtime for ep in endpoints]
    mem_ops = sum(runtime.env.mem_ops for runtime in runtimes)
    checked = sum(runtime.os.machine.memory.checked_accesses
                  for runtime in runtimes)
    assert mem_ops > 0
    assert checked <= CHECKED_ACCESS_SHARE * mem_ops, (
        "%d of %d guest memory accesses took the checked path -- the "
        "fast page table regressed (see DESIGN.md)" % (checked, mem_ops))


def test_second_fleet_compiles_no_blocks():
    _saturation_fleet()
    compiled = exec_counters()["blocks_compiled"]
    _saturation_fleet()
    assert exec_counters()["blocks_compiled"] == compiled
