"""Benchmark: the cross-OS differential validation matrix.

Two experiments:

* **equivalence** -- the full 4-driver x 4-OS matrix under the whole
  workload catalog, against the session's shared artifacts: every
  equivalence-expected cell must match the original binary scenario for
  scenario, and the only non-equivalent cells must be the expected
  unsupported ones (DMA drivers on uC/OS-II);
* **cold vs warm** -- the same matrix against a fresh artifact store:
  the cold run pays for reverse engineering (fanned out across workers
  where the host has cores), the warm run rides the store, and must
  finish in under half the cold wall-clock.

Both land in ``BENCH_pipeline.json`` under the ``validation_matrix`` key.
"""

from benchlib import update_bench

from repro.pipeline import ArtifactStore, PipelineOrchestrator
from repro.validate import ValidationMatrix

#: Accumulated across the tests in this module; merged into the bench
#: report as each test completes, so partial runs still record.
_RECORD = {}


def test_full_matrix_equivalence(cache):
    """Every equivalence-expected cell matches; nothing unexplained."""
    result = ValidationMatrix(orchestrator=cache).run()
    assert len(result.cells) == 16
    assert result.unexplained() == [], \
        "unexplained divergences: %r" % (result.unexplained(),)
    for (driver, os_name), cell in sorted(result.cells.items()):
        assert cell.status == cell.expected, \
            "%s/%s: %s (expected %s)" % (driver, os_name, cell.status,
                                         cell.expected)
    summary = result.summary()
    # 14 hostable cells x the full catalog actually ran and matched.
    assert summary["equivalent"] == 14
    assert summary["unsupported"] == 2
    assert summary["scenarios_run"] >= 14 * 11
    assert summary["scenarios_matched"] == summary["scenarios_run"] \
        - sum(len(result.cell(d, o).ran)
              for d in result.drivers for o in result.os_names
              if result.cell(d, o).status == "unsupported")
    _RECORD["summary"] = summary
    update_bench("validation_matrix", _RECORD)


def test_cold_vs_warm_matrix(tmp_path):
    """A warm (artifact-cached) matrix run costs well under half a cold
    one: reverse engineering dominates, and the matrix never re-runs it."""
    store_root = str(tmp_path / "matrix-store")

    cold = ValidationMatrix(
        orchestrator=PipelineOrchestrator(store=ArtifactStore(store_root)))
    cold_result = cold.run()
    assert cold_result.unexplained() == []

    warm = ValidationMatrix(
        orchestrator=PipelineOrchestrator(store=ArtifactStore(store_root)))
    warm_result = warm.run()
    assert warm_result.unexplained() == []
    assert len(warm_result.cells) == 16

    _RECORD["cold_wall_seconds"] = round(cold_result.wall_seconds, 3)
    _RECORD["cold_mode"] = cold_result.mode
    _RECORD["warm_wall_seconds"] = round(warm_result.wall_seconds, 3)
    _RECORD["warm_mode"] = warm_result.mode
    update_bench("validation_matrix", _RECORD)

    assert warm_result.wall_seconds < 0.5 * cold_result.wall_seconds, \
        "warm %.2fs vs cold %.2fs" % (warm_result.wall_seconds,
                                      cold_result.wall_seconds)
