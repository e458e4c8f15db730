"""The three benchmark workloads, driven through the public entry points.

``port-cold``
    :meth:`PipelineOrchestrator.warm` over the four driver binaries with
    an empty artifact store and an empty code cache: the once-per-driver
    cost of reverse engineering plus synthesis.
``validate-warm``
    :func:`run_matrix` -- 4 drivers x 4 target OSes x 11 catalog
    scenarios -- from a store filled in an untimed preparation step.
``fleet-256``
    :func:`build_fleet` + :class:`FabricRun` over the seeded
    ``saturation`` plan at 256 endpoints with the default driver x OS mix,
    compiled backend and batched scheduler.

Each workload object offers the same steps, each run in a fresh
interpreter by :mod:`session`: ``prepare`` (untimed: fill the store,
compute references), ``setup`` (everything up to the first timed
operation), ``rep`` (one timed operation plus its output checks) and
``run_pass`` (the whole sequence after the imports, serial, optionally
under a :class:`~tracer.Tracer`).
"""

import hashlib
import json
import os
import shutil
import time
from contextlib import nullcontext

from tracer import ROOT_SPAN, TimedProxy

FLEET_PLAN = "saturation"
FLEET_ENDPOINTS = 256

#: Environment variable the program reads for its artifact store; the
#: compiled-code cache lives under it unless configured separately.
CACHE_ENV = "REVNIC_ARTIFACT_CACHE"


class Checks:
    """Counts output checks made and failed."""

    MAX_LISTED = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.MAX_LISTED:
                self.failures.append(what)
        return ok

    def to_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": list(self.failures)}


def pool_stats(report):
    """Fan-out figures from a :class:`ResilienceReport`."""
    return {"pool.jobs": len(report.jobs),
            "pool.retries": report.retries,
            "pool.fallbacks": len(report.degradations),
            "pool.stage_s": report.stage_seconds.get("pool", 0.0)}


def _span(tracer, name=ROOT_SPAN):
    """A span of ``tracer`` (by default the pass's root span), or nothing
    when the pass is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _artifact_entries(root):
    """``{file: sha256}`` of the artifact entries directly under
    ``root`` (the code cache below it is left out)."""
    out = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".json"):
            with open(os.path.join(root, name), "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


class _Workload:
    """Shared plumbing: configuration and store handling."""

    name = None

    def __init__(self, config):
        self.store_root = config["store"]
        self.shared = config["shared"]
        self.scratch = config["scratch"]
        self.seed = config["seed"]
        self.checks = Checks()
        self._drivers = config.get("drivers")
        #: ``{driver: block coverage}`` of the artifacts the workload
        #: uses, filled by its first port or store load.
        self.coverage = None

    @property
    def drivers(self):
        from repro.drivers import DRIVERS

        return sorted(DRIVERS) if not self._drivers else list(self._drivers)

    def import_modules(self):
        """Import every program module the workload's entry point uses."""
        import repro.drivers  # noqa: F401
        import repro.faults.report  # noqa: F401
        import repro.pipeline.artifact  # noqa: F401
        import repro.pipeline.orchestrator  # noqa: F401
        import repro.pipeline.pool  # noqa: F401
        import repro.pipeline.store  # noqa: F401

    def prepare(self):
        """Untimed preparation; returns a JSON-ready summary."""
        self.import_modules()
        return {}

    def fill_store(self):
        """Fill the private store (untimed).

        The filled store -- artifacts plus the code cache the fill leaves
        -- depends only on the program source and the drivers, so it is
        computed once per checkout under ``filled-<source>-<drivers>`` and
        copied into each run's private store.
        """
        from common import source_digest
        from repro.pipeline.orchestrator import PipelineOrchestrator
        from repro.pipeline.store import ArtifactStore

        filled = os.path.join(self.shared, "filled-%s-%s" % (
            source_digest(), "-".join(self.drivers)))
        computed = not os.path.isdir(filled)
        if computed:
            building = "%s.%d" % (filled, os.getpid())
            os.environ[CACHE_ENV] = building
            orchestrator = PipelineOrchestrator(
                store=ArtifactStore(building))
            orchestrator.warm(self.drivers)
            os.environ[CACHE_ENV] = self.store_root
            if orchestrator.last_warm_mode == "cached":
                raise RuntimeError("store fill found a filled store")
            try:
                os.rename(building, filled)
            except OSError:
                # Another run published the same fill first.
                shutil.rmtree(building, ignore_errors=True)
        shutil.copytree(filled, self.store_root)
        return {"computed": computed}

    def load_store(self, parallel=None):
        """An orchestrator whose artifacts were all served by the store;
        every load is checked to have hit."""
        from repro.pipeline.orchestrator import PipelineOrchestrator
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(self.store_root)
        orchestrator = PipelineOrchestrator(store=store, parallel=parallel)
        artifacts = orchestrator.warm(self.drivers, parallel=parallel)
        self.checks.check(orchestrator.last_warm_mode == "cached"
                          and store.hits == len(self.drivers)
                          and store.misses == 0 and store.corrupt == 0,
                          "store loads: mode %s, %s"
                          % (orchestrator.last_warm_mode, store.counters()))
        for name, artifact in artifacts.items():
            self.checks.check(artifact.source == "disk-cache",
                              "%s served from %s" % (name, artifact.source))
        self.coverage = {name: artifact.coverage_fraction
                         for name, artifact in artifacts.items()}
        return orchestrator

    def patch_common(self, tracer):
        """Spans shared by every workload: store and codec, assembly."""
        import repro.drivers
        from repro.pipeline import orchestrator, store

        def layer(operation):
            # The compiled-code cache shares the store class under
            # ``<store>/codegen``; its traffic is its own layer.
            def name(args):
                owner = "codecache" if os.path.basename(args[0].root) \
                    == "codegen" else "store"
                return "%s.%s" % (owner, operation)
            return name

        tracer.patch(store.ArtifactStore, "load", "store.load")
        tracer.patch(store.ArtifactStore, "load_json", layer("load"))
        tracer.patch(store, "artifact_from_dict", "artifact.decode")
        tracer.patch(store.ArtifactStore, "save_json", layer("save"))

        def encoded(args, text, token, seconds):
            tracer.counts["artifact.bytes"] += len(text)

        tracer.patch(store, "to_json", "artifact.encode", after=encoded)
        tracer.patch(repro.drivers, "assemble_file", "asm.build")
        tracer.patch(orchestrator.PipelineOrchestrator, "warm",
                     "orchestrator.warm")


# ---------------------------------------------------------------------------


class PortCold(_Workload):
    """Cold four-driver port: empty artifact store, empty code cache."""

    name = "port-cold"

    def setup(self):
        self.import_modules()
        from repro.drivers import build_driver
        from repro.pipeline.store import code_fingerprint

        # Process-lifetime lazy set-up the parent pays once: the source
        # fingerprint and the parent-side driver images behind the store
        # keys.  Done here so every repetition measures the same work.
        code_fingerprint()
        for name in self.drivers:
            build_driver(name)
        self.digests = None

    def _fresh_store(self, tag):
        """A new, empty private store; the code cache follows it."""
        from repro.pipeline.store import ArtifactStore

        root = os.path.join(self.scratch, "cold-%s" % tag)
        if os.path.exists(root):
            shutil.rmtree(root)
        os.environ[CACHE_ENV] = root
        return ArtifactStore(root)

    def _check_port(self, orchestrator, artifacts, mode_ok):
        from repro.pipeline.artifact import canonical_json

        self.checks.check(mode_ok(orchestrator.last_warm_mode),
                          "warm mode %s" % orchestrator.last_warm_mode)
        self.checks.check(orchestrator.last_resilience.healed(),
                          "unhealed faults in the port")
        digests, coverage = {}, {}
        for name, artifact in sorted(artifacts.items()):
            self.checks.check(artifact.source in ("worker", "computed"),
                              "%s served from %s" % (name, artifact.source))
            digests[name] = hashlib.sha256(
                canonical_json(artifact).encode()).hexdigest()
            coverage[name] = artifact.coverage_fraction
            self.checks.check(coverage[name] > 0,
                              "%s has no coverage" % name)
        if self.digests is None:
            self.digests, self.coverage = digests, coverage
        for name in digests:
            self.checks.check(digests[name] == self.digests[name]
                              and coverage[name] == self.coverage[name],
                              "%s canonical bytes differ between "
                              "repetitions" % name)
        return digests, coverage

    def rep(self, index):
        from repro.pipeline.orchestrator import PipelineOrchestrator

        store = self._fresh_store(index)
        orchestrator = PipelineOrchestrator(store=store)
        started = time.perf_counter()
        artifacts = orchestrator.warm(self.drivers)
        port_s = time.perf_counter() - started
        digests, coverage = self._check_port(
            orchestrator, artifacts, lambda mode: mode != "cached")
        shutil.rmtree(store.root, ignore_errors=True)
        return {"op_s": port_s, "coverage": coverage, "digests": digests,
                "pool": pool_stats(orchestrator.last_resilience)}

    def patch(self, tracer):
        import repro.synth
        from repro.pipeline import orchestrator
        from repro.revnic import RevNic
        from repro.symex.expr import eval_counters

        self.patch_common(tracer)
        tracer.patch(orchestrator, "execute_run", "pipeline.execute")
        tracer.patch(orchestrator, "build_artifact", "artifact.build")
        tracer.patch(repro.synth, "synthesize", "synth.synthesize")

        def compiled_before(args):
            return eval_counters()["programs"]

        def run_after(args, result, programs_before, seconds):
            counts = tracer.counts
            counts["revnic.run_s.%s" % args[0].config.driver_name] += seconds
            counts["expr.programs_compiled"] += \
                eval_counters()["programs"] - programs_before
            stats = result.stats
            for metric, key in _SYMEX_STATS:
                counts[metric] += stats[key]

        tracer.patch(RevNic, "run", "revnic.run", before=compiled_before,
                     after=run_after)

    def run_pass(self, tracer=None):
        from repro.pipeline.orchestrator import PipelineOrchestrator

        store = self._fresh_store("pass")
        orchestrator = PipelineOrchestrator(store=store, parallel=False)
        started = time.perf_counter()
        with _span(tracer):
            artifacts = orchestrator.warm(self.drivers)
        wall = time.perf_counter() - started
        self.digests = None
        digests, coverage = self._check_port(
            orchestrator, artifacts, lambda mode: mode == "serial")
        return wall, {"digests": digests, "coverage": coverage}


#: (per-layer metric, RevNicResult.stats key) summed over the drivers.
_SYMEX_STATS = (
    ("symex.blocks_executed", "blocks_executed"),
    ("symex.fast_blocks", "exec_fast_blocks"),
    ("symex.forks", "forks"),
    ("solver.queries", "solver_queries"),
    ("solver.comp_solves", "solver_comp_solves"),
    ("solver.cache_hits", "solver_cache_hits"),
    ("solver.fast_path_hits", "solver_fast_path_hits"),
    ("expr.program_runs", "eval_program_runs"),
    ("expr.node_visits", "eval_node_visits"),
)


# ---------------------------------------------------------------------------


class ValidateWarm(_Workload):
    """The full differential matrix from an already filled store."""

    name = "validate-warm"

    def import_modules(self):
        super().import_modules()
        import repro.validate.matrix  # noqa: F401

    def prepare(self):
        self.import_modules()
        return {"filled": self.fill_store()}

    def setup(self):
        self.import_modules()
        self.orchestrator = self.load_store()
        self.entries = _artifact_entries(self.store_root)

    def _check_matrix(self, result):
        from repro.validate.matrix import expected_status

        for (driver, os_name), cell in sorted(result.cells.items()):
            expected = expected_status(driver, os_name)
            self.checks.check(cell.status == expected
                              and not cell.unexplained(),
                              "%s/%s: %s, expected %s"
                              % (driver, os_name, cell.status, expected))
        self.checks.check(result.resilience.healed(),
                          "unhealed faults in the matrix")
        # Warm means warm: nothing was recomputed into the store.
        self.checks.check(_artifact_entries(self.store_root)
                          == self.entries,
                          "artifact entries changed during validation")

    def rep(self, index):
        from repro.validate.matrix import run_matrix

        started = time.perf_counter()
        result = run_matrix(self.orchestrator, drivers=self.drivers)
        verdict_s = time.perf_counter() - started
        self._check_matrix(result)
        return {"op_s": verdict_s,
                "pool": pool_stats(result.resilience)}

    def patch(self, tracer):
        from repro.validate import matrix
        from repro.validate.observe import OriginalDut

        self.patch_common(tracer)
        tracer.patch(matrix.ValidationMatrix, "run", "matrix.run")
        tracer.patch(matrix, "OriginalDut", "original.build")
        tracer.patch(matrix, "SynthesizedDut", "synth_rt.build")
        tracer.patch(matrix, "classify_observations", "differ.classify")

        def side(args):
            return "original.scenario" if isinstance(args[0], OriginalDut) \
                else "synth_rt.scenario"

        def scenario_after(args, result, token, seconds):
            dut, counts = args[0], tracer.counts
            if isinstance(dut, OriginalDut):
                cpu = dut._front.machine.cpu
                counts["original.instret"] += cpu.instret
                counts["original.io_ops"] += cpu.io_ops
                counts["original.mem_ops"] += cpu.mem_ops
            else:
                counts["synth_rt.ops_retired"] += \
                    dut._front.runtime.ops_retired

        tracer.patch(matrix, "run_scenario", side, after=scenario_after)

    def run_pass(self, tracer=None):
        from repro.validate.matrix import run_matrix

        self.entries = _artifact_entries(self.store_root)
        started = time.perf_counter()
        with _span(tracer):
            orchestrator = self.load_store(parallel=False)
            result = run_matrix(orchestrator, parallel=False,
                                drivers=self.drivers)
        wall = time.perf_counter() - started
        self._check_matrix(result)
        summary = result.summary()
        if tracer is not None:
            tracer.counts["validate.scenarios_run"] += \
                summary["scenarios_run"]
            tracer.counts["validate.unexplained"] += summary["unexplained"]
        return wall, {}


# ---------------------------------------------------------------------------


_ENDPOINT_SPANS = {method: "endpoint.%s" % method
                   for method in ("boot", "run_due", "harvest", "deliver")}


class Fleet(_Workload):
    """The seeded saturation plan on a fleet of synthesized drivers."""

    name = "fleet-256"

    def __init__(self, config):
        super().__init__(config)
        self.endpoint_count = config.get("endpoints") or FLEET_ENDPOINTS
        self.reference_path = os.path.join(config["workdir"],
                                           "fleet-reference.json")

    def import_modules(self):
        super().import_modules()
        import repro.net.fabric.fleet  # noqa: F401
        import repro.net.fabric.report  # noqa: F401
        import repro.net.fabric.workloads  # noqa: F401
        import repro.validate.observe  # noqa: F401

    def _plan(self):
        from repro.net.fabric.workloads import build_workload

        return build_workload(FLEET_PLAN, self.endpoint_count, self.seed)

    def _build(self, orchestrator, workload):
        from repro.net.fabric.fleet import build_fleet

        return build_fleet(workload, orchestrator=orchestrator,
                           drivers=self._drivers or None)

    def prepare(self):
        """Fill the store, then record the lockstep-scheduler reference
        report for this seed."""
        from repro.net.fabric.fleet import FabricRun
        from repro.net.fabric.report import (build_report,
                                             canonical_fabric_json)

        self.import_modules()
        filled = self.fill_store()
        orchestrator = self.load_store()
        workload = self._plan()
        endpoints = self._build(orchestrator, workload)
        run = FabricRun(endpoints, mode="lockstep")
        run.run()
        report = build_report(workload, endpoints, run)
        if report["totals"]["step_errors"]:
            raise RuntimeError("reference fleet run has %d step errors"
                               % report["totals"]["step_errors"])
        with open(self.reference_path, "w") as handle:
            handle.write(canonical_fabric_json(report))
        return {"filled": filled,
                "reference_rx_frames": report["totals"]["rx_frames"]}

    def _read_reference(self):
        with open(self.reference_path) as handle:
            self.reference_text = handle.read()
        self.reference = json.loads(self.reference_text)

    def setup(self):
        self.import_modules()
        self._read_reference()
        self.orchestrator = self.load_store()
        self.workload = self._plan()
        self.endpoints = self._build(self.orchestrator, self.workload)

    def _check_report(self, report):
        """Per-endpoint records, then the whole canonical report, against
        the lockstep reference."""
        from repro.net.fabric.report import canonical_fabric_json

        text = canonical_fabric_json(report)
        canonical = json.loads(text)
        for mine, theirs in zip(canonical["endpoints"],
                                self.reference["endpoints"]):
            self.checks.check(mine == theirs and not mine["step_errors"],
                              "endpoint %d differs from the reference"
                              % mine["index"])
        self.checks.check(text == self.reference_text,
                          "canonical fabric report differs from the "
                          "lockstep reference")

    def rep(self, index):
        from repro.net.fabric.fleet import FabricRun
        from repro.net.fabric.report import build_report

        # The first repetition runs the fleet set-up built; later ones
        # build a fresh fleet, untimed.
        endpoints, self.endpoints = self.endpoints, None
        if endpoints is None:
            endpoints = self._build(self.orchestrator, self.workload)
        run = FabricRun(endpoints)
        started = time.perf_counter()
        for endpoint in endpoints:
            endpoint.boot()
        booted = time.perf_counter()
        run.run(booted=True)
        finished = time.perf_counter()
        loop_s = finished - booted
        deliveries = sum(endpoint.rx_frames for endpoint in endpoints)
        self._check_report(build_report(self.workload, endpoints, run))
        # RX deliveries and switched frames are different counts; the
        # rate excludes boot.
        return {"op_s": finished - started, "boot_s": booted - started,
                "loop_s": loop_s, "rx_deliveries": deliveries,
                "deliveries_per_s": deliveries / loop_s,
                "frames_switched": run.switch.frames_switched}

    def patch(self, tracer):
        self.patch_common(tracer)

    def run_pass(self, tracer=None):
        from repro.net.fabric.fleet import FabricRun, fabric_queue_depth
        from repro.net.fabric.report import build_report
        from repro.net.fabric.switch import DEFAULT_MAC_AGE, SwitchNode

        self._read_reference()
        started = time.perf_counter()
        with _span(tracer):
            orchestrator = self.load_store()
            with _span(tracer, "fabric.plan"):
                workload = self._plan()
            with _span(tracer, "fabric.build"):
                endpoints = self._build(orchestrator, workload)
            # FabricRun's own defaults, built here so the switch can be
            # handed over behind a timing proxy.
            switch = SwitchNode(len(endpoints),
                                queue_depth=fabric_queue_depth(),
                                mac_age=DEFAULT_MAC_AGE)
            ports = endpoints
            if tracer is not None:
                ports = [TimedProxy(endpoint, tracer, _ENDPOINT_SPANS)
                         for endpoint in endpoints]
                switch = TimedProxy(switch, tracer, {
                    "switch_batch": "switch.switch",
                    "drain": "switch.drain"})
            run = FabricRun(ports, switch=switch)
            for port in ports:
                port.boot()
            with _span(tracer, "scheduler.loop"):
                run.run(booted=True)
            with _span(tracer, "fabric.report"):
                report = build_report(workload, endpoints, run)
        wall = time.perf_counter() - started
        self._check_report(report)
        if tracer is not None:
            counts = tracer.counts
            for name, value in run.scheduler_counters().items():
                counts["scheduler.%s" % name] += value
            stats = report["switch"]
            for name in ("frames_switched", "flooded", "unknown_floods",
                         "queue_drops"):
                counts["switch.%s" % name] += stats[name]
            counts["fabric.rx_deliveries"] += report["totals"]["rx_frames"]
            counts["synth_rt.ops_retired"] += sum(
                endpoint.dut._front.runtime.ops_retired
                for endpoint in endpoints)
        return wall, {}


WORKLOADS = {cls.name: cls for cls in (PortCold, ValidateWarm, Fleet)}
