"""One benchmark step in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/session.py STEP CONFIG_JSON`` where STEP is

``prepare``  untimed preparation (store fill, fleet reference);
``setup``    set-up only: reports the seconds from the parent's spawn
             timestamp until the first timed operation could start;
``measure``  set-up, then timed repetitions for ``seconds`` (at least
             one), with every output checked;
``pass``     one serial pass of the whole sequence, untraced;
``trace``    the same pass under the span tracer.

The last line of standard output is one JSON object.  The program's
pool workers re-import this file as their main module, so it does
nothing at import time.
"""

import gc
import json
import resource
import sys
import time


def _peak_rss_mb():
    """Largest peak resident set of this process and its waited-for
    children (the program's workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _setup(workload, config):
    workload.setup()
    return time.monotonic() - config["spawned_at"]


def main(argv):
    step, config = argv[1], json.loads(argv[2])
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[config["workload"]](config)
    out = {}
    if step == "prepare":
        out["prepared"] = workload.prepare()
    elif step == "setup":
        out["setup_s"] = _setup(workload, config)
    elif step == "measure":
        out["setup_s"] = _setup(workload, config)
        deadline = time.monotonic() + config["seconds"]
        reps = []
        while not reps or time.monotonic() < deadline:
            # Start every repetition from the same collector state, so a
            # full collection owed by the previous one is not timed here.
            gc.collect()
            reps.append(workload.rep(len(reps)))
        out["reps"] = reps
        out["coverage_min"] = min(workload.coverage.values())
        out["peak_rss_mb"] = _peak_rss_mb()
    elif step in ("pass", "trace"):
        workload.import_modules()
        tracer = None
        if step == "trace":
            tracer = Tracer()
            workload.patch(tracer)
        try:
            out["wall_s"], out["info"] = workload.run_pass(tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            out["layers"] = tracer.layers()
            out["counts"] = dict(tracer.counts)
            out["spans"] = len(tracer.names)
            out["span_cost_s"] = tracer.span_cost()
    else:
        raise SystemExit("unknown step %r" % step)
    out["checks"] = workload.checks.to_dict()
    sys.stdout.flush()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
