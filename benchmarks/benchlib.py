"""Shared timing and reporting helpers for the benchmark gates.

Every gate records its numbers in one section of ``BENCH_pipeline.json``
at the repo root (:func:`update_bench`) and times its contenders with one
sampler (:func:`race`, or :func:`best_of` for a single contender).
"""

import json
import os
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The bench report every gate merges its section into.
BENCH_PATH = os.path.join(_REPO_ROOT, "BENCH_pipeline.json")


def write_bench(report):
    """Write the whole bench report (sorted keys, one-space indent)."""
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def update_bench(section, record):
    """Set ``section`` of the bench report to ``record``, keeping every
    other section; a missing report starts empty."""
    report = {}
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as handle:
            report = json.load(handle)
    report[section] = dict(record)
    write_bench(report)


def race(rounds, contenders):
    """Interleaved wall-clock samples of each contender.

    The sides of a gate must sample the same load conditions: timing all
    of one side then all of the other lets a scheduler spike during either
    phase flip the verdict.  Each round runs every contender once, in
    order.  Returns ``({name: [seconds per round]}, {name: last result})``.
    """
    samples = {name: [] for name in contenders}
    results = {}
    for _ in range(rounds):
        for name, fn in contenders.items():
            started = time.perf_counter()
            results[name] = fn()
            samples[name].append(time.perf_counter() - started)
    return samples, results


def best_of(runs, fn):
    """Best wall-clock of ``runs`` attempts (damps scheduler noise
    without hiding a real regression) plus the last result."""
    samples, results = race(runs, {"fn": fn})
    return min(samples["fn"]), results["fn"]
