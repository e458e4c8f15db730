"""Reduced-size self-check of the benchmark (about two minutes).

Usage::

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` is well formed: its keys, limits and name rules,
   and ``setup_s`` carries the largest bound.
2. Every workload runs with one driver and an eight-endpoint fleet, with
   tracing off and on.  Each run must pass its output checks and print a
   result line holding exactly the declared metrics -- every end-to-end
   metric, none of them 0, with tracing off, every per-layer one with
   tracing on -- each with its declared unit; nothing the run measured
   may be left undeclared.
3. ``compare.py`` and ``summarize.py`` read the records those runs wrote.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
   benchmark exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

from common import HERE, ROOT, SPEC_PATH, load_spec
from workloads import WORKLOADS

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
REDUCED = ["--drivers", "rtl8029", "--endpoints", "8", "--seconds", "1"]


class CheckFailed(Exception):
    """The benchmark broke one of its own rules."""


def require(condition, what):
    if not condition:
        raise CheckFailed(what)


def check_spec(spec):
    require(os.path.getsize(SPEC_PATH) <= 64 * 1024, "BENCHMARK.json size")
    require(set(spec) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(spec))
    command = spec["command"]
    require(1 <= len(command) <= 32 and all(
        isinstance(part, str) and len(part) <= 200 for part in command),
        command)
    require(1 <= len(spec["paths"]) <= 16, spec["paths"])
    for path in spec["paths"]:
        require(PATH.match(path) and not path.startswith("/")
                and ".." not in path.split("/"), path)
    require(isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60, spec["run_seconds"])
    require(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for workload in spec["workloads"]:
        require(set(workload) == {"name", "why"}, workload)
        require(len(workload["why"]) <= 200
                and "\n" not in workload["why"], workload)
        require(workload["name"] in WORKLOADS, workload["name"])
        names.append(workload["name"])
    require(1 <= len(spec["end_to_end"]) <= 16, "end-to-end count")
    require(1 <= len(spec["per_layer"]) <= 128, "per-layer count")
    for section, keys in (("end_to_end", {"name", "unit", "better",
                                          "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for metric in spec[section]:
            require(set(metric) == keys, metric)
            require(UNIT.match(metric["unit"]), metric)
            require(metric["better"] in ("higher", "lower"), metric)
            names.append(metric["name"])
    for name in names:
        require(NAME.match(name), name)
    require(len(names) == len(set(names)), "a name is used twice")
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    require(all(0 < bound <= 0.25 for bound in bounds.values()), bounds)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(setup and setup[0]["unit"] == "s"
            and setup[0]["better"] == "lower", "setup_s declaration")
    require(bounds["setup_s"] == max(bounds.values()),
            "setup_s has the largest bound")


def run_benchmark(args, cwd=ROOT, script=RUN):
    process = subprocess.run([sys.executable, script] + args, cwd=cwd,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=300)
    return process


def check_run(spec, workload, trace, record):
    process = run_benchmark(["--workload", workload, "--seed", "7",
                             "--trace", str(trace), "--record", record]
                            + REDUCED)
    require(process.returncode == 0, process.stderr[-3000:])
    result = json.loads(process.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            sorted(result))
    require(result["correct"] is True, process.stdout[-3000:])
    require(isinstance(result["attempted"], int)
            and result["attempted"] >= 1, result["attempted"])
    require(isinstance(result["failed"], int) and result["failed"] == 0,
            result["failed"])
    section = spec["per_layer" if trace else "end_to_end"]
    declared = {metric["name"]: metric for metric in section}
    require(sorted(result["metrics"]) == sorted(declared),
            "%s: metrics %s, declared %s" % (workload,
                                             sorted(result["metrics"]),
                                             sorted(declared)))
    for name, entry in result["metrics"].items():
        require(entry["unit"] == declared[name]["unit"], (name, entry))
        require(isinstance(entry["value"], (int, float)), (name, entry))
        if not trace:
            require(entry["value"] != 0, "%s: %s is 0" % (workload, name))
    record = [line for line in process.stdout.splitlines()
              if line.startswith("record ")]
    undeclared = json.loads(record[-1][len("record "):])["undeclared"]
    require(not undeclared,
            "%s: undeclared metrics %s" % (workload, undeclared))
    return sorted(result["metrics"])


def check_bare_directory():
    """Only BENCHMARK.json and perfbench: no program to measure."""
    bare = os.path.join(ROOT, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(SPEC_PATH, bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        process = run_benchmark(
            ["--workload", "port-cold", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare,
            script=os.path.join(bare, os.path.basename(HERE), "run.py"))
        require(process.returncode != 0, "bare directory run exited 0")
        require('"metrics"' not in process.stdout, process.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass


def main():
    spec = load_spec()
    check_spec(spec)
    print("BENCHMARK.json: ok")
    work = os.path.join(ROOT, ".bench_work", "selfcheck")
    os.makedirs(work, exist_ok=True)
    record = os.path.join(work, "records.jsonl")
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                names = check_run(spec, workload, trace, record)
                print("%s trace %d: ok (%d metrics)" % (workload, trace,
                                                       len(names)))
        for tool in ("compare.py", "summarize.py"):
            process = subprocess.run(
                [sys.executable, os.path.join(HERE, tool), record, record]
                if tool == "compare.py" else
                [sys.executable, os.path.join(HERE, tool), record],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=60)
            require(process.returncode == 0, process.stderr)
        print("compare.py, summarize.py: ok")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_bare_directory()
    print("bare directory: exits non-zero without a result")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
