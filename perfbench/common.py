"""Shared helpers: the benchmark declaration, statistics, host state."""

import hashlib
import json
import os
import platform
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs in: the directory holding ``perfbench``.
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec(path=SPEC_PATH):
    """``BENCHMARK.json`` as a dict."""
    with open(path) as handle:
        return json.load(handle)


def declared_metrics(spec):
    """``{name: entry}`` over the end-to-end and per-layer metrics."""
    out = {}
    for section in ("end_to_end", "per_layer"):
        for entry in spec[section]:
            out[entry["name"]] = dict(entry, section=section)
    return out


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (Python's default method)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _git_commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root=ROOT):
    """SHA-256 over the program's source tree (identifies a checkout
    that is not a git repository)."""
    package = os.path.join(root, "src", "repro")
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(package)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".s")):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_state(root=ROOT):
    """Static host facts recorded with every result."""
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "commit": _git_commit(root),
            "source_digest": source_digest(root)}


def loadavg():
    """The 1/5/15-minute load averages."""
    return [round(value, 2) for value in os.getloadavg()]


def speed_probe(rounds=5):
    """Median milliseconds of a fixed pure-Python loop: how fast the host
    runs Python right now, independent of the program under test."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        samples.append(1000.0 * (time.perf_counter() - started))
    return statistics.median(samples)
