"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the JSON-lines records ``run.py --record FILE`` appends.
For every workload and metric the command prints the sample count,
median and quartiles of each set.  With two sets it adds a verdict
against ``BENCHMARK.json``:

``worse``       the new median is worse than the base median by more than
                the metric's bound (per-layer metrics have no bound: every
                new value is worse than every base value);
``better``      the new median is better by more than the base set's own
                inter-quartile spread and the new run wins at least nine
                of ten pairs (runs paired in recorded order);
``unresolved``  neither could be shown, including every case where the
                spread of either set is wider than the bound and the two
                sets overlap.

It also prints each set's host speed probe (a fixed pure-Python loop
timed at the start and end of every run), so a slower host can be told
apart from slower code, and flags runs recorded on an oversubscribed
host (more runnable work than cores) or whose outputs failed a check.
"""

import json
import sys
from collections import defaultdict

from common import declared_metrics, load_spec, quartiles, spread


def load_records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def group(records):
    """``{(workload, metric): [values in recorded order]}``."""
    out = defaultdict(list)
    for record in records:
        for name, entry in record["metrics"].items():
            out[(record["workload"], name)].append(entry["value"])
    return out


def verdict(base, new, better, bound):
    """``better``, ``worse`` or ``unresolved`` for ``new`` against
    ``base``; ``bound`` is ``None`` for per-layer metrics."""
    sign = 1.0 if better == "higher" else -1.0
    base_signed = [sign * value for value in base]
    new_signed = [sign * value for value in new]
    if min(new_signed) > max(base_signed):
        return "better"
    if max(new_signed) < min(base_signed):
        return "worse"
    if bound is None:
        return "unresolved"
    base_median = quartiles(base)[1]
    if not base_median:
        return "unresolved"
    change = sign * (quartiles(new)[1] - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if change < -bound:
        return "worse"
    pairs = list(zip(base_signed, new_signed))
    wins = sum(1 for old, fresh in pairs if fresh > old)
    if change > spread(base) and wins >= 0.9 * len(pairs):
        return "better"
    return "unresolved"


def _probe(records, label):
    readings = [record["host"][key] for record in records
                for key in ("probe_ms_start", "probe_ms_end")]
    q1, median, q3 = quartiles(readings)
    return ("  %s host speed probe: median %.2f ms (q1 %.2f, q3 %.2f) over "
            "%d readings" % (label, median, q1, q3, len(readings)))


def _flags(records, label):
    lines = [_probe(records, label)]
    for record in records:
        notes = []
        if record["host"].get("oversubscribed"):
            notes.append("oversubscribed host (load %s -> %s on %d cores)"
                         % (record["host"]["loadavg_start"],
                            record["host"]["loadavg_end"],
                            record["host"]["nproc"]))
        if not record["correct"]:
            notes.append("%d of %d checks failed"
                         % (record["failed"], record["attempted"]))
        if notes:
            lines.append("  %s %s seed %s: %s" % (label, record["workload"],
                                                  record["seed"],
                                                  "; ".join(notes)))
    return lines


def report(base_records, new_records=None, spec=None):
    """The comparison table as text."""
    declared = declared_metrics(spec or load_spec())
    base = group(base_records)
    new = group(new_records) if new_records is not None else {}
    keys = sorted(set(base) | set(new))
    lines = ["%-14s %-28s %4s %12s %12s %12s %7s  %s"
             % ("workload", "metric", "n", "q1", "median", "q3", "spread",
                "verdict")]

    def row(label, values):
        q1, median, q3 = quartiles(values)
        return "%-14s %-28s %4d %12.6g %12.6g %12.6g %6.1f%%" % (
            label[0], label[1], len(values), q1, median, q3,
            100.0 * spread(values))

    for key in keys:
        entry = declared.get(key[1], {})
        if key in base:
            lines.append(row(key, base[key])
                         + ("  (base)" if new_records is not None else ""))
        if key in new:
            text = row(key, new[key])
            if key in base and entry:
                text += "  " + verdict(base[key], new[key], entry["better"],
                                       entry.get("bound"))
            lines.append(text)
    lines.extend(_flags(base_records, "base"))
    if new_records is not None:
        lines.extend(_flags(new_records, "new"))
    return "\n".join(lines)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    base = load_records(argv[1])
    new = load_records(argv[2]) if len(argv) == 3 else None
    print(report(base, new))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
