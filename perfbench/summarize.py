"""Print the per-layer self-time table of traced benchmark records.

Usage::

    python3 perfbench/summarize.py results.jsonl

Reads the JSON-lines records ``run.py --trace 1 --record FILE`` appends
and prints, for each traced record, every layer's calls, total and self
time and its share of the traced pass, then the unattributed remainder
(the pass's own self time) and the tracing overhead against the untraced
serial pass.
"""

import json
import sys

from tracer import ROOT_SPAN


def layer_table(record):
    """The self-time table of one traced record, as text."""
    layers = record["layers"]
    wall = layers[ROOT_SPAN]["total_s"]
    metrics = record["metrics"]
    untraced = metrics["trace.untraced_wall_s"]["value"]
    lines = ["per-layer self time, %s (traced serial pass, %.3f s wall)"
             % (record["workload"], wall),
             "  %-22s %8s %11s %11s %7s" % ("layer", "calls", "total_s",
                                           "self_s", "share")]
    rows = sorted(((name, row) for name, row in layers.items()
                   if name != ROOT_SPAN),
                  key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        lines.append("  %-22s %8d %11.4f %11.4f %6.1f%%"
                     % (name, row["calls"], row["total_s"], row["self_s"],
                        100.0 * row["self_s"] / wall))
    remainder = layers[ROOT_SPAN]["self_s"]
    lines.append("  %-22s %8s %11s %11.4f %6.1f%%"
                 % ("(unattributed)", "", "", remainder,
                    100.0 * remainder / wall))
    total = sum(row["self_s"] for row in layers.values())
    lines.append("  self times + remainder = %.4f s of %.4f s wall"
                 % (total, wall))
    lines.append("  tracing overhead: %+.4f s (%+.1f%%) against the "
                 "untraced serial pass of %.4f s; %d spans at a measured "
                 "%.2f us each account for %.4f s"
                 % (wall - untraced, 100.0 * (wall - untraced) / untraced,
                    untraced, metrics["trace.spans"]["value"],
                    1e6 * metrics["trace.overhead_est_s"]["value"]
                    / max(metrics["trace.spans"]["value"], 1),
                    metrics["trace.overhead_est_s"]["value"]))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    printed = 0
    with open(argv[1]) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("trace") and "layers" in record:
                print(layer_table(record))
                print()
                printed += 1
    if not printed:
        print("no traced records in %s" % argv[1], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
