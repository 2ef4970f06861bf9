#!/usr/bin/env python3
"""Compare the traced outputs of two commits, workload by workload.

    python3 perfbench/trace_diff.py <before> <after>

Each argument is a trace file written by a `--trace 1` run
(.bench_out/trace-<workload>-seed<n>.json) or a directory of them.
Files are paired by workload and seed. For each pair it prints:

  * each span's change in self time and in call count (the benchmark's
    spans around public simulator calls, grouped by layer);
  * each per-layer metric's change;
  * every simulated counter that differs, flagged. A perf or
    simplicity change must leave these identical; host-side work
    counters (scheduler picks, retry probes, stage calls) are shown
    but not flagged, since such a change may legitimately move them.

Exits 1 when any simulated counter or result digest differs, else 0.
"""

import json
import os
import sys


def load(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.startswith("trace-") and f.endswith(".json")]
    else:
        files = [path]
    out = {}
    for f in files:
        with open(f) as fh:
            t = json.load(fh)
        if t.get("schema") != "perfbench-trace":
            sys.exit("%s: not a perfbench trace" % f)
        out[(t["workload"], t["seed"])] = t
    return out


def rel(a, b):
    if a == 0:
        return "" if b == 0 else "   new"
    return "%+6.1f%%" % (100.0 * (b - a) / abs(a))


def diff_pair(key, a, b):
    print("== %s seed %s" % key)
    flagged = 0
    if a["digest"] != b["digest"]:
        print("  !! result digest %s -> %s" % (a["digest"], b["digest"]))
        flagged += 1

    print("  spans (self s, calls)")
    sa, sb = a["span_totals"], b["span_totals"]
    for name in sorted(set(sa) | set(sb)):
        x = sa.get(name, {"self_s": 0.0, "calls": 0})
        y = sb.get(name, {"self_s": 0.0, "calls": 0})
        calls = "" if x["calls"] == y["calls"] else \
            "  calls %d -> %d" % (x["calls"], y["calls"])
        print("    %-30s %10.4f -> %10.4f %8s%s" % (
            name, x["self_s"], y["self_s"], rel(x["self_s"], y["self_s"]),
            calls))

    print("  per-layer metrics")
    la, lb = a["per_layer"], b["per_layer"]
    for name in sorted(set(la) | set(lb)):
        x = la.get(name, {}).get("value", 0.0)
        y = lb.get(name, {}).get("value", 0.0)
        unit = (lb.get(name) or la.get(name))["unit"]
        print("    %-34s %14.6g -> %14.6g %-10s %8s" % (
            name, x, y, unit, rel(x, y)))

    ca, cb = a["sim_counters"], b["sim_counters"]
    for name in sorted(set(ca) | set(cb)):
        if ca.get(name) != cb.get(name):
            print("  !! simulated counter %s: %s -> %s" % (
                name, ca.get(name), cb.get(name)))
            flagged += 1
    wa, wb = a["work_counters"], b["work_counters"]
    for name in sorted(set(wa) | set(wb)):
        x, y = wa.get(name, 0), wb.get(name, 0)
        if x != y:
            print("  work counter %s: %s -> %s %s" % (name, x, y, rel(x, y)))
    return flagged


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    flagged = 0
    for key in sorted(set(before) & set(after)):
        flagged += diff_pair(key, before[key], after[key])
    for key in sorted(set(before) ^ set(after)):
        print("== %s seed %s: only in one side, not compared" % key)
    if flagged:
        print("%d simulated difference(s) flagged" % flagged)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
