#!/usr/bin/env python3
"""Compare two benchmark result records (from run.py --results, or
.bench_build/perfbench/results/*.json).

    python3 perfbench/compare.py BASE.json NEW.json

Host time is only comparable on the same kind of host and build: when
the two records' host fingerprints differ, the records are reported as
not comparable and no metric is judged. Otherwise each end-to-end
metric is printed with its change, and marked "worse" when it moved in
its bad direction by more than the bound BENCHMARK.json fixes for it.
One pair of records is one pair of runs: a gain or a regression is
only claimed from many pairs (see perfbench/README.md).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return json.load(f)


def compare(base, new, spec):
    """Return the report lines for two result records."""
    hb, hn = base["host"], new["host"]
    lines = ["base: %s seed %s on %s (%s)" % (base["workload"], base["seed"],
                                             hb["cpu_model"], hb["commit"]),
             "new:  %s seed %s on %s (%s)" % (new["workload"], new["seed"],
                                             hn["cpu_model"], hn["commit"])]
    if hb["fingerprint"] != hn["fingerprint"]:
        lines.append("not comparable: host fingerprints differ (%s vs %s); "
                     "no metric is judged" % (hb["fingerprint"],
                                              hn["fingerprint"]))
        return lines
    if base["workload"] != new["workload"]:
        lines.append("not comparable: different workloads")
        return lines
    for m in spec["end_to_end"]:
        name = m["name"]
        b = base["end_to_end"][name]["value"]
        n = new["end_to_end"][name]["value"]
        change = (n - b) / b if b else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = "worse" if worse > m["bound"] else "within bound"
        lines.append("%-14s %12.6g -> %-12.6g %+7.1f%%  (bound %.0f%%) %s" % (
            name, b, n, 100 * change, 100 * m["bound"], verdict))
    return lines


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    print("\n".join(compare(load(argv[1]), load(argv[2]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
