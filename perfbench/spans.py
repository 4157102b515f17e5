"""Summarize a span file written by a traced run.

    python3 perfbench/spans.py .perfbench_work/traces/admissibility-seed1.json

Prints, per label, the calls, inclusive seconds and self seconds per traced
job, and for each label the inclusive seconds split by the label of the
enclosing span (for example, how much of `special.theta_k` ran inside
`grids.sample` and how much inside `injectivity.two_radii_check`).
"""

import json
import sys
from collections import defaultdict


def summarize(spans):
    by_id = {s[0]: s for s in spans}
    jobs = {s[5] for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    by_parent = defaultdict(lambda: defaultdict(float))
    for s in spans:
        dur = s[3] - s[2]
        calls[s[1]] += 1
        self_s[s[1]] += dur - child[s[0]]
        parent = by_id[s[4]][1] if s[4] is not None else None
        if parent != s[1]:
            incl[s[1]] += dur
        by_parent[s[1]][parent] += dur
    n = len(jobs)
    return {label: {"calls": calls[label] / n, "inclusive_s": incl[label] / n,
                    "self_s": self_s[label] / n,
                    "by_parent_s": {str(p): v / n for p, v in by_parent[label].items()}}
            for label in calls}


def main(argv):
    with open(argv[1]) as fh:
        spans = json.load(fh)["spans"]
    rows = summarize(spans)
    print(f"{'label':42s} {'calls':>8s} {'incl_s':>9s} {'self_s':>9s}  by parent")
    for label, r in sorted(rows.items(), key=lambda kv: -kv[1]["inclusive_s"]):
        parents = ", ".join(f"{p} {v:.3f}" for p, v in r["by_parent_s"].items())
        print(f"{label:42s} {r['calls']:8.0f} {r['inclusive_s']:9.3f} {r['self_s']:9.3f}  {parents}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
