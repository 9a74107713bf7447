"""``python3 -m bench compare A.json B.json``: did B get worse than A?

Per (workload, end-to-end metric) one of: improved, unchanged, regressed, or
unresolved — the run-to-run spread is wider than the metric's bound and the
two sets of runs overlap, so the medians cannot be told apart.  The bounds are
the ones ``BENCHMARK.json`` fixes; ``failed_share`` has bound 0.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from bench.harness import contract


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = -1 if better == "higher" else 1
    worse_by = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(a: Dict, b: Dict, metrics: List[Dict]) -> List[Dict]:
    noisy = a["host"].get("noisy") or b["host"].get("noisy")
    rows = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            rows.append({"workload": name, "metric": "-", "verdict": "regressed", "note": "missing in B"})
            continue
        if wa["sim_digest"] != wb["sim_digest"] or (wa["seed"], wa["cycles"]) != (wb["seed"], wb["cycles"]):
            rows.append(
                {"workload": name, "metric": "sim_digest", "verdict": "regressed",
                 "note": f"{str(wa['sim_digest'])[:12]} (seed {wa['seed']}, {wa['cycles']} cycles) != "
                 f"{str(wb['sim_digest'])[:12]} (seed {wb['seed']}, {wb['cycles']} cycles)"}
            )
        rows.append(
            {"workload": name, "metric": "failed_share",
             "verdict": "regressed" if wb["failed_share"] > wa["failed_share"] else "unchanged",
             "note": f"{wa['failed_share']:.3f} -> {wb['failed_share']:.3f} (bound 0)"}
        )
        for metric in metrics:
            sa, sb = wa["end_to_end"].get(metric["name"]), wb["end_to_end"].get(metric["name"])
            if not sa or not sb:
                rows.append({"workload": name, "metric": metric["name"], "verdict": "regressed", "note": "no successful run"})
                continue
            result = verdict(sa["values"], sb["values"], metric["better"], metric["bound"])
            if noisy and result in ("improved", "regressed"):
                result = "unresolved"
            rows.append(
                {"workload": name, "metric": metric["name"], "verdict": result,
                 "note": f"A {sa['median']:.4f} [{sa['min']:.4f}, {sa['max']:.4f}] n={sa['n']}  "
                 f"B {sb['median']:.4f} [{sb['min']:.4f}, {sb['max']:.4f}] n={sb['n']}  "
                 f"B/A {sb['median'] / sa['median']:.3f} {sa['unit']} ({metric['better']} is better, "
                 f"bound {metric['bound']:.0%}{', noisy host' if noisy else ''})"}
            )
    return rows


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as stream_a, open(path_b) as stream_b:
        rows = compare(json.load(stream_a), json.load(stream_b), contract()["end_to_end"])
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<12} {row['verdict']:<10} {row['note']}")
    counts = {v: sum(row["verdict"] == v for row in rows) for v in ("improved", "unchanged", "unresolved", "regressed")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0
