#!/usr/bin/env python3
"""Summarize benchmark run documents into one baseline JSON document.

    python3 benchmark/summarize.py target/benchmark/run-*.json > benchmark/baseline.json

Untraced documents (``run-<workload>-s<seed>-e2e.json``) give, per
workload and end-to-end metric, the median and quartiles across runs
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
The traced document of each workload with the lowest seed contributes its
``layers`` object: the per-layer metrics of the layers the workload
reaches. A negative value (a self time or tracing overhead lost in
noise) is left out and named under ``negative``.
"""

import json
import statistics
import sys


def main(paths):
    runs, traced, stamps = {}, {}, None
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        run = doc["run"]
        stamps = stamps or {k: doc[k] for k in ("host_fingerprint", "nproc", "build", "git_rev")}
        if run["trace"]:
            best = traced.get(run["workload"])
            if best is None or run["seed"] < best["seed"]:
                skip = set(run["unreached_layers"]) | set(run["negative_values"])
                traced[run["workload"]] = {
                    "seed": run["seed"],
                    "layers": {
                        k: v["value"]
                        for k, v in doc["result"]["metrics"].items()
                        if k not in skip
                    },
                    "negative": run["negative_values"],
                }
        else:
            runs.setdefault(run["workload"], []).append(doc)
    workloads = {}
    for name, docs in sorted(runs.items()):
        metrics = {}
        for key in docs[0]["result"]["metrics"]:
            values = [d["result"]["metrics"][key]["value"] for d in docs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[key] = {
                "unit": docs[0]["result"]["metrics"][key]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        workloads[name] = {
            "runs": len(docs),
            "seeds": sorted(d["run"]["seed"] for d in docs),
            "window_s": docs[0]["run"]["window_s"],
            "tail_pct": docs[0]["run"]["tail_pct"],
            "failed_frac_max": max(d["run"]["failed_frac"] for d in docs),
            "metrics": metrics,
        }
        if name in traced:
            workloads[name]["traced"] = traced[name]
    json.dump({"stamps": stamps, "workloads": workloads}, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
