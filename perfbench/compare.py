"""Compare mode: two ``--out`` files, each holding several runs.

For every workload and end-to-end metric it prints each side's median
and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``regressed`` -- the new median is worse than the base median by more
  than the bound;
* ``unresolved`` -- the base runs spread wider than the bound, and the
  new runs do not all beat every base run;
* ``better`` -- the new median is better by more than the base spread
  and the two sides' quartile ranges do not overlap;
* ``same`` -- anything else.

From traced runs (``--trace 1``) it also names the per-layer self time
that moved most between the two sides.
"""

from __future__ import annotations

import json
import statistics

from stats import quartiles

__all__ = ["compare", "verdict"]


def _load(path: str) -> "list[dict]":
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _values(runs: "list[dict]", workload: str, section: str, metric: str) -> list:
    """One metric's values; end-to-end figures come from untraced runs only."""
    values = []
    for run in runs:
        if run["workload"] != workload or (section == "end_to_end" and run["trace"]):
            continue
        entry = run.get(section, {}).get(metric)
        if entry and entry["value"] is not None:
            values.append(entry["value"])
    return values


def verdict(base: list, new: list, better: str, bound: float) -> str:
    """The verdict for one workload x metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = quartiles(base)
    n_q1, new_median, n_q3 = quartiles(new)
    if median == 0:
        return "same" if new_median == 0 else "unresolved"
    worse = sign * (new_median - median) / abs(median)
    spread = (q3 - q1) / abs(median)
    if worse > bound:
        return "regressed"
    beats_all = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not beats_all:
        return "unresolved"
    new_worst, base_best = (n_q3, q1) if sign > 0 else (n_q1, q3)
    if -worse > spread and sign * (new_worst - base_best) < 0:
        return "better"
    return "same"


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """Print the comparison; returns 1 if any metric regressed, else 0."""
    base, new = _load(base_path), _load(new_path)
    workloads = sorted({run["workload"] for run in base} & {run["workload"] for run in new})
    regressed = False
    print(f"{'workload':8} {'metric':16} {'base q1/median/q3':>30} "
          f"{'new q1/median/q3':>30} {'change':>8}  verdict")
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            b = _values(base, workload, "end_to_end", name)
            n = _values(new, workload, "end_to_end", name)
            if not b or not n:
                print(f"{workload:8} {name:16} missing on one side")
                continue
            bq, nq = quartiles(b), quartiles(n)
            result = verdict(b, n, entry["better"], entry["bound"])
            regressed |= result == "regressed"
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            print(f"{workload:8} {name:16} "
                  f"{'/'.join(f'{v:.4g}' for v in bq):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in nq):>30} {change:>+8.1%}  "
                  f"{result} (bound {entry['bound']:.0%}, runs {len(b)}/{len(n)})")
        moved = _layer_moved_most(base, new, workload)
        if moved is not None and moved[1] != moved[2]:
            name, b_med, n_med = moved
            print(f"{workload:8} layer moved most: {name} "
                  f"{b_med:.4g} -> {n_med:.4g} ms/req (median of traced runs)")
        elif moved is not None:
            print(f"{workload:8} no per-layer self time moved")
    return 1 if regressed else 0


def _layer_moved_most(base, new, workload: str) -> "tuple | None":
    names = {
        name
        for run in base + new
        if run["workload"] == workload
        for name, entry in run.get("per_layer", {}).items()
        if entry["unit"] == "ms/req" and name != "traced.request_ms"
    }
    best = None
    for name in sorted(names):
        b = _values(base, workload, "per_layer", name)
        n = _values(new, workload, "per_layer", name)
        if not b or not n:
            continue
        b_med, n_med = statistics.median(b), statistics.median(n)
        if best is None or abs(n_med - b_med) > abs(best[2] - best[1]):
            best = (name, b_med, n_med)
    return best
