"""The repository benchmark: four HTTP workloads against a live ``serve``.

Run from the repository root::

    python3 perfbench/run.py --workload hot --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload cold --seed 1 --seconds 24 --trace 1
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Each run starts ``python -m repro.cli serve`` from ``src/``, registers
the workload's seeded graphs over ``POST /v1/graphs`` and drives the
server in a closed loop over persistent keep-alive connections (two for
``hot``, one otherwise).  Every exact answer is checked against
``repro.core.epivoter.count_all`` computed in this process; a mismatch
is a failed request and makes the run incorrect.

Workloads (see ``workloads.py`` for sizes):

* ``hot`` -- 64 warmed keys over 3 graphs, all answered by the cache;
* ``cold`` -- exact counts over 10 graphs x shapes 1..5, no key repeats;
* ``approx`` -- estimates and deadline-carrying counts, distinct seeds;
* ``mutate`` -- PATCH batches of 16 inserts + 16 deletes between reads.

With ``--trace 0`` the run reports end-to-end metrics; with ``--trace 1``
it reports per-layer metrics: counter deltas from the server's
``/metrics`` plus self times from replaying the same requests, traced,
through an in-process executor (``layers.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics named in ``BENCHMARK.json``; the lines before
it print every metric with its unit and sample count.  ``--out FILE``
appends the full result document to ``FILE`` as one JSON line, which is
what ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Each ``--trace 0`` run sets the server up this many times and
#: reports the median set-up time.
SETUP_REPEATS = 3
#: ``mutate`` must cross the compaction bound at least this often.
MIN_COMPACTIONS = 3
ENGINES = ("stars", "matrix", "epivoter", "delta", "adaptive", "hybrid", "zigzag++")


class SetupError(RuntimeError):
    """The server could not be set up (registration or warm-up failed)."""


def _spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _metric(value, unit: str, n: "int | None" = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def oracle_counts(workload) -> dict:
    """``{(graph, p, q): exact count}`` from ``count_all`` on every graph.

    ``count_all`` runs EPivoter without core reduction, the planner or
    the matrix engine, so it shares as little as possible with the
    paths the server picks.
    """
    from repro.core.epivoter import count_all

    max_p, max_q = workload.oracle_shape
    table = {}
    for name, graph in workload.graphs.items():
        counts = count_all(graph, max_p, max_q)
        for p in range(1, max_p + 1):
            for q in range(1, max_q + 1):
                table[(name, p, q)] = counts[p, q]
    return table


def verify_mutations(workload, records) -> "list[str]":
    """Replay the PATCH batches on our own edge set; check every read.

    Each read carries the version in its fingerprint; the reference for
    version ``v`` is ``count_all`` on the base edges with the first
    ``v`` batches applied (inserts first, then deletes, as the server
    applies them).
    """
    from repro.core.epivoter import count_all
    from repro.graph.bigraph import BipartiteGraph

    from workloads import parse_version

    base = workload.graphs["mutate"]
    reads: dict = {}
    for op, reply in records:
        if op.kind != "patch" and reply.ok and reply.payload.get("exact"):
            version = parse_version(reply.payload["fingerprint"])
            reads.setdefault(version, []).append((op.body["p"], op.body["q"],
                                                  reply.payload["value"]))
    errors = []
    edges = set(base.edges())
    version = 0
    patches = iter(op for op, reply in records if op.kind == "patch" and reply.ok)
    max_p, max_q = workload.oracle_shape
    for target in sorted(reads):
        while version < target:
            op = next(patches, None)
            if op is None:
                errors.append(f"read at version {target} but only {version} batches applied")
                return errors
            edges.update(map(tuple, op.body["add_edges"]))
            edges.difference_update(map(tuple, op.body["remove_edges"]))
            version += 1
        counts = count_all(BipartiteGraph(base.n_left, base.n_right, edges), max_p, max_q)
        for p, q, value in reads[target]:
            if counts[p, q] != value:
                errors.append(f"version {version} ({p},{q}): served {value}, "
                              f"expected {counts[p, q]}")
    return errors


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _set_up(workload, oracle: dict):
    """Spawn ``serve``, register every graph, replay the warm-up.

    Returns ``(server, seconds, warm-up mismatches)``.
    """
    from serve import ServeProcess
    from workloads import graph_payload

    start = time.perf_counter()
    server = ServeProcess(ROOT)
    try:
        client = server.client()
        try:
            for name, graph in workload.graphs.items():
                reply = client.call("POST", "/v1/graphs", graph_payload(name, graph))
                if not reply.ok:
                    raise SetupError(f"registering {name} failed: {reply.status}")
        finally:
            client.close()
        records = _drive(server, workload.connections,
                         lambda c: iter(workload.warmup[c::workload.connections]),
                         deadline=None)
        if any(not reply.ok for _, reply in records):
            raise SetupError("a warm-up request failed")
        mismatches = sum(_mismatch(op, reply, oracle) for op, reply in records)
        return server, time.perf_counter() - start, mismatches
    except BaseException:
        server.close()
        raise


def _drive(server, connections: int, streams, deadline: "float | None") -> list:
    """Closed loop: each connection sends its next request on a reply.

    ``streams(c)`` yields connection ``c``'s requests; a connection
    stops when its stream ends or ``deadline`` (perf_counter) passes.
    """
    results: "list[list]" = [[] for _ in range(connections)]
    stop = threading.Event()  # set when connection 0 is interrupted

    def loop(c: int) -> None:
        client = server.client()
        try:
            for op in streams(c):
                if stop.is_set() or (deadline is not None and time.perf_counter() >= deadline):
                    break
                results[c].append((op, client.call(op.method, op.path, op.body)))
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(1, connections)]
    for thread in threads:
        thread.start()
    try:
        loop(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    return [record for per_connection in results for record in per_connection]


def _mismatch(op, reply, oracle: dict) -> bool:
    """An exact answer that differs from the oracle (mutate is checked later)."""
    if not reply.ok or op.kind == "patch" or not reply.payload.get("exact"):
        return False
    expected = oracle.get(op.key)
    return expected is not None and reply.payload["value"] != expected


def _metrics_snapshot(server) -> dict:
    client = server.client()
    try:
        reply = client.call("GET", "/metrics")
    finally:
        client.close()
    if not reply.ok:
        raise SetupError(f"GET /metrics failed: {reply.status}")
    return reply.payload


def _deltas(before: dict, after: dict) -> dict:
    counters = {
        name: after["counters"].get(name, 0) - before["counters"].get(name, 0)
        for name in after["counters"]
    }
    for name in ("hits", "misses", "evictions"):
        counters[f"cache.{name}"] = after["cache"][name] - before["cache"][name]
    return counters


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result document."""
    from workloads import build

    workload = build(name, seed)
    oracle = oracle_counts(workload) if name != "mutate" else {}
    setups = []
    warm_mismatches = 0
    server = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            server.close()
        server, setup_s, mismatches = _set_up(workload, oracle)
        setups.append(setup_s)
        warm_mismatches += mismatches
    try:
        before = _metrics_snapshot(server)
        start = time.perf_counter()
        records = _drive(server, workload.connections, workload.stream,
                         deadline=start + seconds)
        elapsed = time.perf_counter() - start
        after = _metrics_snapshot(server)
        peak_rss = server.peak_rss_mb()
        serve_argv = server.argv[1:]
    finally:
        server.close()
    deltas = _deltas(before, after)
    lookups = deltas["cache.hits"] + deltas["cache.misses"]
    hit_ratio = deltas["cache.hits"] / lookups if lookups else 0.0

    problems = [f"{warm_mismatches} warm-up answers differ from the oracle"] \
        if warm_mismatches else []
    failed = _check(workload, records, oracle, deltas, hit_ratio, problems)
    e2e = _end_to_end(workload, records, oracle, elapsed, failed)
    e2e["setup_s"] = _metric(statistics.median(setups), "s", len(setups))
    e2e["peak_rss_mb"] = _metric(peak_rss, "MiB", 1)
    result = {
        "schema": "repro-perfbench/1",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "elapsed_s": elapsed,
        "correct": not problems,
        "problems": problems,
        "attempted": len(records),
        "failed": failed,
        "end_to_end": e2e,
        "environment": _environment(workload, records, serve_argv),
    }
    if trace:
        result["per_layer"] = _per_layer(workload, records, deltas, hit_ratio)
    return result


def _check(workload, records, oracle, deltas, hit_ratio, problems) -> int:
    """Count failed requests and append every problem; the sanity gates.

    A failure is a non-2xx reply, a transport error or timeout, or an
    exact answer that differs from the oracle.
    """
    failed = mismatches = 0
    for op, reply in records:
        if not reply.ok:
            failed += 1
        elif _mismatch(op, reply, oracle):
            failed += 1
            mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} exact answers differ from the oracle")
    name = workload.name
    if name == "mutate":
        mutation_errors = verify_mutations(workload, records)
        failed += len(mutation_errors)
        problems.extend(mutation_errors[:5])
        compactions = deltas.get("graph.compactions", 0)
        if compactions < MIN_COMPACTIONS:
            problems.append(f"mutate compacted {compactions} times, "
                            f"needs {MIN_COMPACTIONS}")
    if name == "hot" and hit_ratio != 1.0:
        problems.append(f"hot cache hit ratio {hit_ratio:.4f}, expected 1.0")
    if name == "cold":
        if hit_ratio != 0.0:
            problems.append(f"cold cache hit ratio {hit_ratio:.4f}, expected 0.0")
        if deltas.get("service.degraded", 0):
            problems.append(f"cold returned {deltas['service.degraded']} degraded answers")
    return failed


def _end_to_end(workload, records, oracle, elapsed: float, failed: int) -> dict:
    """Every end-to-end metric the workload defines, with sample counts."""
    from stats import summarize

    name = workload.name
    queries = [(op, r) for op, r in records if op.kind != "patch"]
    latency = summarize([r.seconds * 1000.0 for _, r in queries if r.ok])
    completed = sum(1 for _, r in records if r.ok)
    e2e = {
        "latency_p50_ms": _metric(latency["p50"], "ms", latency["n"]),
        "latency_p90_ms": _metric(latency["p90"], "ms", latency["n"]),
        "throughput_rps": _metric(completed / elapsed, "req/s", completed),
        "error_ratio": _metric(failed / max(1, len(records)), "ratio", len(records)),
    }
    if name == "hot":
        e2e["latency_p99_ms"] = _metric(latency["p99"], "ms", latency["n"])
    counts = [r for op, r in queries if op.kind == "count" and r.ok]
    if name in ("cold", "approx"):
        degraded = sum(1 for r in counts if r.payload.get("degraded"))
        e2e["degraded_ratio"] = _metric(degraded / max(1, len(counts)), "ratio", len(counts))
    if name == "cold":
        for engine in ("stars", "matrix", "epivoter"):
            share = sum(1 for r in counts if r.payload["method"] == engine)
            e2e[f"route_share.{engine}"] = _metric(share / max(1, len(counts)), "ratio",
                                                    len(counts))
    if name == "approx":
        with_deadline = [(op, r) for op, r in queries if "deadline_ms" in op.body]
        misses = sum(1 for op, r in with_deadline
                     if not r.ok or r.seconds * 1000.0 > op.body["deadline_ms"])
        e2e["deadline_miss_ratio"] = _metric(misses / max(1, len(with_deadline)), "ratio",
                                             len(with_deadline))
        errors = [abs(r.payload["value"] - oracle[op.key]) / oracle[op.key]
                  for op, r in queries
                  if r.ok and not r.payload.get("exact") and oracle[op.key] > 0]
        e2e["estimate_rel_err"] = _metric(
            statistics.median(errors) if errors else None, "ratio", len(errors))
    if name == "mutate":
        patch = summarize([r.seconds * 1000.0 for op, r in records
                           if op.kind == "patch" and r.ok])
        e2e["patch_p50_ms"] = _metric(patch["p50"], "ms", patch["n"])
        e2e["patch_p90_ms"] = _metric(patch["p90"], "ms", patch["n"])
    return e2e


def _environment(workload, records, serve_argv: list) -> dict:
    import numpy

    from serve import SERVE_FLAGS

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    # A mutated graph's answers are cached under versioned fingerprints.
    distinct = len({json.dumps([op.path, op.body, reply.payload.get("fingerprint")],
                               sort_keys=True)
                    for op, reply in records if op.kind != "patch" and reply.ok})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "serve_argv": serve_argv,
        "connections": workload.connections,
        "graphs": {
            g: {"n_left": graph.n_left, "n_right": graph.n_right, "edges": graph.num_edges}
            for g, graph in workload.graphs.items()
        },
        "working_set": {"distinct_query_keys": distinct,
                        "cache_capacity": SERVE_FLAGS["cache_capacity"]},
    }


def _per_layer(workload, records, deltas: dict, hit_ratio: float) -> dict:
    from layers import traced_replay
    from stats import summarize

    timed = [(op, r) for op, r in records if r.ok and "request_ms" in r.payload]
    transport = summarize([r.seconds * 1000.0 - r.payload["request_ms"] for _, r in timed])
    request = summarize([r.payload["request_ms"] for _, r in timed])
    metrics = {
        "server.transport_ms": (transport["p50"], "ms"),
        "server.request_ms": (request["p50"], "ms"),
        "executor.coalesced": (deltas.get("service.coalesced", 0), "count"),
        "executor.rejected": (deltas.get("service.rejected", 0), "count"),
        "cache.hit_ratio": (hit_ratio, "ratio"),
        "cache.evictions": (deltas["cache.evictions"], "count"),
        "planner.degraded": (deltas.get("service.degraded", 0), "count"),
        "planner.budget_aborts": (deltas.get("service.budget_exceeded", 0), "count"),
        "epivoter.nodes_expanded": (deltas.get("epivoter.nodes_expanded", 0), "count"),
        "frontier.batches": (deltas.get("epivoter.frontier_batches", 0), "count"),
        "mutation.compactions": (deltas.get("graph.compactions", 0), "count"),
        "mutation.snapshot_builds": (deltas.get("service.snapshot_builds", 0), "count"),
        "adaptive.samples_used": (deltas.get("adaptive.samples_to_convergence", 0), "count"),
    }
    for engine in ENGINES:
        metrics[f"planner.runs.{engine.replace('+', 'p')}"] = (
            deltas.get(f"service.engine_runs.{engine}", 0), "count")
    metrics.update(traced_replay(
        workload, [op for op, _ in records], [r.payload["request_ms"] for _, r in timed]
    ))
    return {name: _metric(value, unit, len(timed) if name.startswith("server.") else None)
            for name, (value, unit) in metrics.items()}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"# workload={name} seed={result['seed']} seconds={result['seconds']} "
          f"trace={int(result['trace'])} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for problem in result["problems"]:
        print(f"# PROBLEM: {problem}")
    env = result["environment"]
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} connections={env['connections']}")
    print(f"# env serve {' '.join(env['serve_argv'])}")
    for g, info in env["graphs"].items():
        print(f"# env graph {g} n_left={info['n_left']} n_right={info['n_right']} "
              f"edges={info['edges']}")
    ws = env["working_set"]
    print(f"# env working_set distinct_query_keys={ws['distinct_query_keys']} "
          f"cache_capacity={ws['cache_capacity']}")
    sections = [("end_to_end", result["end_to_end"])]
    if "per_layer" in result:
        sections.append(("per_layer", result["per_layer"]))
    for section, metrics in sections:
        for metric, entry in metrics.items():
            n = f" n={entry['n']}" if "n" in entry else ""
            print(f"{section} {name} {metric} = {_fmt(entry['value'])} {entry['unit']}{n}")


def contract_line(result: dict, spec: dict) -> dict:
    """The last output line: the metrics ``BENCHMARK.json`` names."""
    section = "per_layer" if result["trace"] else "end_to_end"
    source = result[section]
    metrics = {}
    for entry in spec[section]:
        value = source[entry["name"]]["value"]
        if value is None:
            raise RuntimeError(f"metric {entry['name']} has too few samples")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["hot", "cold", "approx", "mutate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full result as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    # A terminated run still stops its server: SystemExit unwinds the
    # ``finally`` blocks that close it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = _spec()
    if args.compare:
        from compare import compare

        return compare(args.compare[0], args.compare[1], spec)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result)
    line = contract_line(result, spec)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(result) + "\n")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
