#!/usr/bin/env python3
"""Validate the pbfs telemetry export formats.

Usage:
    validate_telemetry.py chrome <trace.json>
    validate_telemetry.py prometheus <metrics.txt> [--failpoints]
        [--require-nonzero FAMILY]...

``chrome`` checks that the file is a Chrome-trace JSON object whose
``traceEvents`` hold well-formed duration ("X"), instant ("i") and
metadata ("M") records covering the span kinds the tracer is expected to
emit during a query replay.  ``prometheus`` checks text exposition
format 0.0.4: HELP/TYPE headers, sample lines that match their family,
histogram bucket/sum/count shape, and the metric families every layer
registers — including the per-shard engine counters
(``pbfs_engine_shard_*_total``), whose every sample must carry a
``shard="..."`` label.  ``--require-nonzero`` (repeatable) additionally demands that
at least one sample of the named family has a value > 0 — used by the
fault-injection smoke to prove rejections actually happened.
``--failpoints`` declares that the export came from a build with live
failpoint sites: the ``pbfs_fault_triggered_total`` /
``pbfs_fault_skipped_total`` families become required, and every sample
must carry a ``site="..."`` label.  Exit status 0 on success; prints the
failure and exits 1 otherwise.
"""

import json
import re
import sys

REQUIRED_CHROME_EVENTS = {
    "task": "X",
    "iteration": "X",
    # batch_submit is a span (submit → coalesce), emitted by the
    # dispatcher once the covering batch's query-set id is known.
    "batch_submit": "X",
    "batch_coalesce": "X",
    "batch_flush": "X",
    # The step that turns a multi-source batch's traversal into per-query
    # rows, nested inside its batch_flush.
    "batch_materialize": "X",
    "batch_complete": "i",
}

REQUIRED_PROM_FAMILIES = [
    "pbfs_sched_tasks_total",
    "pbfs_sched_steals_total",
    "pbfs_bfs_iterations_total",
    "pbfs_bfs_traversals_total",
    "pbfs_bfs_discovered_states_total",
    "pbfs_engine_queries_total",
    "pbfs_engine_batches_total",
    "pbfs_engine_queue_depth",
    "pbfs_engine_in_flight_queries",
    "pbfs_engine_batch_width",
    "pbfs_engine_query_latency_ns",
    "pbfs_engine_rejected_total",
    "pbfs_engine_expired_total",
    "pbfs_engine_failed_queries_total",
    "pbfs_sched_worker_panics_total",
    "pbfs_telemetry_dropped_events_total",
    "pbfs_trace_dropped_events_total",
    "pbfs_build_info",
    "pbfs_graph_vertices",
    "pbfs_graph_edges",
    # Versioned storage: the engine always rides a GraphStore (a static
    # graph is just a store that never leaves its first epoch), so these
    # register in every engine-driven export. The live-epochs gauge is the
    # reclamation leak detector — chaos asserts it returns to baseline.
    "pbfs_storage_mutations_total",
    "pbfs_storage_compactions_total",
    "pbfs_storage_epochs_total",
    "pbfs_storage_epochs_live",
]

# Per-shard engine counters. Shard 0's family is registered by every
# engine (unsharded engines are one-shard engines), so these are always
# required, and every sample must carry its shard label — an unlabeled
# sample would silently aggregate the shards a scrape is supposed to
# tell apart.
SHARD_PROM_FAMILIES = [
    "pbfs_engine_shard_queries_total",
    "pbfs_engine_shard_batches_total",
    "pbfs_engine_shard_failed_total",
]

# Additionally required when the export came from a failpoints build
# (--failpoints); every sample must be labeled with its site.
FAILPOINT_PROM_FAMILIES = [
    "pbfs_fault_triggered_total",
    "pbfs_fault_skipped_total",
]


def fail(msg):
    print(f"validate_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_chrome(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    seen = {}
    for e in events:
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"event missing {key!r}: {e}")
        ph = e["ph"]
        if ph == "X":
            if not isinstance(e.get("ts"), (int, float)) or e["ts"] < 0:
                fail(f"duration event with bad ts: {e}")
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                fail(f"duration event with bad dur: {e}")
        elif ph == "i":
            if not isinstance(e.get("ts"), (int, float)) or e["ts"] < 0:
                fail(f"instant event with bad ts: {e}")
            if e.get("s") not in ("t", "p", "g"):
                fail(f"instant event with bad scope: {e}")
        elif ph == "M":
            if "args" not in e:
                fail(f"metadata event without args: {e}")
        else:
            fail(f"unknown phase {ph!r}: {e}")
        seen.setdefault(e["name"], e["ph"])

    for name, ph in REQUIRED_CHROME_EVENTS.items():
        if name not in seen:
            fail(f"no {name!r} event in trace")
        if seen[name] != ph:
            fail(f"{name!r} has phase {seen[name]!r}, expected {ph!r}")
    for meta in ("process_name", "thread_name"):
        if seen.get(meta) != "M":
            fail(f"missing {meta!r} metadata record")

    n = len(events)
    print(f"validate_telemetry: chrome trace OK ({n} events, {len(seen)} kinds)")


# Histogram bucket lines may carry an OpenMetrics-style exemplar suffix:
#   ..._bucket{le="1024"} 3 # {query="17",trace_ref="2"} 1
SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)(?P<labels>\{[^}]*\})? (?P<value>\S+)"
    r"(?P<exemplar> # \{[^}]*\} \S+)?$"
)


def validate_prometheus(path, require_nonzero=(), failpoints=False):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        fail("empty metrics file")

    types = {}  # family -> TYPE
    helped = set()
    samples = {}  # family -> list of (labels, sample name)
    totals = {}  # family -> sum of sample values
    for line in lines:
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"bad TYPE line: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"malformed sample line: {line!r}")
        try:
            value = float(m.group("value"))
        except ValueError:
            fail(f"non-numeric sample value: {line!r}")
        name = m.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        family = family if family in types else name
        if family not in types:
            fail(f"sample {name!r} has no TYPE header")
        samples.setdefault(family, []).append((m.group("labels") or "", name))
        totals[family] = totals.get(family, 0.0) + value

    for family, typ in types.items():
        if family not in helped:
            fail(f"family {family!r} has TYPE but no HELP")
        if family not in samples:
            fail(f"family {family!r} has headers but no samples")
        if typ == "histogram":
            names = {n for _, n in samples[family]}
            for suffix in ("_bucket", "_sum", "_count"):
                if family + suffix not in names:
                    fail(f"histogram {family!r} missing {family + suffix!r}")
            if not any('le="+Inf"' in lbl for lbl, n in samples[family]
                       if n == family + "_bucket"):
                fail(f"histogram {family!r} has no +Inf bucket")

    for family in REQUIRED_PROM_FAMILIES:
        if family not in types:
            fail(f"required family {family!r} absent")
    # The build-info sample must say which SIMD dispatch level produced
    # the run: bench/telemetry numbers are not comparable across ISAs, so
    # an export that lost the label would silently mix them.
    for labels, _ in samples.get("pbfs_build_info", []):
        if 'simd="' not in labels:
            fail(f"pbfs_build_info sample without a simd label: {labels!r}")
    for family in SHARD_PROM_FAMILIES:
        if family not in types:
            fail(f"required family {family!r} absent")
        if types[family] != "counter":
            fail(f"{family!r} must be a counter, is {types[family]!r}")
        for labels, _ in samples[family]:
            if 'shard="' not in labels:
                fail(f"{family!r} sample without a shard label: {labels!r}")
    if failpoints:
        for family in FAILPOINT_PROM_FAMILIES:
            if family not in types:
                fail(f"--failpoints requires family {family!r}")
            if types[family] != "counter":
                fail(f"{family!r} must be a counter, is {types[family]!r}")
            for labels, _ in samples[family]:
                if 'site="' not in labels:
                    fail(f"{family!r} sample without a site label: {labels!r}")
    for family in require_nonzero:
        if family not in types:
            fail(f"--require-nonzero family {family!r} absent")
        if totals.get(family, 0.0) <= 0:
            fail(f"family {family!r} required nonzero but all samples are 0")
    directions = {lbl for lbl, _ in samples.get("pbfs_bfs_iterations_total", [])}
    for want in ('direction="top_down"', 'direction="bottom_up"'):
        if not any(want in lbl for lbl in directions):
            fail(f"pbfs_bfs_iterations_total missing {want} sample")

    print(f"validate_telemetry: prometheus text OK ({len(types)} families)")


def main():
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] not in ("chrome", "prometheus"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    mode, path, rest = argv[0], argv[1], argv[2:]
    require_nonzero = []
    failpoints = False
    while rest:
        if rest[0] == "--failpoints":
            failpoints = True
            rest = rest[1:]
        elif rest[0] == "--require-nonzero" and len(rest) >= 2:
            require_nonzero.append(rest[1])
            rest = rest[2:]
        else:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
    if mode == "chrome":
        if require_nonzero or failpoints:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        validate_chrome(path)
    else:
        validate_prometheus(path, require_nonzero, failpoints)


if __name__ == "__main__":
    main()
