#!/usr/bin/env python3
"""Bench-history regression tracker for the kernels benchmark.

Diffs a current ``kernels`` bench run against a committed baseline
(``BENCH_*.json``), printing a per-graph / per-algo / per-width delta
table. With ``--check`` it exits nonzero when any kernel regresses by
more than the threshold (default 10%).

Two robustness measures keep the gate meaningful on shared hardware:

* **Normalization.** When the two runs used different benchmark
  configurations (scale, workers, trials) — or when ``--normalize`` is
  passed — each row's ns/edge is divided by its own run's geometric
  mean before comparison. That cancels the run-wide machine-speed
  factor (containers and CI runners drift by tens of percent between
  runs) and compares each kernel's *relative* standing within its run:
  a kernel that slows down relative to its peers is flagged even when
  the whole run sped up or slowed down.

* **Joint median+min rule.** A row only counts as a regression when
  *both* its median and its minimum ns/edge exceed the threshold. A
  genuine regression shifts the entire trial distribution; transient
  scheduler noise usually inflates only some trials, moving the median
  but not the min (or vice versa).

The default 10% threshold suits a quiet machine doing a deliberate A/B
comparison. CI on shared runners should pass a threshold above its
measured run-to-run noise floor (see .github/workflows/ci.yml).

Rows are keyed on (graph, algo, width, simd), so the kernels
bench's scalar-forced comparison rows form their own series and never
join against native-level rows. Runs whose configs record *different*
SIMD dispatch levels are refused outright unless --allow-isa-mismatch
is passed (the comparison is then normalized): absolute ns/edge across
ISAs measures the vector kernels, not a code regression.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--check]
                     [--threshold PCT] [--normalize]
                     [--allow-isa-mismatch]
    compare_bench.py --self-test
"""

import argparse
import json
import math
import sys


def key(row):
    """Identity of a kernel row: what we join baseline and current on.

    ``simd`` defaults to "auto" for documents predating the dispatch-level
    axis, so old baselines keep joining against new runs.
    """
    return (row["graph"], row["algo"], row["width"], row.get("simd", "auto"))


def metric(row, field, path):
    """A row's timing metric, validated.

    The normalized comparison divides by these values, so a missing,
    non-numeric, zero or negative metric would crash mid-table with a
    bare ZeroDivisionError/KeyError. Exit with a message naming the
    offending row instead.
    """
    v = row.get(field)
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or math.isnan(v) or v <= 0:
        sys.exit(f"error: {path}: row {row.get('graph')}/{row.get('algo')}"
                 f"/w{row.get('width')}: {field} is {v!r}; "
                 "need a positive number (truncated or corrupt bench run?)")
    return float(v)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    validate(doc, path)
    return doc


def validate(doc, path):
    if doc.get("bench") != "kernels" or "kernels" not in doc:
        sys.exit(f"error: {path} is not a kernels bench document")
    if not doc["kernels"]:
        sys.exit(f"error: {path} has no kernel rows (empty bench run?)")
    # Validate every metric up front: a corrupt row should be a named
    # error before any table output, not a traceback halfway through.
    for r in doc["kernels"]:
        for field in ("median_ns_per_edge", "min_ns_per_edge"):
            metric(r, field, path)


def configs_match(a, b):
    """Same benchmark shape → absolute ns/edge is directly comparable."""
    ca, cb = a.get("config", {}), b.get("config", {})
    return all(
        ca.get(k) == cb.get(k)
        for k in ("scale", "workers", "trials", "simd")
    )


def check_isa(base, cur, args, base_name, cur_name):
    """Refuses a cross-ISA comparison unless explicitly allowed.

    A run at avx512 vs a run at scalar is an apples-to-oranges diff:
    every delta would mostly measure the vector kernels, not a code
    regression. Both configs must record the same dispatch level, or
    the caller must pass --allow-isa-mismatch (the comparison is then
    normalized, so only relative standing within each run is judged).
    Documents predating the ``simd`` config field are left alone.
    """
    sa = base.get("config", {}).get("simd")
    sb = cur.get("config", {}).get("simd")
    if sa is None or sb is None or sa == sb:
        return False
    if not getattr(args, "allow_isa_mismatch", False):
        sys.exit(f"error: SIMD dispatch levels differ ({base_name} ran at "
                 f"{sa!r}, {cur_name} at {sb!r}); absolute ns/edge is not "
                 "comparable across ISAs — rerun at a matching --simd "
                 "level, or pass --allow-isa-mismatch for a normalized "
                 "relative comparison")
    return True


def geomean(values):
    vals = [v for v in values if v > 0]
    if not vals:
        return 1.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def compare_runs(base, cur, args, base_name="baseline", cur_name="current"):
    """Prints the delta table; returns the list of regression strings."""
    cross_isa = check_isa(base, cur, args, base_name, cur_name)
    if cross_isa:
        # Allowed cross-ISA diff: the per-row simd labels differ by
        # construction, so join on (graph, algo, width) alone and show
        # "*" in the simd column.
        def keyfn(r):
            return key(r)[:3] + ("*",)
    else:
        keyfn = key
    base_rows = {keyfn(r): r for r in base["kernels"]}
    cur_rows = {keyfn(r): r for r in cur["kernels"]}

    normalize = args.normalize or not configs_match(base, cur)
    print(f"comparing {cur_name} against {base_name}")
    if normalize:
        base_med = geomean(r["median_ns_per_edge"] for r in base["kernels"])
        cur_med = geomean(r["median_ns_per_edge"] for r in cur["kernels"])
        base_min = geomean(r["min_ns_per_edge"] for r in base["kernels"])
        cur_min = geomean(r["min_ns_per_edge"] for r in cur["kernels"])
        if not configs_match(base, cur):
            bc, cc = base.get("config", {}), cur.get("config", {})
            print(f"note: configs differ (baseline {bc} vs current {cc})")
        print(f"normalized comparison: run-wide geomean ns/edge factor "
              f"{cur_med / base_med - 1:+.1%} (deltas below are relative "
              "standing within each run, not absolute time)")
    else:
        base_med = cur_med = base_min = cur_min = 1.0
        print("matching configs: direct ns/edge comparison")

    header = (f"{'graph':<15} {'algo':<9} {'width':>5} {'simd':<7} "
              f"{'base ns/e':>10} {'cur ns/e':>10} {'median':>8} {'min':>8}"
              "  verdict")
    print()
    print(header)
    print("-" * len(header))

    regressions = []
    improvements = 0
    for k in sorted(base_rows):
        graph, algo, width, simd = k
        b = base_rows[k]
        c = cur_rows.get(k)
        if c is None:
            print(f"{graph:<15} {algo:<9} {width:>5} {simd:<7} "
                  f"{b['median_ns_per_edge']:>10.3f} {'—':>10} {'—':>8} "
                  f"{'—':>8}  MISSING in current run")
            regressions.append(f"{graph}/{algo}/w{width}/{simd}: "
                               "missing from current run")
            continue
        d_med = ((metric(c, "median_ns_per_edge", cur_name) / cur_med)
                 / (metric(b, "median_ns_per_edge", base_name) / base_med)
                 - 1.0) * 100.0
        d_min = ((metric(c, "min_ns_per_edge", cur_name) / cur_min)
                 / (metric(b, "min_ns_per_edge", base_name) / base_min)
                 - 1.0) * 100.0
        # Joint rule: a real regression moves the whole distribution.
        joint = min(d_med, d_min)
        if joint > args.threshold:
            verdict = f"REGRESSION (> {args.threshold:.0f}%)"
            regressions.append(f"{graph}/{algo}/w{width}/{simd}: "
                               f"median {d_med:+.1f}%, min {d_min:+.1f}%")
        elif max(d_med, d_min) < -args.threshold:
            verdict = "improved"
            improvements += 1
        else:
            verdict = "ok"
        print(f"{graph:<15} {algo:<9} {width:>5} {simd:<7} "
              f"{b['median_ns_per_edge']:>10.3f} "
              f"{c['median_ns_per_edge']:>10.3f} {d_med:>+7.1f}% "
              f"{d_min:>+7.1f}%  {verdict}")

    new = sorted(set(cur_rows) - set(base_rows))
    for k in new:
        graph, algo, width, simd = k
        c = cur_rows[k]
        print(f"{graph:<15} {algo:<9} {width:>5} {simd:<7} "
              f"{'—':>10} "
              f"{c['median_ns_per_edge']:>10.3f} {'—':>8} {'—':>8}  "
              "new (no baseline)")

    # Atomics are machine-sensitive microbenches: report, never gate.
    base_atomics = {r["kind"]: r["ns_per_op"] for r in base.get("atomics", [])}
    for r in cur.get("atomics", []):
        b = base_atomics.get(r["kind"])
        if b:
            print(f"{'atomics':<15} {r['kind']:<9} {'':>5} {'':<7} "
                  f"{b:>10.3f} {r['ns_per_op']:>10.3f} "
                  f"{(r['ns_per_op'] / b - 1) * 100:>+7.1f}% {'':>8}  "
                  "informational")

    print()
    print(f"{len(base_rows)} baseline kernels, {len(regressions)} "
          f"regression(s), {improvements} improvement(s), {len(new)} new")
    for r in regressions:
        print(f"  regression: {r}")
    return regressions


def make_doc(medians, factor=1.0, config=None, simd="auto"):
    """Synthetic kernels document for the self-test. ``medians`` maps a
    row key tuple (with or without a trailing simd component) to its
    median ns/edge; min is 90% of median; ``factor`` scales everything
    (simulated machine-speed drift); ``simd`` labels rows lacking one."""
    rows = []
    for k, v in medians.items():
        g, a, w = k[:3]
        rows.append({"graph": g, "algo": a, "width": w,
                     "simd": k[3] if len(k) > 3 else simd,
                     "median_ns_per_edge": v * factor,
                     "min_ns_per_edge": v * factor * 0.9})
    return {
        "bench": "kernels",
        "config": config or {"scale": 8, "workers": 2, "trials": 3,
                             "simd": simd},
        "kernels": rows,
        "atomics": [],
    }


def expect_exit(fn, needle):
    """Runs ``fn``, asserting it exits cleanly with ``needle`` in the
    message — never a bare ZeroDivisionError/KeyError traceback."""
    try:
        fn()
    except SystemExit as e:
        msg = str(e.code)
        assert needle in msg, f"exit message {msg!r} lacks {needle!r}"
        return
    raise AssertionError(f"expected a clean exit mentioning {needle!r}")


def self_test():
    """Exercises the comparison and its guard rails on synthetic docs."""
    args = argparse.Namespace(threshold=10.0, normalize=False, check=False,
                              allow_isa_mismatch=False)
    rows = {("kron", "ms", 64): 2.0, ("kron", "sms", 1): 4.0}

    # Identical runs: clean table, no regressions.
    assert compare_runs(make_doc(rows), make_doc(rows), args) == []

    # A genuine regression (median and min both move) is flagged.
    slow = dict(rows)
    slow[("kron", "ms", 64)] = 3.0
    bad = compare_runs(make_doc(rows), make_doc(slow), args)
    assert len(bad) == 1 and "kron/ms/w64" in bad[0], bad

    # Uniform 2x machine drift under --normalize: no false regression.
    norm = argparse.Namespace(threshold=10.0, normalize=True, check=False,
                              allow_isa_mismatch=False)
    assert compare_runs(make_doc(rows), make_doc(rows, factor=2.0),
                        norm) == []

    # Runs at different dispatch levels are refused by default: the
    # absolute delta would measure the vector kernels, not a regression.
    expect_exit(
        lambda: compare_runs(make_doc(rows, simd="avx2"),
                             make_doc(rows, factor=0.5, simd="scalar"),
                             args, "avx.json", "scalar.json"),
        "--allow-isa-mismatch")

    # --allow-isa-mismatch permits the comparison (normalized, since the
    # configs differ on simd).
    allow = argparse.Namespace(threshold=10.0, normalize=False, check=False,
                               allow_isa_mismatch=True)
    assert compare_runs(make_doc(rows, simd="avx2"),
                        make_doc(rows, factor=0.5, simd="scalar"),
                        allow) == []

    # Rows carrying distinct simd labels within one run are distinct
    # series: a scalar-forced comparison row never joins against (or
    # shadows) the native-level row with the same graph/algo/width.
    both = dict(rows)
    both[("kron", "ms", 64, "scalar")] = 6.0
    assert compare_runs(make_doc(rows, simd="avx2"),
                        make_doc(both, simd="avx2"), args) == []

    # A zero baseline median must exit with a named row, not divide by
    # zero mid-table.
    zeroed = make_doc(rows)
    zeroed["kernels"][0]["median_ns_per_edge"] = 0.0
    expect_exit(lambda: validate(zeroed, "zeroed.json"), "median_ns_per_edge")
    expect_exit(
        lambda: compare_runs(zeroed, make_doc(rows), norm,
                             base_name="zeroed.json"),
        "median_ns_per_edge")

    # A missing min metric is a named error, not a KeyError.
    missing = make_doc(rows)
    del missing["kernels"][1]["min_ns_per_edge"]
    expect_exit(lambda: validate(missing, "missing.json"), "min_ns_per_edge")

    # An empty document is rejected up front.
    expect_exit(lambda: validate({"bench": "kernels", "kernels": []},
                                 "empty.json"), "no kernel rows")
    expect_exit(lambda: validate({"bench": "other"}, "other.json"),
                "not a kernels bench document")

    print("self-test ok: 10 scenarios passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?",
                    help="committed baseline BENCH_*.json")
    ap.add_argument("current", nargs="?",
                    help="freshly produced kernels bench JSON")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on any regression beyond the threshold")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression tolerance in percent (default 10)")
    ap.add_argument("--normalize", action="store_true",
                    help="normalize by each run's geomean ns/edge even when "
                         "configs match (cancels machine-speed drift)")
    ap.add_argument("--allow-isa-mismatch", action="store_true",
                    help="permit comparing runs recorded at different SIMD "
                         "dispatch levels (comparison is normalized; deltas "
                         "are relative standing, not absolute time)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in scenario checks and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.baseline or not args.current:
        ap.error("baseline and current are required (or pass --self-test)")

    base = load(args.baseline)
    cur = load(args.current)
    regressions = compare_runs(base, cur, args,
                               base_name=args.baseline,
                               cur_name=args.current)
    if regressions:
        if args.check:
            sys.exit(1)
    elif args.check:
        print("check ok: no kernel regressed beyond the threshold")


if __name__ == "__main__":
    main()
