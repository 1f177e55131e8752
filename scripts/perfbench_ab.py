#!/usr/bin/env python3
"""A/B runs of the end-to-end benchmark: a parent revision against the working tree.

Implements the measuring protocol of a performance claim: the parent
revision and the working tree each build the benchmark declared in
``BENCHMARK.json`` from their own sources, then run it in alternating
pairs on the same workload and seed. For every end-to-end metric the
script prints each side's median and quartiles and the change's wins and
ties, and checks:

* the claim (``--claim METRIC``): the change wins at least nine tenths of
  the pairs (ties count for neither side), and the medians differ in the
  metric's better direction by more than the parent's interquartile
  range;
* every metric's bound: the change's median is no worse than the
  parent's by more than the ``bound`` fraction ``BENCHMARK.json`` fixes.
  Where the parent's own interquartile range is wider than the bound the
  metric is unresolved, unless every change run reads better than every
  parent run.

Every run must report ``"correct": true`` and zero failed queries. The
exit status is nonzero when any run is incorrect, a query failed, a
bound is exceeded or unresolved, or the claim is not met.

``--workload all`` runs every workload ``BENCHMARK.json`` declares, one
after another, on the same two builds. It prints one table per workload
and fails when any workload fails; a claim is then checked on every
workload, unless ``--claim-workload W`` names the one workload it is
judged on. Every workload is bound-checked either way.

``--json-out FILE`` writes every run and every verdict row to FILE:
``{"parent": REV, "runs": [...], "verdicts": [...]}``. A run record holds
its workload, pair, seed, side, exit code, ``correct``, ``attempted``,
``failed`` and end-to-end metrics; a verdict row holds one metric's
medians, quartiles, wins, ties and verdict on one workload.

The parent is exported with ``git archive REV | tar -x`` (no worktree)
into a scratch directory; each side builds into its own
``CARGO_TARGET_DIR`` there. Pass ``--workdir`` to keep the directory and
reuse its builds across invocations.

Usage:
    perfbench_ab.py --parent REV --workload W|all [--pairs 10] [--seed-base S]
                    [--claim METRIC [--claim-workload W]] [--workdir DIR]
                    [--json-out FILE]
    perfbench_ab.py --self-test
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    for field in ("command", "run_seconds", "end_to_end"):
        if field not in bench:
            sys.exit(f"{path}: missing {field!r}")
    return bench


def parse_result(stdout):
    """The benchmark's result: the JSON object on the last non-empty line."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or "metrics" not in doc:
        return None
    return {
        "correct": doc.get("correct") is True,
        "attempted": doc.get("attempted", 0),
        "failed": doc.get("failed", 0),
        "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
    }


def run_problem(side, seed, returncode, result):
    """Why a run cannot count, or None when it is a correct run."""
    if result is None:
        return f"{side} seed {seed}: no result line (exit {returncode})"
    if returncode != 0 or not result["correct"]:
        return f"{side} seed {seed}: incorrect run (exit {returncode})"
    if result["failed"]:
        return f"{side} seed {seed}: {result['failed']} failed queries"
    return None


def quartiles(values):
    """(q1, median, q3), inclusive linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(bench, pairs, claim=None):
    """Judges paired runs. ``pairs`` is a list of (parent, change) metric
    dicts taken on the same seed. Returns (rows, problems)."""
    rows, problems = [], []
    names = [m["name"] for m in bench["end_to_end"]]
    if claim is not None and claim not in names:
        problems.append(f"claimed metric {claim!r} is not an end-to-end metric "
                        f"of BENCHMARK.json ({', '.join(names)})")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        lower = spec.get("better", "lower") == "lower"
        par = [p[name] for p, _ in pairs]
        chg = [c[name] for _, c in pairs]
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
        wins = sum(1 for p, c in zip(par, chg) if better(c, p))
        ties = sum(1 for p, c in zip(par, chg) if c == p)
        iqr = pq3 - pq1
        worse = (cmed - pmed) if lower else (pmed - cmed)
        rel_worse = worse / pmed if pmed else (math.inf if worse > 0 else 0.0)
        separated = (max(chg) < min(par)) if lower else (min(chg) > max(par))
        bound = spec["bound"]
        if pmed and iqr / abs(pmed) > bound and not separated:
            verdict = "unresolved"
            problems.append(f"{name}: parent spread {iqr / abs(pmed):.1%} exceeds "
                            f"the bound {bound:.0%}")
        elif rel_worse > bound:
            verdict = "REGRESSED"
            problems.append(f"{name}: change median worse by {rel_worse:.1%} "
                            f"(bound {bound:.0%})")
        else:
            verdict = "within bound"
        if name == claim:
            need = math.ceil(0.9 * len(pairs))
            gap = -worse
            met = wins >= need and gap > iqr
            verdict += "; claim " + ("met" if met else "NOT met")
            if not met:
                problems.append(f"claim on {name} not met: {wins}/{len(pairs)} wins "
                                f"(need {need}), median gap {gap:.6g} vs parent "
                                f"IQR {iqr:.6g}")
        rows.append({
            "metric": name, "unit": spec.get("unit", ""),
            "parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
            "wins": wins, "ties": ties, "pairs": len(pairs), "verdict": verdict,
        })
    return rows, problems


def render(rows):
    out = [f"{'metric':<20} {'parent median [q1-q3]':>30} {'change median [q1-q3]':>30}"
           f" {'wins':>5} {'ties':>5}  verdict"]
    for r in rows:
        side = lambda t: f"{t[0]:.4g} [{t[1]:.4g}-{t[2]:.4g}] {r['unit']}"
        out.append(f"{r['metric']:<20} {side(r['parent']):>30} {side(r['change']):>30}"
                   f" {r['wins']:>2}/{r['pairs']:<2} {r['ties']:>5}  {r['verdict']}")
    return "\n".join(out)


def manifest_of(bench):
    cmd = bench["command"]
    return cmd[cmd.index("--manifest-path") + 1]


def export(rev, dest):
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def build(src, target, manifest):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "build", "--release", "--quiet", "--offline",
                    "--manifest-path", os.path.join(src, manifest)],
                   cwd=src, env=env, check=True)


def run_record(workload, pair, seed, side, returncode, result, names):
    """One run as written by ``--json-out``."""
    result = result or {}
    metrics = result.get("metrics", {})
    return {
        "workload": workload, "pair": pair, "seed": seed, "side": side,
        "exit": returncode, "correct": result.get("correct", False),
        "attempted": result.get("attempted"), "failed": result.get("failed"),
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }


def verdict_record(workload, row):
    """One verdict row as written by ``--json-out``."""
    side = lambda t: {"median": t[0], "q1": t[1], "q3": t[2]}
    return dict(row, workload=workload, parent=side(row["parent"]),
                change=side(row["change"]))


def write_report(path, report):
    """Writes the ``--json-out`` report."""
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


def run(bench, src, target, workload, seed):
    """One benchmark run with the command BENCHMARK.json declares."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=src, env=env, capture_output=True, text=True)
    return proc.returncode, parse_result(proc.stdout)


def self_test():
    """Exercises parsing and the verdicts on canned outputs."""
    bench = {
        "command": ["true"], "run_seconds": 20,
        "end_to_end": [
            {"name": "cpu_ms_per_query", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.25},
        ],
    }
    out = ("workload kron-paced seed 1 | ...\n  cpu_ms_per_query  1.5 ms (n=4000)\n"
           '{"correct": true, "attempted": 4000, "failed": 0, "metrics": '
           '{"cpu_ms_per_query": {"value": 1.5, "unit": "ms"}, '
           '"peak_rss_mb": {"value": 15.9, "unit": "MiB"}}}\n')
    r = parse_result(out)
    assert r == {"correct": True, "attempted": 4000, "failed": 0,
                 "metrics": {"cpu_ms_per_query": 1.5, "peak_rss_mb": 15.9}}, r
    assert run_problem("change", 1, 0, r) is None

    # Incorrect runs, failed queries and missing result lines never count.
    bad = dict(r, correct=False)
    assert "incorrect" in run_problem("change", 1, 1, bad)
    assert "failed queries" in run_problem("parent", 2, 0, dict(r, failed=3))
    assert parse_result("panicked\n") is None
    assert "no result line" in run_problem("parent", 3, 101, None)

    def pairs(par, chg, rss=(15.9, 15.9)):
        return [({"cpu_ms_per_query": p, "peak_rss_mb": rss[0]},
                 {"cpu_ms_per_query": c, "peak_rss_mb": rss[1]}) for p, c in zip(par, chg)]

    parent = [1.36, 1.45, 1.51, 1.73, 1.48, 1.55, 1.40, 1.60, 1.50, 1.52]
    # A clear gain: 10/10 wins, median gap far beyond the parent's IQR.
    rows, problems = compare(bench, pairs(parent, [p * 0.7 for p in parent]),
                             "cpu_ms_per_query")
    assert problems == [], problems
    assert rows[0]["wins"] == 10 and "claim met" in rows[0]["verdict"], rows[0]
    assert rows[1]["ties"] == 10 and rows[1]["verdict"] == "within bound", rows[1]

    # Two losses out of ten: the claim fails on the win count.
    chg = [p * 0.7 for p in parent]
    chg[0], chg[1] = 1.9, 1.9
    _, problems = compare(bench, pairs(parent, chg), "cpu_ms_per_query")
    assert any("not met" in p and "8/10" in p for p in problems), problems

    # Wins everywhere but a gap inside the parent's IQR: not met.
    _, problems = compare(bench, pairs(parent, [p - 0.01 for p in parent]),
                          "cpu_ms_per_query")
    assert any("not met" in p for p in problems), problems

    # Ties count for neither side.
    rows, _ = compare(bench, pairs(parent, parent), "cpu_ms_per_query")
    assert rows[0]["wins"] == 0 and rows[0]["ties"] == 10, rows[0]

    # A metric worse beyond its bound is a regression, without a claim too.
    rows, problems = compare(bench, pairs(parent, parent, rss=(15.9, 21.0)))
    assert rows[1]["verdict"] == "REGRESSED", rows[1]
    assert any("peak_rss_mb" in p for p in problems), problems

    # Parent spread wider than the bound: unresolved, unless separated.
    wild = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    rows, problems = compare(bench, pairs(wild, wild))
    assert rows[0]["verdict"] == "unresolved", rows[0]
    rows, problems = compare(bench, pairs(wild, [0.5] * 10))
    assert rows[0]["verdict"] == "within bound" and problems == [], (rows[0], problems)

    # A claim on a metric the benchmark does not declare is refused.
    _, problems = compare(bench, pairs(parent, parent), "qps")
    assert any("not an end-to-end metric" in p for p in problems), problems

    print(render(rows))

    # Every workload is judged: a regression on one of two workloads fails
    # the whole run, and only that workload is blamed.
    def canned(bench, src, target, workload, seed):
        rss = 21.0 if (workload == "b" and src == "change-src") else 15.9
        return 0, {"correct": True, "attempted": 100, "failed": 0,
                   "metrics": {"cpu_ms_per_query": 1.5, "peak_rss_mb": rss}}
    sides = {"parent": ("parent-src", "parent-target"),
             "change": ("change-src", "change-target")}
    problems, report = measure_all(bench, sides, ["a", "b"], 3, 1, None, "REV", canned)
    assert problems and all(p.startswith("b: peak_rss_mb") for p in problems), problems
    assert measure_all(bench, sides, ["a"], 3, 1, None, "REV", canned)[0] == []

    # --json-out: one record per run (2 workloads x 3 pairs x 2 sides) and
    # one verdict row per workload and metric, read back from the file.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "runs.json")
        write_report(path, report)
        with open(path) as f:
            back = json.load(f)
    assert back["parent"] == "REV", back
    runs = back["runs"]
    assert len(runs) == 12, runs
    assert sorted((r["workload"], r["pair"], r["side"]) for r in runs) == sorted(
        (w, p, s) for w in "ab" for p in (1, 2, 3) for s in ("parent", "change")), runs
    assert all(r["exit"] == 0 and r["correct"] and r["attempted"] == 100
               and r["failed"] == 0 and set(r["metrics"]) == {"cpu_ms_per_query",
                                                              "peak_rss_mb"}
               for r in runs), runs
    assert [r["seed"] for r in runs if r["workload"] == "a"] == [1, 1, 2, 2, 3, 3], runs
    verdicts = {(v["workload"], v["metric"]): v for v in back["verdicts"]}
    assert len(verdicts) == 4, back["verdicts"]
    assert verdicts["b", "peak_rss_mb"]["verdict"] == "REGRESSED", verdicts
    assert verdicts["a", "peak_rss_mb"]["change"]["median"] == 15.9, verdicts

    # An incorrect run fails its workload even when every metric is flat.
    def wrong(bench, src, target, workload, seed):
        bad = src == "change-src" and workload == "b"
        return int(bad), dict(canned(bench, src, target, "a", seed)[1], correct=not bad)
    problems, report = measure_all(bench, sides, ["a", "b"], 2, 1, None, "REV", wrong)
    assert problems and all(p.startswith("b: change seed") for p in problems), problems
    bad = [r for r in report["runs"] if not r["correct"]]
    assert [(r["workload"], r["side"], r["exit"]) for r in bad] == [("b", "change", 1)] * 2, bad

    # --claim-workload: a claim met on one of two workloads passes when it
    # is judged there only; a regression on the other still fails.
    def gain_on_a(rss_b):
        def runner(bench, src, target, workload, seed):
            cpu = 1.0 + 0.01 * seed
            if src == "change-src" and workload == "a":
                cpu *= 0.7
            rss = rss_b if (workload == "b" and src == "change-src") else 15.9
            return 0, {"correct": True, "attempted": 100, "failed": 0,
                       "metrics": {"cpu_ms_per_query": cpu, "peak_rss_mb": rss}}
        return runner
    claim = "cpu_ms_per_query"
    problems, report = measure_all(bench, sides, ["a", "b"], 10, 1, claim, "REV",
                                   gain_on_a(15.9), claim_workload="a")
    assert problems == [], problems
    verdicts = {(v["workload"], v["metric"]): v["verdict"] for v in report["verdicts"]}
    assert verdicts["a", claim] == "within bound; claim met", verdicts
    assert verdicts["b", claim] == "within bound", verdicts
    problems, _ = measure_all(bench, sides, ["a", "b"], 10, 1, claim, "REV",
                              gain_on_a(15.9))
    assert problems and all(p.startswith("b: claim on") for p in problems), problems
    problems, _ = measure_all(bench, sides, ["a", "b"], 10, 1, claim, "REV",
                              gain_on_a(21.0), claim_workload="a")
    assert problems and all(p.startswith("b: peak_rss_mb") for p in problems), problems
    print("self-test ok: 13 scenarios passed")


def measure(bench, sides, workload, pairs, seed_base, claim, runner=run):
    """Runs alternating parent/change pairs of one workload on the same
    seeds. Returns (metric pairs, problems, run records)."""
    names = [m["name"] for m in bench["end_to_end"]]
    got_pairs, problems, runs = [], [], []
    for i in range(pairs):
        seed = seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            code, result = runner(bench, *sides[side], workload, seed)
            problem = run_problem(side, seed, code, result)
            if problem:
                problems.append(problem)
            got[side] = result
            runs.append(run_record(workload, i + 1, seed, side, code, result, names))
            value = result["metrics"].get(claim) if result and claim else None
            print(f"{workload} pair {i + 1}/{pairs} seed {seed} {side}: "
                  f"{problem or 'ok'}{'' if value is None else f', {claim} {value:.6g}'}",
                  file=sys.stderr)
        if all(got[s] is not None for s in got):
            got_pairs.append((got["parent"]["metrics"], got["change"]["metrics"]))
    return got_pairs, problems, runs


def measure_all(bench, sides, workloads, pairs, seed_base, claim, parent, runner=run,
                claim_workload=None):
    """Measures and judges every workload in turn, printing one table per
    workload. The claim is judged on ``claim_workload`` only, or on every
    workload when it is None. Returns every workload's problems, each
    prefixed with its workload's name, and the ``--json-out`` report of
    every run and verdict row."""
    problems = []
    report = {"parent": parent, "runs": [], "verdicts": []}
    for workload in workloads:
        got_pairs, found, runs = measure(bench, sides, workload, pairs, seed_base, claim,
                                         runner)
        report["runs"] += runs
        print(f"workload {workload}, {len(got_pairs)} pairs, seeds {seed_base}.."
              f"{seed_base + pairs - 1}, {bench['run_seconds']} s runs, parent {parent}")
        if got_pairs:
            judged = claim if claim_workload in (None, workload) else None
            rows, verdict_problems = compare(bench, got_pairs, judged)
            print(render(rows))
            found += verdict_problems
            report["verdicts"] += [verdict_record(workload, r) for r in rows]
        for p in found:
            print(f"problem: {p}")
        problems += [f"{workload}: {p}" for p in found]
    return problems, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="git revision to compare against (e.g. HEAD~1)")
    ap.add_argument("--workload",
                    help="workload name from BENCHMARK.json, or 'all' for every one")
    ap.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default 10)")
    ap.add_argument("--seed-base", type=int, default=1,
                    help="pair i runs both sides with seed SEED_BASE + i (default 1)")
    ap.add_argument("--claim", help="end-to-end metric the change claims to improve")
    ap.add_argument("--claim-workload", metavar="W",
                    help="judge the claim on workload W only (with --workload all)")
    ap.add_argument("--workdir", help="keep exports and builds here and reuse them")
    ap.add_argument("--json-out", metavar="FILE",
                    help="write every run and verdict row to FILE as JSON")
    ap.add_argument("--self-test", action="store_true",
                    help="check parsing and verdicts on canned outputs and exit")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.parent or not args.workload:
        ap.error("--parent and --workload are required (or pass --self-test)")
    if args.pairs < 1:
        ap.error("--pairs must be positive")

    bench = load_benchmark(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench.get("workloads", [])]
    if args.workload == "all":
        if not names:
            ap.error("BENCHMARK.json declares no workloads")
        workloads = names
    elif names and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r} (BENCHMARK.json has {', '.join(names)})")
    else:
        workloads = [args.workload]
    if args.claim_workload is not None:
        if args.claim is None:
            ap.error("--claim-workload needs --claim")
        if args.claim_workload not in workloads:
            ap.error(f"--claim-workload {args.claim_workload!r} is not among the "
                     f"workloads run ({', '.join(workloads)})")
    manifest = manifest_of(bench)

    workdir = args.workdir or tempfile.mkdtemp(prefix="perfbench-ab-")
    try:
        parent_src = os.path.join(workdir, "parent")
        shutil.rmtree(parent_src, ignore_errors=True)
        export(args.parent, parent_src)
        sides = {
            "parent": (parent_src, os.path.join(workdir, "parent-target")),
            "change": (ROOT, os.path.join(workdir, "change-target")),
        }
        for side, (src, target) in sides.items():
            print(f"building {side} ...", file=sys.stderr)
            build(src, target, manifest)
        problems, report = measure_all(bench, sides, workloads, args.pairs,
                                       args.seed_base, args.claim, args.parent,
                                       claim_workload=args.claim_workload)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.json_out:
        write_report(args.json_out, report)
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
