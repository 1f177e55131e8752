//! Seconds-long smoke configuration: every workload, untraced and traced,
//! on the 16× smaller `--smoke` graphs. Checks the exit status, the result
//! line's shape, and that the reported metric names are exactly the ones
//! `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;

/// `"name": "..."` values between `from` and `to` in `text`.
fn names_between(text: &str, from: &str, to: &str) -> Vec<String> {
    let start = text.find(from).unwrap_or_else(|| panic!("{from} missing"));
    let end = text[start..].find(to).map_or(text.len(), |i| start + i);
    text[start..end]
        .split(r#""name": ""#)
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn declared() -> (Vec<String>, Vec<String>, Vec<String>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    (
        names_between(&text, r#""workloads""#, r#""end_to_end""#),
        names_between(&text, r#""end_to_end""#, r#""per_layer""#),
        names_between(&text, r#""per_layer""#, "]"),
    )
}

/// Metric names in a result line, in order: each is the last quoted
/// string before a `: {"value": `.
fn reported(line: &str) -> Vec<String> {
    let pieces: Vec<&str> = line.split(r#": {"value": "#).collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|p| p.rsplit('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_its_declared_metrics() {
    let (workloads, e2e, layers) = declared();
    assert!(workloads.len() >= 2 && !e2e.is_empty() && !layers.is_empty());
    for w in &workloads {
        for (trace, want) in [(0, &e2e), (1, &layers)] {
            let line = run(w, trace);
            assert!(
                line.starts_with(r#"{"correct": true, "attempted": "#),
                "{line}"
            );
            assert!(line.contains(r#""failed": 0, "#), "{w}: {line}");
            assert_eq!(&reported(&line), want, "{w} --trace {trace}");
        }
    }
}

#[test]
fn usage_errors_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seed", "1"][..],
        &["--workload", "kron-closed", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("spawn perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
