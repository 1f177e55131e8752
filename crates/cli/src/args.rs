//! Minimal flag parsing (no external dependency).

use std::collections::HashMap;

/// Usage text shared by `--help` and error paths.
pub const USAGE: &str = "\
usage:
  every command accepts --simd auto|scalar|avx2|avx512 to pin the
  bitset-kernel dispatch level (default auto: the strongest level the CPU
  supports; requests beyond hardware support are clamped with a warning;
  the PBFS_SIMD environment variable sets the same default)
  pbfs generate <kind> [--scale N | --vertices N] [--degree N] [--seed N] [--text] -o FILE
        kinds: kronecker kg0 social web collab hub uniform watts-strogatz
  pbfs stats FILE [--text]
  pbfs bfs FILE --source N [--algo sms-bit|sms-byte|ms|beamer|textbook]
        [--workers N] [--validate] [--text]
  pbfs centrality FILE --measure closeness|harmonic|betweenness [--top K]
        [--workers N] [--text]
  pbfs relabel FILE --scheme striped|ordered|random [--workers N] [--seed N] [--text] -o FILE
  pbfs queries [FILE] [--scale N] [--queries N] [--threads N] [--workers N]
        [--shards N] [--max-batch N] [--max-latency-us N] [--rate QPS]
        [--seed N] [--text] [--max-queue N] [--query-timeout MS]
        [--drain-timeout MS] [--trace-out FILE] [--mutations FILE]
        replays a query trace through the batched engine; without FILE a
        Kronecker graph of --scale is generated; --threads sets the
        engine's workers (--workers is read when --threads is absent,
        here and in metrics and top); --trace-out records a
        per-worker timeline and writes Chrome trace-event JSON;
        --max-queue bounds the submit queue (full = backpressure),
        --query-timeout expires queries stuck in the queue, and
        --drain-timeout bounds the shutdown drain (0 = unbounded);
        --shards runs one dispatcher + queue + pool stack per simulated
        socket over a partitioned CSR (results are bit-identical to
        --shards 1); --mutations replays a streaming-mutation script
        interleaved with the query traffic: one op per line — `add U V`,
        `del U V`, `commit` (publish the batch as a new epoch), `compact`
        (fold the overlay into a fresh CSR) — with `#` comments; batches
        are spread evenly across the replay and every query is answered
        from exactly one published epoch (snapshot isolation)
  pbfs metrics [FILE] [--scale N] [--queries N] [--threads N] [--workers N]
        [--shards N] [--seed N] [--max-queue N] [--json] [--text]
        runs a small replay and prints the telemetry registry as
        Prometheus text exposition (default) or JSON (--json); a tiny
        --max-queue forces Overloaded rejections into the export
  pbfs profile [FILE] [--scale N] [--seed N] [--source N] [--algo ms|sms-bit|sms-byte]
        [--batch N] [--workers N] [-o FILE] [--folded-out FILE] [--text]
        runs one instrumented traversal and prints a phase-attributed
        profile (per-iteration expand/settle/bottom-up wall time, edges
        relaxed, summary-scan activity, modeled bytes touched); without
        FILE a Kronecker graph of --scale is generated; --algo ms runs a
        multi-source batch of --batch sources (default 64), the sms
        variants run single-source from --source; -o writes the profile
        as JSON and --folded-out writes flamegraph-compatible folded
        stacks
  pbfs top [FILE] [--scale N] [--queries N] [--threads N] [--workers N]
        [--seed N] [--interval-ms N] [--ticks N] [--text]
        drives a background query replay through the batched engine and
        prints a live dashboard line per tick (query/batch rates, queue
        depth, in-flight count, p50/p99 latency, trace-ring drops) read
        from the telemetry registry; exits after --ticks ticks
  pbfs chaos [--schedules N] [--seed N] [--scale N] [--queries N]
        [--workers N] [--shards N] [--schedule-timeout SECS]
        [--metrics-out FILE] [--mutate]
        runs seeded randomized failpoint schedules against the batched
        query engine with a textbook-BFS oracle and checks the engine's
        failure-model invariants (exactly-once resolution, oracle-exact
        results, pool recovery, hang-free shutdown); requires a build
        with --features failpoints to actually inject faults, and exits
        nonzero on any violation; --metrics-out dumps the telemetry
        registry (including pbfs_fault_triggered_total) as Prometheus
        text; --mutate runs the streaming-mutation soak instead: a
        mutator thread applies edge batches and compactions (with
        storage.* faults armed) while clients query, and a per-epoch
        oracle asserts every result matches exactly one published epoch
        live during its batch — never a torn mix — and that epochs are
        reclaimed without leaks once snapshots drop";

/// Flags that take no value: their presence is the setting.
pub const BOOL_FLAGS: &[&str] = &["text", "validate", "help", "json", "mutate"];

/// Parsed command line: positionals plus `--flag value` / `--flag` pairs.
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Splits `argv` into positionals and flags. Boolean flags (`--text`,
    /// `--validate`) store an empty value.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&name) {
                    flags.insert(name.to_string(), String::new());
                } else {
                    i += 1;
                    let value = argv
                        .get(i)
                        .ok_or_else(|| format!("missing value for --{name}"))?;
                    flags.insert(name.to_string(), value.clone());
                }
            } else if a == "-o" {
                i += 1;
                let value = argv.get(i).ok_or("missing value for -o")?;
                flags.insert("output".to_string(), value.clone());
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Ok(Self { positional, flags })
    }

    /// Fails, naming every offender, when a flag is neither global
    /// (`--simd`, `--help`) nor one of `known`, the space-separated flags
    /// `command` reads.
    pub fn reject_unknown_flags(&self, command: &str, known: &str) -> Result<(), String> {
        const GLOBAL_FLAGS: &[&str] = &["simd", "help"];
        let mut unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|f| {
                !GLOBAL_FLAGS.contains(&f.as_str()) && !known.split_whitespace().any(|k| k == *f)
            })
            .map(|f| match f.as_str() {
                "output" => "-o".to_string(),
                _ => format!("--{f}"),
            })
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let s = if unknown.len() == 1 { "" } else { "s" };
        Err(format!(
            "unknown flag{s} for `pbfs {command}`: {}",
            unknown.join(", ")
        ))
    }

    /// A boolean flag's presence.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// A numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = Args::parse(&argv("bfs g.bin --source 5 --validate -o out.bin")).unwrap();
        assert_eq!(a.positional, vec!["bfs", "g.bin"]);
        assert_eq!(a.get("source"), Some("5"));
        assert!(a.has("validate"));
        assert_eq!(a.get("output"), Some("out.bin"));
        assert_eq!(a.num::<u32>("source", 0).unwrap(), 5);
        assert_eq!(a.num::<u32>("workers", 7).unwrap(), 7);
    }

    #[test]
    fn missing_value_errors() {
        assert!(Args::parse(&argv("generate --scale")).is_err());
        assert!(Args::parse(&argv("generate -o")).is_err());
    }

    #[test]
    fn invalid_number_errors() {
        let a = Args::parse(&argv("x --scale banana")).unwrap();
        assert!(a.num::<u32>("scale", 1).is_err());
    }

    #[test]
    fn unknown_flags_are_named_with_the_command() {
        let a = Args::parse(&argv("queries --treads 2 --seed 1 --simd auto -o x")).unwrap();
        assert!(a
            .reject_unknown_flags("queries", "treads seed output")
            .is_ok());
        let err = a.reject_unknown_flags("queries", "seed").unwrap_err();
        assert_eq!(err, "unknown flags for `pbfs queries`: --treads, -o");
    }

    #[test]
    fn require_reports_flag_name() {
        let a = Args::parse(&argv("x")).unwrap();
        assert!(a.require("measure").unwrap_err().contains("--measure"));
    }
}
