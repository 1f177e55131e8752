//! Result oracle: sampled query results against `pbfs_core::textbook::bfs`.
//!
//! Results are sampled deterministically by query sequence number and kept
//! only as a 64-bit digest, so checking adds neither memory nor much client
//! CPU to the measured window. Checking runs after the window.
//!
//! On a mutating store a query may have been served by any epoch published
//! between its submission and its result (the engine pins one epoch per
//! batch). The epochs are rebuilt from the single writer's own mutation log
//! and a result is accepted iff it equals the textbook BFS of *some* epoch
//! in its `[lo, hi]` window — the torn-graph rule of the chaos soak. A
//! result that mixes two epochs matches none of them.

use std::collections::HashMap;

use pbfs_core::storage::EdgeMutation;
use pbfs_core::textbook;
use pbfs_graph::{CsrGraph, VertexId};

/// 64-bit FNV-1a digest of a distance array.
pub fn digest(distances: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &d in distances {
        h ^= u64::from(d);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ distances.len() as u64
}

/// One sampled result awaiting its check.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Client sequence number of the query.
    pub seq: u64,
    /// BFS source.
    pub source: VertexId,
    /// Epoch published when the query was submitted.
    pub lo: u64,
    /// Epoch published when its result arrived.
    pub hi: u64,
    /// The epoch the client expects served it (searched first; 0 = none).
    pub hint: u64,
    /// [`digest`] of the returned distances.
    pub digest: u64,
}

/// Outcome of checking a set of samples.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Samples checked.
    pub verified: u64,
    /// One line per sample that matched no admissible graph.
    pub mismatches: Vec<String>,
}

/// Checks samples served by a graph that never changed.
pub fn check_static(g: &CsrGraph, samples: &[Sample]) -> Verdict {
    let mut cache: HashMap<VertexId, u64> = HashMap::new();
    let mut verdict = Verdict::default();
    for s in samples {
        let want = *cache
            .entry(s.source)
            .or_insert_with(|| digest(&textbook::distances(g, s.source)));
        verdict.verified += 1;
        if want != s.digest {
            verdict.mismatches.push(format!(
                "query {} from source {}: wrong distances",
                s.seq, s.source
            ));
        }
    }
    verdict
}

/// Every epoch the single writer published, in order: `first` is the epoch
/// serving before the first write; each entry is the epoch a write
/// published and the mutations it applied (empty for a compaction, which
/// republishes the same edge set).
#[derive(Clone, Debug, Default)]
pub struct EpochLog {
    /// Epoch serving before the first logged publish.
    pub first: u64,
    /// `(published epoch, mutations applied)` in publish order.
    pub entries: Vec<(u64, Vec<EdgeMutation>)>,
}

/// Epochs after the hint that the first pass of [`check_windows`] tries.
const HINT_BAND: u64 = 8;

/// Checks samples against the epochs rebuilt from `base` and `log`.
///
/// A first pass tries only the epochs just after each sample's hint (the
/// client's guess at the epoch its batch pinned; writes racing the pin
/// push it a few epochs later); a second pass tries every epoch of the
/// window for the samples the hint did not explain. The hint only orders
/// the search: acceptance is the window rule either way.
pub fn check_windows(base: &CsrGraph, log: &EpochLog, samples: &[Sample]) -> Verdict {
    let in_window = |s: &Sample, e: u64| s.lo <= e && e <= s.hi;
    let near_hint = |s: &Sample, e: u64| (s.hint..=s.hint + HINT_BAND).contains(&e);
    let rest = sweep(base, log, samples, |s, e| {
        near_hint(s, e) && in_window(s, e)
    });
    let torn_ones = sweep(base, log, &rest, in_window);
    Verdict {
        verified: samples.len() as u64,
        mismatches: torn_ones.iter().map(torn).collect(),
    }
}

/// Replays `log` over `base` once and, at every epoch, checks the samples
/// not yet matched that `admit` allows there. Returns those never matched.
fn sweep(
    base: &CsrGraph,
    log: &EpochLog,
    samples: &[Sample],
    admit: impl Fn(&Sample, u64) -> bool,
) -> Vec<Sample> {
    let mut left = samples.to_vec();
    let mut adj: Vec<Vec<VertexId>> = (0..base.num_vertices() as VertexId)
        .map(|v| base.neighbors(v).to_vec())
        .collect();
    let epochs = std::iter::once((log.first, &[][..]))
        .chain(log.entries.iter().map(|(e, batch)| (*e, batch.as_slice())));
    for (epoch, batch) in epochs {
        for &m in batch {
            apply(&mut adj, m);
        }
        if !left.iter().any(|s| admit(s, epoch)) {
            continue;
        }
        let g = to_csr(&adj);
        let mut cache: HashMap<VertexId, u64> = HashMap::new();
        left.retain(|s| {
            !admit(s, epoch)
                || *cache
                    .entry(s.source)
                    .or_insert_with(|| digest(&textbook::distances(&g, s.source)))
                    != s.digest
        });
    }
    left
}

fn torn(s: &Sample) -> String {
    format!(
        "query {} from source {}: matches no epoch in [{}, {}]",
        s.seq, s.source, s.lo, s.hi
    )
}

fn apply(adj: &mut [Vec<VertexId>], m: EdgeMutation) {
    let (u, v, insert) = match m {
        EdgeMutation::Insert(u, v) => (u, v, true),
        EdgeMutation::Delete(u, v) => (u, v, false),
    };
    for (a, b) in [(u, v), (v, u)] {
        let list = &mut adj[a as usize];
        match (list.binary_search(&b), insert) {
            (Err(i), true) => list.insert(i, b),
            (Ok(i), false) => {
                list.remove(i);
            }
            _ => {}
        }
    }
}

fn to_csr(adj: &[Vec<VertexId>]) -> CsrGraph {
    let mut offsets = Vec::with_capacity(adj.len() + 1);
    let mut targets = Vec::with_capacity(adj.iter().map(Vec::len).sum());
    offsets.push(0u64);
    for list in adj {
        targets.extend_from_slice(list);
        offsets.push(targets.len() as u64);
    }
    CsrGraph::from_raw_parts(offsets.into_boxed_slice(), targets.into_boxed_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbfs_graph::gen;

    fn sample(seq: u64, source: VertexId, lo: u64, hi: u64, distances: &[u32]) -> Sample {
        Sample {
            seq,
            source,
            lo,
            hi,
            hint: hi,
            digest: digest(distances),
        }
    }

    /// Path 0-1-2-3-4-5 at epoch 1; epoch 2 adds 0-5; epoch 3 deletes 1-2.
    fn path_log() -> (CsrGraph, EpochLog) {
        let log = EpochLog {
            first: 1,
            entries: vec![
                (2, vec![EdgeMutation::Insert(0, 5)]),
                (3, vec![EdgeMutation::Delete(1, 2)]),
                (4, vec![]),
            ],
        };
        (gen::path(6), log)
    }

    #[test]
    fn static_oracle_accepts_the_truth_and_rejects_a_lie() {
        let g = gen::path(5);
        let good = sample(0, 0, 1, 1, &[0, 1, 2, 3, 4]);
        let bad = sample(1, 0, 1, 1, &[0, 1, 2, 3, 5]);
        let v = check_static(&g, &[good, bad]);
        assert_eq!(v.verified, 2);
        assert_eq!(v.mismatches.len(), 1);
        assert!(v.mismatches[0].starts_with("query 1 "));
    }

    #[test]
    fn epoch_window_accepts_any_epoch_inside_the_window() {
        let (g, log) = path_log();
        let epoch1 = [0, 1, 2, 3, 4, 5];
        let epoch2 = [0, 1, 2, 3, 2, 1];
        let epoch3 = [0, 1, 4, 3, 2, 1];
        let samples = [
            sample(0, 0, 1, 1, &epoch1),
            sample(1, 0, 1, 3, &epoch2),
            sample(2, 0, 1, 4, &epoch3),
            sample(3, 0, 3, 4, &epoch3),
        ];
        let v = check_windows(&g, &log, &samples);
        assert_eq!(v.verified, 4);
        assert!(v.mismatches.is_empty(), "{:?}", v.mismatches);
    }

    #[test]
    fn epoch_window_rejects_a_torn_result() {
        let (g, log) = path_log();
        // Vertices 0..=2 as of epoch 3 (2 reached the long way round),
        // 3..=5 as of epoch 1 (before 0-5 existed): no single epoch.
        let torn = [0, 1, 4, 3, 4, 5];
        let v = check_windows(&g, &log, &[sample(7, 0, 1, 4, &torn)]);
        assert_eq!(v.mismatches.len(), 1);
        assert!(v.mismatches[0].contains("query 7"), "{:?}", v.mismatches);
    }

    #[test]
    fn epoch_window_rejects_an_epoch_outside_the_window() {
        let (g, log) = path_log();
        // Correct for epoch 3, but the query finished while epoch 2 served.
        let epoch3 = [0, 1, 4, 3, 2, 1];
        let v = check_windows(&g, &log, &[sample(1, 0, 1, 2, &epoch3)]);
        assert_eq!(v.mismatches.len(), 1);
    }

    #[test]
    fn digest_separates_permutations() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
        assert_eq!(digest(&[3, 4, 5]), digest(&[3, 4, 5]));
    }
}
