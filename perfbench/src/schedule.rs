//! Seeded input schedules: open-loop arrival times and the writer's
//! mutation batches. The same seed yields the same schedule, so both sides
//! of a comparison see identical traffic.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use pbfs_core::storage::EdgeMutation;
use pbfs_graph::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Poisson arrival process: exponential inter-arrival gaps with mean
/// `1 / rate`. Yields each arrival's offset from the start of the window.
pub struct Poisson {
    rng: StdRng,
    rate: f64,
    at: f64,
}

impl Poisson {
    /// Arrivals at `rate` per second, drawn from `seed`.
    ///
    /// # Panics
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "arrival rate must be > 0");
        Self {
            rng: StdRng::seed_from_u64(seed),
            rate,
            at: 0.0,
        }
    }
}

impl Iterator for Poisson {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        // Inverse-CDF sample; `1 - u` lies in (0, 1], so the log is finite.
        let u: f64 = self.rng.random();
        self.at += -(1.0 - u).ln() / self.rate;
        Some(Duration::from_secs_f64(self.at))
    }
}

/// The single writer's mutation stream: batches of `batch` edge
/// mutations, half inserts of pairs not currently in the graph and half
/// deletes of edges currently in it (no duplicates inside a batch, no self
/// loops, endpoints in range).
///
/// The graph churns around the generated one instead of drifting away from
/// it: the stream alternates `undo_after` fresh batches with `undo_after`
/// batches that undo them in order (each re-inserts the edges one fresh
/// batch deleted and deletes the pairs it inserted). The served graph thus
/// stays within `undo_after · batch / 2` inserted and deleted edges of the
/// generated one, and BFS work per query does not depend on how many
/// writes a run got through.
pub struct WriteStream {
    rng: StdRng,
    n: VertexId,
    batch: usize,
    undo_after: usize,
    /// Batches drawn so far.
    drawn: usize,
    /// Undirected edges of the graph as generated, each as `(min, max)`,
    /// as a list (in input order) and as a set.
    edges: Vec<(VertexId, VertexId)>,
    generated: HashSet<(VertexId, VertexId)>,
    /// Generated edges deleted by a fresh batch and not yet restored.
    removed: HashSet<(VertexId, VertexId)>,
    /// Pairs inserted by a fresh batch and not yet deleted again.
    added: HashSet<(VertexId, VertexId)>,
    /// Fresh batches awaiting their undo, oldest first.
    pending: VecDeque<Vec<EdgeMutation>>,
}

impl WriteStream {
    /// A stream over a graph of `n` vertices whose undirected edge set is
    /// `edges` (any orientation; duplicates and self loops are dropped, as
    /// the CSR builder drops them).
    ///
    /// # Panics
    /// Panics if `n < 2`, `batch < 2`, `undo_after` is zero, or `edges`
    /// has fewer than `undo_after · batch / 2` distinct edges.
    pub fn new(
        n: usize,
        edges: &[(VertexId, VertexId)],
        batch: usize,
        undo_after: usize,
        seed: u64,
    ) -> Self {
        assert!(
            n >= 2 && batch >= 2 && undo_after > 0,
            "need two vertices, a batch of at least two and an undo lag"
        );
        let mut generated = HashSet::with_capacity(edges.len());
        let mut list = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u != v && generated.insert(key(u, v)) {
                list.push(key(u, v));
            }
        }
        assert!(
            list.len() >= undo_after * batch / 2,
            "too few edges to delete"
        );
        // HashSet iteration order varies between runs; the list keeps the
        // input order so deletions pick the same edges for the same seed.
        Self {
            rng: StdRng::seed_from_u64(seed),
            n: VertexId::try_from(n).expect("vertex ids are 32-bit"),
            batch,
            undo_after,
            drawn: 0,
            edges: list,
            generated,
            removed: HashSet::new(),
            added: HashSet::new(),
            pending: VecDeque::with_capacity(undo_after),
        }
    }

    /// Draws the next batch; the stream assumes every batch it hands out
    /// is applied, in order.
    pub fn next_batch(&mut self) -> Vec<EdgeMutation> {
        let fresh = (self.drawn / self.undo_after).is_multiple_of(2);
        self.drawn += 1;
        if fresh {
            let out = self.fresh();
            self.pending.push_back(out.clone());
            out
        } else {
            let done = self.pending.pop_front().expect("a fresh batch to undo");
            done.into_iter().map(|m| self.undo(m)).collect()
        }
    }

    fn fresh(&mut self) -> Vec<EdgeMutation> {
        let mut out = Vec::with_capacity(self.batch);
        let deletes = self.batch / 2;
        while out.len() < deletes {
            let e = self.edges[self.rng.random_range(0..self.edges.len())];
            if self.removed.insert(e) {
                out.push(EdgeMutation::Delete(e.0, e.1));
            }
        }
        while out.len() < self.batch {
            let u = self.rng.random_range(0..self.n);
            let v = self.rng.random_range(0..self.n);
            let e = key(u, v);
            // Generated pairs are either present or awaiting their restore.
            if u == v || self.generated.contains(&e) || !self.added.insert(e) {
                continue;
            }
            out.push(EdgeMutation::Insert(u, v));
        }
        out
    }

    fn undo(&mut self, m: EdgeMutation) -> EdgeMutation {
        match m {
            EdgeMutation::Delete(u, v) => {
                self.removed.remove(&key(u, v));
                EdgeMutation::Insert(u, v)
            }
            EdgeMutation::Insert(u, v) => {
                self.added.remove(&key(u, v));
                EdgeMutation::Delete(u, v)
            }
        }
    }
}

fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a: Vec<Duration> = Poisson::new(200.0, 7).take(100).collect();
        let b: Vec<Duration> = Poisson::new(200.0, 7).take(100).collect();
        let c: Vec<Duration> = Poisson::new(200.0, 8).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_is_increasing_at_the_offered_rate() {
        let times: Vec<Duration> = Poisson::new(200.0, 3).take(20_000).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let rate = times.len() as f64 / times.last().unwrap().as_secs_f64();
        assert!((rate - 200.0).abs() < 200.0 * 0.03, "observed rate {rate}");
    }

    #[test]
    fn write_batches_are_valid_and_deterministic() {
        let edges: Vec<(u32, u32)> = (0..99u32).map(|v| (v, v + 1)).collect();
        let mut a = WriteStream::new(100, &edges, 16, 3, 5);
        let mut b = WriteStream::new(100, &edges, 16, 3, 5);
        let generated: HashSet<(u32, u32)> = edges.iter().copied().collect();
        let mut live = generated.clone();
        for i in 0..60 {
            let batch = a.next_batch();
            assert_eq!(batch, b.next_batch());
            assert_eq!(batch.len(), 16);
            let mut seen = HashSet::new();
            for m in &batch {
                match *m {
                    EdgeMutation::Delete(u, v) => {
                        assert!(live.remove(&key(u, v)), "delete of a missing edge");
                        assert!(seen.insert(key(u, v)));
                    }
                    EdgeMutation::Insert(u, v) => {
                        assert_ne!(u, v);
                        assert!(live.insert(key(u, v)), "insert of a present edge");
                        assert!(seen.insert(key(u, v)));
                    }
                }
            }
            assert_eq!(live.len(), edges.len(), "half inserts, half deletes");
            // Three fresh batches, then three undoing them: back to the
            // generated graph every sixth batch.
            let churned = live.symmetric_difference(&generated).count();
            let expect = [16, 32, 48, 32, 16, 0][i % 6];
            assert_eq!(churned, expect, "batch {i}");
        }
    }
}
