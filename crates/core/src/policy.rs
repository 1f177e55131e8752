//! Direction-switching policies (top-down vs. bottom-up).
//!
//! Beamer et al. switch from top-down to bottom-up when the frontier's
//! outgoing edge count `m_f` exceeds `m_u / α` (edges incident to
//! unexplored vertices), and back to top-down when the frontier shrinks
//! below `n / β` vertices. The MS variants inherit the same heuristic with
//! counts aggregated over the whole batch.

/// Traversal direction of one BFS iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Scan frontier vertices, push to neighbors.
    TopDown,
    /// Scan unseen vertices, pull from frontier neighbors.
    BottomUp,
}

impl pbfs_json::ToJson for Direction {
    fn to_json(&self) -> pbfs_json::Json {
        pbfs_json::Json::Str(
            match self {
                Direction::TopDown => "TopDown",
                Direction::BottomUp => "BottomUp",
            }
            .to_string(),
        )
    }
}

/// Inputs to the per-iteration direction decision.
#[derive(Clone, Copy, Debug)]
pub struct FrontierState {
    /// Vertices in the current frontier (`n_f`).
    pub frontier_vertices: u64,
    /// Sum of degrees of frontier vertices (`m_f`).
    pub frontier_degree: u64,
    /// Sum of degrees of still-unexplored vertices (`m_u`).
    pub unexplored_degree: u64,
    /// Total vertices in the graph (`n`).
    pub total_vertices: u64,
    /// Direction used in the previous iteration.
    pub current: Direction,
}

/// A direction-switching policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DirectionPolicy {
    /// Classical BFS: never go bottom-up.
    AlwaysTopDown,
    /// Always bottom-up (after the unavoidable top-down first step the
    /// algorithms take to seed the frontier).
    AlwaysBottomUp,
    /// Beamer's α/β heuristic.
    Heuristic {
        /// Switch top-down → bottom-up when `m_f > m_u / alpha`.
        alpha: f64,
        /// Switch bottom-up → top-down when `n_f < n / beta`.
        beta: f64,
    },
}

impl Default for DirectionPolicy {
    /// GAPBS defaults: α = 15, β = 18.
    fn default() -> Self {
        DirectionPolicy::Heuristic {
            alpha: 15.0,
            beta: 18.0,
        }
    }
}

impl DirectionPolicy {
    /// Chooses the direction of the next iteration.
    pub fn decide(&self, s: &FrontierState) -> Direction {
        match *self {
            DirectionPolicy::AlwaysTopDown => Direction::TopDown,
            DirectionPolicy::AlwaysBottomUp => Direction::BottomUp,
            DirectionPolicy::Heuristic { alpha, beta } => match s.current {
                Direction::TopDown => {
                    if s.frontier_degree as f64 > s.unexplored_degree as f64 / alpha {
                        Direction::BottomUp
                    } else {
                        Direction::TopDown
                    }
                }
                Direction::BottomUp => {
                    if (s.frontier_vertices as f64) < s.total_vertices as f64 / beta {
                        Direction::TopDown
                    } else {
                        Direction::BottomUp
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(current: Direction) -> FrontierState {
        FrontierState {
            frontier_vertices: 10,
            frontier_degree: 100,
            unexplored_degree: 10_000,
            total_vertices: 1_000,
            current,
        }
    }

    #[test]
    fn fixed_policies() {
        let s = state(Direction::TopDown);
        assert_eq!(
            DirectionPolicy::AlwaysTopDown.decide(&s),
            Direction::TopDown
        );
        assert_eq!(
            DirectionPolicy::AlwaysBottomUp.decide(&s),
            Direction::BottomUp
        );
    }

    #[test]
    fn heuristic_switches_down_when_frontier_is_heavy() {
        let p = DirectionPolicy::Heuristic {
            alpha: 15.0,
            beta: 18.0,
        };
        let mut s = state(Direction::TopDown);
        // m_f = 100 ≤ m_u/α = 666 → stay top-down.
        assert_eq!(p.decide(&s), Direction::TopDown);
        s.frontier_degree = 1_000;
        // m_f = 1000 > 666 → go bottom-up.
        assert_eq!(p.decide(&s), Direction::BottomUp);
    }

    #[test]
    fn heuristic_switches_up_when_frontier_thins() {
        let p = DirectionPolicy::Heuristic {
            alpha: 15.0,
            beta: 18.0,
        };
        let mut s = state(Direction::BottomUp);
        s.frontier_vertices = 500;
        // n_f = 500 ≥ n/β = 55 → stay bottom-up.
        assert_eq!(p.decide(&s), Direction::BottomUp);
        s.frontier_vertices = 20;
        // n_f = 20 < 55 → back to top-down.
        assert_eq!(p.decide(&s), Direction::TopDown);
    }

    #[test]
    fn hot_phase_roundtrip() {
        // A typical small-world run: tiny frontier, explode, shrink.
        let p = DirectionPolicy::default();
        let mut dir = Direction::TopDown;
        let phases = [
            (1u64, 50u64, 30_000u64), // iteration 1: stay TD
            (40, 4_000, 26_000),      // iteration 2: m_f > m_u/15 → BU
            (800, 20_000, 4_000),     // iteration 3: stay BU (n_f big)
            (30, 300, 500),           // iteration 4: n_f < n/18 → TD
        ];
        let mut seen = Vec::new();
        for (n_f, m_f, m_u) in phases {
            dir = p.decide(&FrontierState {
                frontier_vertices: n_f,
                frontier_degree: m_f,
                unexplored_degree: m_u,
                total_vertices: 1_000,
                current: dir,
            });
            seen.push(dir);
        }
        assert_eq!(
            seen,
            vec![
                Direction::TopDown,
                Direction::BottomUp,
                Direction::BottomUp,
                Direction::TopDown
            ]
        );
    }
}
