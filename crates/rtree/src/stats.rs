//! Search accounting — the `A` column of Table 1.

use std::ops::AddAssign;

/// Counters accumulated by every search operation.
///
/// The paper's experiment reports `A`, "the average number of nodes visited
/// during 1000 random search queries"; accumulate one `SearchStats` across
/// the batch and read [`SearchStats::avg_nodes_visited`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Total R-tree nodes visited (root counts once per query).
    pub nodes_visited: u64,
    /// Of those, leaf nodes.
    pub leaf_nodes_visited: u64,
    /// Leaf entries reported as results.
    pub items_reported: u64,
    /// Number of queries accumulated into these counters.
    pub queries: u64,
}

impl SearchStats {
    /// Average nodes visited per query — Table 1's `A`.
    pub fn avg_nodes_visited(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.nodes_visited as f64 / self.queries as f64
        }
    }

    /// Average results per query.
    pub fn avg_items_reported(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.items_reported as f64 / self.queries as f64
        }
    }
}

impl AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: SearchStats) {
        self.nodes_visited += rhs.nodes_visited;
        self.leaf_nodes_visited += rhs.leaf_nodes_visited;
        self.items_reported += rhs.items_reported;
        self.queries += rhs.queries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let mut s = SearchStats::default();
        assert_eq!(s.avg_nodes_visited(), 0.0);
        s.nodes_visited = 30;
        s.items_reported = 5;
        s.queries = 10;
        assert_eq!(s.avg_nodes_visited(), 3.0);
        assert_eq!(s.avg_items_reported(), 0.5);
    }

    #[test]
    fn accumulation() {
        let mut a = SearchStats {
            nodes_visited: 1,
            leaf_nodes_visited: 1,
            items_reported: 0,
            queries: 1,
        };
        let b = SearchStats {
            nodes_visited: 3,
            leaf_nodes_visited: 2,
            items_reported: 4,
            queries: 1,
        };
        a += b;
        assert_eq!(a.nodes_visited, 4);
        assert_eq!(a.queries, 2);
    }
}
