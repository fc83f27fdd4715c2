//! Discovery statistics — the raw material for the paper's Figure 7
//! (per-level time and OD counts) and the validation-count comparisons.

use std::time::Duration;

/// Per-lattice-level statistics.
#[derive(Clone, Debug, Default)]
pub struct LevelStats {
    /// Lattice level `l` (node size).
    pub level: usize,
    /// Nodes generated at this level (before pruning).
    pub nodes: usize,
    /// Nodes deleted by `pruneLevels` (Algorithm 4).
    pub pruned_nodes: usize,
    /// Constancy ODs (FD fragment) added to `M` at this level.
    pub fds_found: usize,
    /// Order-compatibility ODs added to `M` at this level.
    pub ocds_found: usize,
    /// Constancy validations performed.
    pub fd_checks: usize,
    /// Constancy validations short-circuited by key pruning (Lemma 12).
    pub fd_checks_key_pruned: usize,
    /// Swap-scan validations performed.
    pub swap_checks: usize,
    /// Wall-clock time spent on this level.
    pub time: Duration,
    /// Wall-clock time of the validation phase (`validate_level`) alone —
    /// the part sharded across worker threads.
    pub validate_time: Duration,
    /// Wall-clock time spent generating the next level's partitions
    /// (refinements), the other parallel phase.
    pub generate_time: Duration,
}

impl LevelStats {
    /// Total ODs found at this level.
    pub fn ods_found(&self) -> usize {
        self.fds_found + self.ocds_found
    }
}

/// Statistics for a whole discovery run.
#[derive(Clone, Debug, Default)]
pub struct DiscoveryStats {
    /// One entry per processed lattice level, starting at level 1.
    pub levels: Vec<LevelStats>,
    /// End-to-end wall-clock time.
    pub total_time: Duration,
}

impl DiscoveryStats {
    /// Total nodes generated across levels.
    pub fn total_nodes(&self) -> usize {
        self.levels.iter().map(|l| l.nodes).sum()
    }

    /// Total validations (constancy scans + swap scans).
    pub fn total_checks(&self) -> usize {
        self.levels.iter().map(|l| l.fd_checks + l.swap_checks).sum()
    }

    /// The deepest level that generated candidates — the paper reports
    /// level 9 for flight 1K×40.
    pub fn max_level(&self) -> usize {
        self.levels.last().map_or(0, |l| l.level)
    }

    /// Total wall-clock time of the validation phase across levels — the
    /// quantity the `exp1`/`exp2` threads columns compare across worker
    /// counts.
    pub fn validation_time(&self) -> Duration {
        self.levels.iter().map(|l| l.validate_time).sum()
    }

    /// Total wall-clock time spent computing next-level partitions
    /// (refinements) across levels.
    pub fn generation_time(&self) -> Duration {
        self.levels.iter().map(|l| l.generate_time).sum()
    }

    /// Renders an aligned per-level table (level, nodes, ODs, time) like
    /// Figure 7's underlying data.
    pub fn level_table(&self) -> String {
        let mut out = String::from(
            "level  nodes  pruned  #ODs (#FDs + #OCDs)      time\n",
        );
        for l in &self.levels {
            out.push_str(&format!(
                "{:>5}  {:>5}  {:>6}  {:>5} ({:>5} + {:>5})  {:>9.3?}\n",
                l.level,
                l.nodes,
                l.pruned_nodes,
                l.ods_found(),
                l.fds_found,
                l.ocds_found,
                l.time,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let stats = DiscoveryStats {
            levels: vec![
                LevelStats { level: 1, nodes: 5, fds_found: 1, fd_checks: 5, ..Default::default() },
                LevelStats { level: 2, nodes: 10, ocds_found: 3, swap_checks: 8, ..Default::default() },
            ],
            total_time: Duration::from_millis(5),
        };
        assert_eq!(stats.total_nodes(), 15);
        assert_eq!(stats.total_checks(), 13);
        assert_eq!(stats.max_level(), 2);
        assert_eq!(stats.levels[1].ods_found(), 3);
        let table = stats.level_table();
        assert!(table.contains("level"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn empty_stats() {
        let stats = DiscoveryStats::default();
        assert_eq!(stats.total_nodes(), 0);
        assert_eq!(stats.max_level(), 0);
    }
}
