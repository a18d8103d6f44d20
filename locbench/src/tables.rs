//! Locality tables from pair statistics: the manager's partitioning
//! step done by hand for the live workloads (`KeyGraph` +
//! `MultilevelPartitioner`, α = 1.03).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use streamloc::engine::Key;
use streamloc::partition::{KeyGraph, MultilevelPartitioner};
use streamloc::routing::{PairTracker, RoutingTable};
use streamloc::sketch::SpaceSaving;

use crate::report::Metrics;
use crate::spans::Spans;

/// Imbalance bound α of the paper (Metis' default).
pub const ALPHA: f64 = 1.03;

/// Routing tables for the location and hashtag hops, with what the
/// partitioner reported.
#[derive(Debug, Clone)]
pub struct Partitioned {
    /// Location key → `by_location` instance.
    pub location: RoutingTable,
    /// Hashtag key → `by_hashtag` instance.
    pub hashtag: RoutingTable,
    /// What the partitioning cost and achieved.
    pub stats: PartitionStats,
}

/// Cost and quality of one key-graph partition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartitionStats {
    /// Wall time of `KeyGraph::partition`, milliseconds.
    pub ms: f64,
    /// Vertices of the key graph.
    pub vertices: usize,
    /// Edges of the key graph (distinct pairs).
    pub edges: usize,
    /// Locality the partition achieves on the statistics.
    pub expected_locality: f64,
    /// Max over mean part weight on the statistics.
    pub imbalance: f64,
}

impl PartitionStats {
    /// Writes the `partition.*` per-layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set("partition.ms", self.ms);
        m.set("partition.graph_vertices", self.vertices as f64);
        m.set("partition.graph_edges", self.edges as f64);
        m.set("partition.expected_locality", self.expected_locality);
        m.set("partition.imbalance", self.imbalance);
    }
}

/// Snapshots every tracker and merges the snapshots into one sketch of
/// at most `capacity` pairs, as the manager does before partitioning.
/// Returns the merged `(location, hashtag, count)` triples and the
/// snapshot and merge wall times in milliseconds.
pub fn merged_snapshot(
    trackers: &[Arc<PairTracker>],
    capacity: usize,
    spans: &mut Spans,
) -> (Vec<(Key, Key, u64)>, f64, f64) {
    let t = Instant::now();
    let snaps: Vec<SpaceSaving<(Key, Key)>> = spans.time("PairTracker::snapshot", || {
        trackers.iter().map(|t| t.snapshot()).collect()
    });
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let merged = spans.time("SpaceSaving::merged", || {
        snaps.iter().skip(1).fold(snaps[0].clone(), |acc, s| {
            SpaceSaving::merged(&acc, s, capacity)
        })
    });
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    let pairs = merged.iter().map(|e| (e.key.0, e.key.1, e.count)).collect();
    (pairs, snapshot_ms, merge_ms)
}

/// Exact pair counts of `pairs`.
#[must_use]
pub fn pair_counts(pairs: &[(Key, Key)]) -> Vec<(Key, Key, u64)> {
    let mut counts: HashMap<(Key, Key), u64> = HashMap::new();
    for &p in pairs {
        *counts.entry(p).or_default() += 1;
    }
    counts.into_iter().map(|((l, t), c)| (l, t, c)).collect()
}

/// Partitions the key graph of `pairs` (distinct `(location, hashtag,
/// count)` triples) over `servers` servers. Instance `i` of each
/// operator sits on server `i`, so parts are instance indices. The
/// pairs are sorted first: vertex numbering, and so the partition, then
/// depends only on the statistics, not on the order they arrived in.
pub fn partition(
    pairs: &mut [(Key, Key, u64)],
    servers: usize,
    seed: u64,
    spans: &mut Spans,
) -> Partitioned {
    pairs.sort_unstable();
    let mut graph = KeyGraph::new();
    for &(loc, tag, count) in pairs.iter() {
        graph.add_pair(loc, tag, count);
    }
    let t = Instant::now();
    let assignment = spans.time("KeyGraph::partition", || {
        graph.partition(&MultilevelPartitioner::default(), servers, ALPHA, seed)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Partitioned {
        location: assignment.left_iter().map(|(&k, p)| (k, p)).collect(),
        hashtag: assignment.right_iter().map(|(&k, p)| (k, p)).collect(),
        stats: PartitionStats {
            ms,
            vertices: graph.left_len() + graph.right_len(),
            edges: pairs.len(),
            expected_locality: assignment.expected_locality(),
            imbalance: assignment.imbalance(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlated_keys_share_a_part() {
        let mut pairs = vec![
            (Key::new(1), Key::new(100), 50),
            (Key::new(2), Key::new(200), 50),
            (Key::new(1), Key::new(101), 40),
            (Key::new(2), Key::new(201), 40),
        ];
        let p = partition(&mut pairs, 2, 7, &mut Spans::new(false));
        assert_eq!(p.location.get(Key::new(1)), p.hashtag.get(Key::new(100)));
        assert_ne!(p.location.get(Key::new(1)), p.location.get(Key::new(2)));
        assert_eq!((p.stats.vertices, p.stats.edges), (6, 4));
        assert!(p.stats.expected_locality > 0.99);
    }
}
