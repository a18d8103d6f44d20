//! Multilevel k-way partitioning (Karypis & Kumar 1998 scheme).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::graph::{Graph, VertexId};
use crate::greedy::GreedyPartitioner;
use crate::partition::Partition;
use crate::refine::refine_boundary;
use crate::{weight_cap, Partitioner};

const UNMATCHED: u32 = u32::MAX;

/// Multilevel partitioner: heavy-edge-matching coarsening, greedy
/// initial partitioning of the coarse graph, then uncoarsening with
/// greedy boundary refinement at every level.
///
/// This plays the role Metis plays in the paper (§3.3): it is the
/// partitioner the routing manager invokes on the bipartite key graph.
/// Quality on key-correlation graphs is within a few percent of the
/// greedy baseline's *best case* while being far more robust on
/// clustered inputs (see the `ablation_partitioner` experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelPartitioner {
    /// Stop coarsening once the graph has at most
    /// `max(coarse_target, 8 * k)` vertices.
    pub coarse_target: usize,
    /// Maximum refinement passes per level.
    pub refine_passes: usize,
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        Self {
            coarse_target: 64,
            refine_passes: 8,
        }
    }
}

impl MultilevelPartitioner {
    /// Creates a partitioner with the default coarsening target and
    /// refinement effort.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The full multilevel pipeline: coarsen, partition the coarsest
    /// graph, uncoarsen with refinement at every level.
    fn multilevel_candidate(&self, graph: &Graph, k: usize, alpha: f64, seed: u64) -> Partition {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cap = weight_cap(graph, k, alpha);
        let coarse_limit = self.coarse_target.max(8 * k);

        // Coarsening: stack of (fine graph, fine→coarse map).
        let mut levels: Vec<(Graph, Vec<u32>)> = Vec::new();
        let mut current = graph.clone();
        while current.vertex_count() > coarse_limit {
            let (coarse, map) = coarsen_once(&current, cap, &mut rng);
            if coarse.vertex_count() as f64 > 0.95 * current.vertex_count() as f64 {
                break; // matching stalled; further levels would not help
            }
            levels.push((current, map));
            current = coarse;
        }

        // Initial partition of the coarsest graph, then refine it.
        let initial = GreedyPartitioner.partition(&current, k, alpha, seed);
        let mut parts = initial.as_slice().to_vec();
        let coarse_cap = weight_cap(&current, k, alpha);
        refine_boundary(
            &current,
            &mut parts,
            k,
            coarse_cap,
            self.refine_passes,
            seed ^ 0xc0a5,
        );

        // Uncoarsen: project and refine at each finer level.
        for (depth, (fine, map)) in levels.iter().enumerate().rev() {
            let mut fine_parts = vec![0u32; fine.vertex_count()];
            for v in 0..fine.vertex_count() {
                fine_parts[v] = parts[map[v] as usize];
            }
            let level_cap = weight_cap(fine, k, alpha);
            refine_boundary(
                fine,
                &mut fine_parts,
                k,
                level_cap,
                self.refine_passes,
                seed ^ (depth as u64).wrapping_mul(0x9e37),
            );
            parts = fine_parts;
        }
        Partition::from_parts(parts, k)
    }

    /// The fine-level greedy candidate with boundary refinement. On
    /// graphs whose clusters exceed the balance cap (hub-and-spoke key
    /// graphs), coarse chunks can misplace whole groups in ways
    /// boundary refinement cannot repair, while the fine-grained
    /// greedy splits groups exactly at the cap (Metis likewise tries
    /// several initial partitions).
    fn refined_greedy_candidate(
        graph: &Graph,
        k: usize,
        alpha: f64,
        seed: u64,
        refine_passes: usize,
    ) -> Partition {
        let cap = weight_cap(graph, k, alpha);
        let mut greedy_parts = GreedyPartitioner
            .partition(graph, k, alpha, seed)
            .as_slice()
            .to_vec();
        refine_boundary(graph, &mut greedy_parts, k, cap, refine_passes, seed ^ 0x91ee);
        Partition::from_parts(greedy_parts, k)
    }

    /// Warm-started repartitioning: instead of coarsening from
    /// scratch, seed the assignment from `hint` — the part each vertex
    /// held in the *previous* window's partition (`u32::MAX` for
    /// vertices with no history) — then place the unhinted vertices
    /// greedily and run boundary refinement. Steady-state
    /// repartitioning therefore only moves the keys whose
    /// neighborhoods actually changed, at the cost of one refinement
    /// sweep instead of a full multilevel pipeline.
    ///
    /// The output is deterministic in `(graph, hint, seed)` and always
    /// a valid `k`-way partition; a hint that no longer fits the
    /// balance cap is partially discarded (cap-respecting prefix wins,
    /// overflow vertices are re-placed greedily).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `alpha < 1.0`, or `hint.len()` differs from
    /// the graph's vertex count.
    #[must_use]
    pub fn partition_with_hint(
        &self,
        graph: &Graph,
        k: usize,
        alpha: f64,
        seed: u64,
        hint: &[u32],
    ) -> Partition {
        crate::validate_args(k, alpha);
        let n = graph.vertex_count();
        assert_eq!(hint.len(), n, "hint length must match the vertex count");
        if n == 0 {
            return Partition::from_parts(Vec::new(), k);
        }
        if k == 1 {
            return Partition::from_parts(vec![0; n], k);
        }
        let cap = weight_cap(graph, k, alpha);
        let mut parts = vec![UNMATCHED; n];
        let mut loads = vec![0u64; k];
        // Seed from the hint while it fits the cap (visit order is the
        // vertex order, so the outcome is deterministic).
        for v in 0..n {
            let h = hint[v];
            if h != UNMATCHED && (h as usize) < k {
                let w = graph.vertex_weight(v as VertexId);
                if loads[h as usize] + w <= cap {
                    parts[v] = h;
                    loads[h as usize] += w;
                }
            }
        }
        // Place unhinted (and cap-overflow) vertices where they
        // connect most strongly, like the greedy initial partitioner.
        let mut conn = vec![0u64; k];
        for v in 0..n {
            if parts[v] != UNMATCHED {
                continue;
            }
            let w = graph.vertex_weight(v as VertexId);
            for c in conn.iter_mut() {
                *c = 0;
            }
            for (u, ew) in graph.neighbors(v as VertexId) {
                let p = parts[u as usize];
                if p != UNMATCHED {
                    conn[p as usize] += ew;
                }
            }
            let mut best: Option<usize> = None;
            for p in 0..k {
                if loads[p] + w > cap {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        conn[p] > conn[b] || (conn[p] == conn[b] && loads[p] < loads[b])
                    }
                };
                if better {
                    best = Some(p);
                }
            }
            let p = best.unwrap_or_else(|| {
                // Cap infeasible everywhere (degenerate hint): fall
                // back to the lightest part, like the greedy baseline.
                (0..k).min_by_key(|&p| loads[p]).expect("k > 0")
            });
            parts[v] = p as u32;
            loads[p] += w;
        }
        refine_boundary(graph, &mut parts, k, cap, self.refine_passes, seed ^ 0x3a3a);
        Partition::from_parts(parts, k)
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition(&self, graph: &Graph, k: usize, alpha: f64, seed: u64) -> Partition {
        crate::validate_args(k, alpha);
        let n = graph.vertex_count();
        if n == 0 {
            return Partition::from_parts(Vec::new(), k);
        }
        if k == 1 {
            return Partition::from_parts(vec![0; n], k);
        }
        // The two candidates are independent; compute them on separate
        // threads (scoped: no allocation outlives the call, no extra
        // dependencies) and keep whichever cuts less.
        let (multilevel, greedy) = std::thread::scope(|s| {
            let ml = s.spawn(|| self.multilevel_candidate(graph, k, alpha, seed));
            let greedy =
                Self::refined_greedy_candidate(graph, k, alpha, seed, self.refine_passes);
            (
                ml.join().expect("multilevel candidate thread panicked"),
                greedy,
            )
        });
        if greedy.edge_cut(graph) < multilevel.edge_cut(graph) {
            greedy
        } else {
            multilevel
        }
    }
}

/// One round of heavy-edge matching with a 2-hop fallback. Returns
/// the coarse graph and the fine→coarse vertex map. Pairs whose
/// combined weight would exceed `cap` are not matched, so coarse
/// vertices stay placeable.
///
/// The 2-hop pass pairs still-unmatched vertices that share their
/// heaviest neighbor. Without it, star-shaped graphs — exactly the
/// shape of key-correlation graphs, where a popular location is the
/// hub of thousands of hashtags — stall the coarsening after one
/// round (tags have no tag–tag edges to match over) and the initial
/// partition then runs on a nearly uncoarsened graph, wrecking
/// quality for small `k`. Metis applies the same remedy to power-law
/// graphs.
fn coarsen_once(graph: &Graph, cap: u64, rng: &mut SmallRng) -> (Graph, Vec<u32>) {
    let n = graph.vertex_count();
    let mut order: Vec<VertexId> = graph.vertices().collect();
    order.shuffle(rng);
    // A match over an edge far weaker than either endpoint's strongest
    // incident edge would glue unrelated clusters together — a mistake
    // no later refinement can undo, since refinement moves single
    // (coarse) vertices. Refusing such matches makes the coarsening
    // stall instead, which ends it cleanly at the current level.
    let max_incident: Vec<u64> = (0..n as VertexId)
        .map(|v| graph.neighbors(v).map(|(_, w)| w).max().unwrap_or(0))
        .collect();
    let strong = |u: VertexId, v: VertexId, w: u64| {
        4 * w >= max_incident[u as usize] && 4 * w >= max_incident[v as usize]
    };
    let mut mate = vec![UNMATCHED; n];
    for &u in &order {
        if mate[u as usize] != UNMATCHED {
            continue;
        }
        let wu = graph.vertex_weight(u);
        let mut best: Option<(VertexId, u64)> = None;
        for (v, w) in graph.neighbors(u) {
            if mate[v as usize] != UNMATCHED || v == u {
                continue;
            }
            if wu + graph.vertex_weight(v) > cap || !strong(u, v, w) {
                continue;
            }
            let better = match best {
                None => true,
                Some((bv, bw)) => w > bw || (w == bw && v < bv),
            };
            if better {
                best = Some((v, w));
            }
        }
        if let Some((v, _)) = best {
            mate[u as usize] = v;
            mate[v as usize] = u;
        }
    }

    // 2-hop pass: pair unmatched vertices hanging off the same hub.
    let mut pending_by_hub: std::collections::HashMap<VertexId, VertexId> =
        std::collections::HashMap::new();
    for &u in &order {
        if mate[u as usize] != UNMATCHED {
            continue;
        }
        let hub = graph
            .neighbors(u)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(v, _)| v);
        let Some(hub) = hub else { continue };
        match pending_by_hub.get(&hub) {
            Some(&v)
                if graph.vertex_weight(u) + graph.vertex_weight(v) <= cap =>
            {
                mate[u as usize] = v;
                mate[v as usize] = u;
                pending_by_hub.remove(&hub);
            }
            _ => {
                pending_by_hub.insert(hub, u);
            }
        }
    }

    let mut map = vec![UNMATCHED; n];
    let mut builder = Graph::builder();
    for v in 0..n as u32 {
        if map[v as usize] != UNMATCHED {
            continue;
        }
        let mut weight = graph.vertex_weight(v);
        let m = mate[v as usize];
        if m != UNMATCHED {
            weight += graph.vertex_weight(m);
        }
        let cid = builder.add_vertex(weight);
        map[v as usize] = cid;
        if m != UNMATCHED {
            map[m as usize] = cid;
        }
    }
    for (u, v, w) in graph.edges() {
        let (cu, cv) = (map[u as usize], map[v as usize]);
        if cu != cv {
            builder.add_edge(cu, cv, w);
        }
    }
    (builder.build(), map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashPartitioner;
    use rand::Rng;

    /// `clusters` cliques of `size` vertices with strong internal edges
    /// and sparse weak edges between consecutive clusters.
    fn clustered(clusters: usize, size: usize) -> Graph {
        let mut b = Graph::builder();
        for _ in 0..clusters * size {
            b.add_vertex(1);
        }
        for c in 0..clusters {
            let base = (c * size) as u32;
            for i in 0..size as u32 {
                for j in (i + 1)..size as u32 {
                    b.add_edge(base + i, base + j, 100);
                }
            }
            if c + 1 < clusters {
                b.add_edge(base, base + size as u32, 1);
            }
        }
        b.build()
    }

    #[test]
    fn finds_cluster_structure() {
        let g = clustered(4, 8);
        let p = MultilevelPartitioner::default().partition(&g, 4, 1.05, 11);
        // Optimal cut severs only the 3 weak bridges.
        assert_eq!(p.edge_cut(&g), 3);
        assert!((p.imbalance(&g) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beats_hash_on_clustered_graphs() {
        let g = clustered(6, 16);
        let ml = MultilevelPartitioner::default().partition(&g, 6, 1.05, 3);
        let hash = HashPartitioner.partition(&g, 6, 1.05, 3);
        assert!(
            ml.edge_cut(&g) * 10 < hash.edge_cut(&g),
            "multilevel cut {} not ≪ hash cut {}",
            ml.edge_cut(&g),
            hash.edge_cut(&g)
        );
    }

    #[test]
    fn deterministic() {
        let g = clustered(4, 10);
        let ml = MultilevelPartitioner::default();
        assert_eq!(ml.partition(&g, 3, 1.1, 5), ml.partition(&g, 3, 1.1, 5));
    }

    #[test]
    fn handles_large_random_graph_balanced() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut b = Graph::builder();
        let n = 3000u32;
        for _ in 0..n {
            b.add_vertex(rng.gen_range(1..20));
        }
        for _ in 0..9000 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            b.add_edge(u, v, rng.gen_range(1..50));
        }
        let g = b.build();
        let p = MultilevelPartitioner::default().partition(&g, 6, 1.05, 17);
        assert_eq!(p.len(), g.vertex_count());
        // Balance should respect the cap up to the feasibility floor.
        let cap = crate::weight_cap(&g, 6, 1.05);
        let max = *p.part_weights(&g).iter().max().unwrap();
        assert!(max <= cap, "part weight {max} exceeds cap {cap}");
    }

    #[test]
    fn trivial_cases() {
        let g = clustered(2, 4);
        let ml = MultilevelPartitioner::default();
        let p1 = ml.partition(&g, 1, 1.0, 0);
        assert_eq!(p1.edge_cut(&g), 0);

        let empty = Graph::builder().build();
        let pe = ml.partition(&empty, 4, 1.0, 0);
        assert!(pe.is_empty());
    }

    #[test]
    fn more_parts_than_vertices() {
        let mut b = Graph::builder();
        for _ in 0..3 {
            b.add_vertex(1);
        }
        b.add_edge(0, 1, 1);
        let g = b.build();
        let p = MultilevelPartitioner::default().partition(&g, 8, 1.5, 0);
        assert_eq!(p.len(), 3);
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 1.0")]
    fn rejects_bad_alpha() {
        let g = Graph::builder().build();
        let _ = MultilevelPartitioner::default().partition(&g, 2, 0.5, 0);
    }

    #[test]
    fn warm_start_preserves_an_optimal_hint() {
        // Hinting the previous (optimal) assignment must keep it:
        // refinement finds no improving move, so no key migrates.
        let g = clustered(4, 8);
        let ml = MultilevelPartitioner::default();
        let cold = ml.partition(&g, 4, 1.05, 11);
        assert_eq!(cold.edge_cut(&g), 3);
        let hint: Vec<u32> = cold.as_slice().to_vec();
        let warm = ml.partition_with_hint(&g, 4, 1.05, 11, &hint);
        assert_eq!(warm.as_slice(), cold.as_slice(), "optimal hint was perturbed");
    }

    #[test]
    fn warm_start_without_history_still_partitions() {
        let g = clustered(4, 8);
        let ml = MultilevelPartitioner::default();
        let hint = vec![u32::MAX; g.vertex_count()];
        let p = ml.partition_with_hint(&g, 4, 1.05, 7, &hint);
        assert_eq!(p.len(), g.vertex_count());
        let cap = crate::weight_cap(&g, 4, 1.05);
        let max = *p.part_weights(&g).iter().max().unwrap();
        assert!(max <= cap, "part weight {max} exceeds cap {cap}");
        // Greedy seeding + refinement still finds the cluster cut.
        assert_eq!(p.edge_cut(&g), 3);
    }

    #[test]
    fn warm_start_repairs_a_partially_stale_hint() {
        // Half the hint points at the wrong cluster's part; the warm
        // path must still land within cap and close to the optimum.
        let g = clustered(4, 8);
        let ml = MultilevelPartitioner::default();
        let cold = ml.partition(&g, 4, 1.05, 11);
        let mut hint: Vec<u32> = cold.as_slice().to_vec();
        for (v, h) in hint.iter_mut().enumerate() {
            if v % 2 == 0 {
                *h = u32::MAX; // new key, no history
            }
        }
        let warm = ml.partition_with_hint(&g, 4, 1.05, 11, &hint);
        let cap = crate::weight_cap(&g, 4, 1.05);
        let max = *warm.part_weights(&g).iter().max().unwrap();
        assert!(max <= cap);
        assert!(
            warm.edge_cut(&g) <= cold.edge_cut(&g) + 2,
            "warm cut {} far above cold cut {}",
            warm.edge_cut(&g),
            cold.edge_cut(&g)
        );
    }

    #[test]
    fn warm_start_respects_cap_against_overloaded_hint() {
        // A hint cramming everything into part 0 must be partially
        // discarded, never violating the balance cap.
        let g = clustered(4, 8);
        let ml = MultilevelPartitioner::default();
        let hint = vec![0u32; g.vertex_count()];
        let p = ml.partition_with_hint(&g, 4, 1.05, 3, &hint);
        let cap = crate::weight_cap(&g, 4, 1.05);
        let max = *p.part_weights(&g).iter().max().unwrap();
        assert!(max <= cap, "part weight {max} exceeds cap {cap}");
    }

    #[test]
    fn warm_start_is_deterministic() {
        let g = clustered(3, 10);
        let ml = MultilevelPartitioner::default();
        let hint: Vec<u32> = (0..g.vertex_count() as u32).map(|v| v % 3).collect();
        assert_eq!(
            ml.partition_with_hint(&g, 3, 1.1, 5, &hint),
            ml.partition_with_hint(&g, 3, 1.1, 5, &hint)
        );
    }
}
