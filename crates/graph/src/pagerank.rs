//! PageRank over the follower graph.
//!
//! §4.1.1 compares prolific commenters against "the top twenty Gab users by
//! number of followers, score, or PageRank as determined by prior work".
//! We implement the standard power-iteration PageRank so the same ranking
//! comparison can be made on the synthetic network.

use crate::digraph::DiGraph;

/// Compute PageRank scores. `damping` is the usual 0.85; iteration stops
/// when the L1 change drops below `tol` or after `max_iter` rounds.
///
/// Dangling nodes (no outgoing edges) redistribute their mass uniformly,
/// the standard correction. Scores sum to 1 (within `tol`).
pub fn pagerank(g: &DiGraph, damping: f64, tol: f64, max_iter: usize) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    assert!((0.0..1.0).contains(&damping), "damping must be in [0,1)");
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    for _ in 0..max_iter {
        let mut dangling = 0.0;
        for (v, r) in rank.iter().enumerate() {
            if g.out_degree(v as u32) == 0 {
                dangling += r;
            }
        }
        let base = (1.0 - damping) * uniform + damping * dangling * uniform;
        next.iter_mut().for_each(|x| *x = base);
        for (v, r) in rank.iter().enumerate() {
            let deg = g.out_degree(v as u32);
            if deg > 0 {
                let share = damping * r / deg as f64;
                for &w in g.following(v as u32) {
                    next[w as usize] += share;
                }
            }
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < tol {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_to_one() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(3, 0);
        let r = pagerank(&g, 0.85, 1e-10, 200);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn hub_outranks_leaves() {
        // Star: everyone follows node 0.
        let mut g = DiGraph::with_nodes(5);
        for v in 1..5 {
            g.add_edge(v, 0);
        }
        let r = pagerank(&g, 0.85, 1e-10, 200);
        for v in 1..5 {
            assert!(r[0] > r[v], "hub must outrank leaf {v}");
        }
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let r = pagerank(&g, 0.85, 1e-12, 500);
        for x in r.iter().take(3) {
            assert!((x - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::with_nodes(0);
        assert!(pagerank(&g, 0.85, 1e-8, 10).is_empty());
    }

    #[test]
    fn dangling_nodes_handled() {
        // 0 → 1, 1 dangles. Mass must not leak: sum stays 1.
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(0, 1);
        let r = pagerank(&g, 0.85, 1e-12, 500);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(r[1] > r[0]);
    }
}
