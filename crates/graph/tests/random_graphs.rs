//! Property tests for the graph substrate over random graphs.

use ipe_graph::{simple_paths, topo_sort_filtered, DiGraph, NodeId};
use proptest::prelude::*;

/// Strategy: a random directed graph as (node count, edge list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..25);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(usize, usize)]) -> DiGraph<(), ()> {
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for &(s, t) in edges {
        g.add_edge(ids[s], ids[t], ());
    }
    g
}

proptest! {
    /// A successful topological sort respects every edge, and filtering
    /// all edges away makes the graph trivially sortable.
    #[test]
    fn topo_sort_respects_edges((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        prop_assert!(topo_sort_filtered(&g, |_, _| false).is_ok());
        if let Ok(order) = topo_sort_filtered(&g, |_, _| true) {
            let pos: Vec<usize> = {
                let mut p = vec![0; n];
                for (i, &node) in order.iter().enumerate() {
                    p[node.index()] = i;
                }
                p
            };
            for (_, e) in g.edges() {
                prop_assert!(pos[e.source.index()] < pos[e.target.index()]);
            }
        } else {
            // A failed sort implies an actual cycle: some edge's target
            // leads back to its source.
            let has_cycle = g
                .edges()
                .any(|(_, e)| !simple_paths(&g, e.target, e.source, n).is_empty());
            prop_assert!(has_cycle);
        }
    }

    /// Every simple path is genuinely simple, ends at the target, and uses
    /// existing edges in a connected sequence.
    #[test]
    fn simple_paths_are_simple((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let s = NodeId(0);
        let t = NodeId((n - 1) as u32);
        for p in simple_paths(&g, s, t, n) {
            prop_assert_eq!(p.target(&g), t);
            let nodes = p.nodes(&g);
            prop_assert_eq!(nodes[0], s);
            let mut d = nodes.clone();
            d.sort();
            d.dedup();
            prop_assert_eq!(d.len(), nodes.len());
            // Edge chaining.
            let mut current = s;
            for &e in &p.edges {
                prop_assert_eq!(g.edge(e).source, current);
                current = g.edge(e).target;
            }
        }
    }
}
