//! Topological sorting, including sorting over a filtered edge subset.
//!
//! Schema validation needs to check that the `Isa` relationships alone form a
//! DAG while the full schema graph is heavily cyclic (every relationship has
//! an inverse). [`topo_sort_filtered`] sorts considering only the edges a
//! predicate accepts.

use crate::digraph::{DiGraph, EdgeId, NodeId};

/// Error returned when a (sub)graph contains a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// A node known to participate in a cycle of the considered subgraph.
    pub node: NodeId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a cycle through {:?}", self.node)
    }
}

impl std::error::Error for CycleError {}

/// Topologically sorts the subgraph consisting of all nodes and only the
/// edges accepted by `edge_filter` (Kahn's algorithm).
///
/// Returns the nodes in an order where every accepted edge points from an
/// earlier to a later node, or a [`CycleError`] naming a node on a cycle.
pub fn topo_sort_filtered<N, E>(
    graph: &DiGraph<N, E>,
    mut edge_filter: impl FnMut(EdgeId, &crate::Edge<E>) -> bool,
) -> Result<Vec<NodeId>, CycleError> {
    let n = graph.node_count();
    let mut in_deg = vec![0usize; n];
    let mut accepted = vec![false; graph.edge_count()];
    for (eid, e) in graph.edges() {
        if edge_filter(eid, e) {
            accepted[eid.index()] = true;
            in_deg[e.target.index()] += 1;
        }
    }
    let mut queue: Vec<NodeId> = graph
        .node_ids()
        .filter(|id| in_deg[id.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &eid in graph.out_edge_ids(v) {
            if accepted[eid.index()] {
                let t = graph.edge(eid).target;
                in_deg[t.index()] -= 1;
                if in_deg[t.index()] == 0 {
                    queue.push(t);
                }
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let node = graph
            .node_ids()
            .find(|id| in_deg[id.index()] > 0)
            .expect("unsorted node must remain");
        Err(CycleError { node })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorts over every edge.
    fn topo_sort<N, E>(graph: &DiGraph<N, E>) -> Result<Vec<NodeId>, CycleError> {
        topo_sort_filtered(graph, |_, _| true)
    }

    #[test]
    fn sorts_a_dag() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(a, c, ());
        let order = topo_sort(&g).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn detects_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        assert!(topo_sort(&g).is_err());
    }

    #[test]
    fn filtered_sort_ignores_rejected_edges() {
        // Full graph is cyclic (a <-> b) but the subgraph keeping only
        // weight-1 edges is a DAG.
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 2);
        assert!(topo_sort(&g).is_err());
        let order = topo_sort_filtered(&g, |_, e| e.weight == 1).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
    }

    #[test]
    fn empty_graph_sorts_trivially() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(topo_sort(&g).unwrap(), Vec::<NodeId>::new());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(topo_sort(&g).unwrap_err().node, a);
    }
}
