//! Per-name goal tables: for a fixed target relationship name `N`, every
//! class gets (a) the set of connectors achievable by walks from it that
//! end with an `N`-edge, (b) the minimum achievable semantic length of such
//! a walk per reduced first-edge kind, and (c) its out-relationships
//! ordered best-bound-first.
//!
//! ## Admissibility
//!
//! Both tables are closures over *unrestricted walks*, a superset of the
//! simple paths Algorithm 2 enumerates, so they can only be more optimistic
//! than any real completion: the connector of every completion suffix is in
//! the mask, and its semantic length is at least the stored minimum. The
//! tables are built by traversal (a label-correct fixpoint and a Dijkstra
//! over `(class, first-kind)` states), never by a direct Floyd-style
//! recurrence — the Moose algebra is not distributive, and a direct closure
//! may drop exactly the optimum a bound must not exceed (see
//! `ipe_algebra::closure`).
//!
//! The semantic-length Dijkstra is valid because every backward step adds
//! `semlen(g) + junction_adjust(g, f)`, which is never negative: the `-1`
//! junction only fires between two structural runs that each contribute 1.

use crate::tables::{conn_index, kind_index, mask_bits, tables, INVALID};
use ipe_algebra::moose::{junction_adjust, rank, Connector, RelKind};
use ipe_schema::{ClassId, RelId, Schema, Symbol};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel distance for "no walk with this first kind".
pub(crate) const UNREACHED: u16 = u16::MAX;

/// Goal-directed tables for one target relationship name.
#[derive(Debug)]
pub struct GoalTable {
    name: Symbol,
    /// Per class: connectors (as slot bits) of walks ending in a goal edge.
    /// Zero means no such walk exists — the class cannot complete `~name`.
    conn_mask: Vec<u16>,
    /// Per class and reduced first-edge kind: minimum semantic length of a
    /// walk ending in a goal edge, [`UNREACHED`] when none exists.
    semlen_by_first: Vec<[u16; 5]>,
    /// Per class: all out-relationships, best completion bound first.
    ordered_out: Vec<Vec<RelId>>,
}

impl GoalTable {
    /// Builds the table for target name `name` over `schema`.
    pub fn build(schema: &Schema, name: Symbol) -> GoalTable {
        let _t = ipe_obs::timer!("index.goal.build");
        ipe_obs::counter!("index.goal.builds", 1);
        let t = tables();
        let graph = schema.graph();
        let n = schema.class_count();

        // Connector fixpoint, backwards from the goal edges' sources.
        let mut conn_mask = vec![0u16; n];
        let mut queued = vec![false; n];
        let mut worklist: Vec<usize> = Vec::new();
        for &rid in schema.rels_named(name) {
            let rel = schema.rel(rid);
            let bit = 1u16 << conn_index(rel.kind.connector());
            let s = rel.source.index();
            if conn_mask[s] & bit == 0 {
                conn_mask[s] |= bit;
                if !queued[s] {
                    queued[s] = true;
                    worklist.push(s);
                }
            }
        }
        while let Some(u) = worklist.pop() {
            queued[u] = false;
            let mu = conn_mask[u];
            for &eid in graph.in_edge_ids(ipe_graph::NodeId(u as u32)) {
                let edge = graph.edge(eid);
                let v = edge.source.index();
                let g = t.kind_conn[kind_index(edge.weight.kind)] as usize;
                let mut gained = 0u16;
                for c in mask_bits(mu) {
                    let nc = t.compose_idx[g][c];
                    debug_assert_ne!(nc, INVALID);
                    gained |= 1 << nc;
                }
                if conn_mask[v] | gained != conn_mask[v] {
                    conn_mask[v] |= gained;
                    if !queued[v] {
                        queued[v] = true;
                        worklist.push(v);
                    }
                }
            }
        }

        // Semantic-length Dijkstra over (class, first reduced kind) states.
        let mut semlen_by_first = vec![[UNREACHED; 5]; n];
        let mut heap: BinaryHeap<Reverse<(u16, u32, u8)>> = BinaryHeap::new();
        for &rid in schema.rels_named(name) {
            let rel = schema.rel(rid);
            let s = rel.source.index();
            let k = kind_index(rel.kind);
            let d = rel.kind.semantic_length() as u16;
            if d < semlen_by_first[s][k] {
                semlen_by_first[s][k] = d;
                heap.push(Reverse((d, s as u32, k as u8)));
            }
        }
        while let Some(Reverse((d, u, f))) = heap.pop() {
            if d > semlen_by_first[u as usize][f as usize] {
                continue;
            }
            let first = RelKind::ALL[f as usize];
            for &eid in graph.in_edge_ids(ipe_graph::NodeId(u)) {
                let edge = graph.edge(eid);
                let v = edge.source.index();
                let g = edge.weight.kind;
                let step = g.semantic_length() as i64 + junction_adjust(g, first) as i64;
                debug_assert!(step >= 0, "per-step semantic length is never negative");
                let cand = (d as i64 + step).min(UNREACHED as i64 - 1) as u16;
                let gk = kind_index(g);
                if cand < semlen_by_first[v][gk] {
                    semlen_by_first[v][gk] = cand;
                    heap.push(Reverse((cand, v as u32, gk as u8)));
                }
            }
        }

        // Best-bound-first out-edge order. The key of an edge is the most
        // optimistic (rank, semantic length) of a completion starting with
        // it: either the edge is itself a goal edge, or it continues into
        // its target's tables. Hopeless edges sort last with key MAX.
        let mut ordered_out: Vec<Vec<RelId>> = Vec::with_capacity(n);
        for class in schema.classes() {
            let mut rels: Vec<RelId> = graph
                .out_edge_ids(class.0)
                .iter()
                .map(|&e| RelId(e))
                .collect();
            rels.sort_by_key(|&rid| {
                let rel = schema.rel(rid);
                let kind = rel.kind;
                let mut best = u32::MAX;
                if rel.name == name {
                    best = pack(rank(kind.connector()), kind.semantic_length());
                }
                let ti = rel.target.index();
                let g = t.kind_conn[kind_index(kind)] as usize;
                let best_rank = mask_bits(conn_mask[ti])
                    .map(|c| t.rank_of[t.compose_idx[g][c] as usize])
                    .min();
                let best_semlen = (0..5)
                    .filter(|&f| semlen_by_first[ti][f] != UNREACHED)
                    .map(|f| {
                        kind.semantic_length() as i64
                            + junction_adjust(kind, RelKind::ALL[f]) as i64
                            + semlen_by_first[ti][f] as i64
                    })
                    .min();
                if let (Some(r), Some(s)) = (best_rank, best_semlen) {
                    debug_assert!(s >= 0);
                    best = best.min(pack(r, s as u32));
                }
                (
                    best,
                    rank(kind.connector()),
                    kind.semantic_length(),
                    rid.index(),
                )
            });
            ordered_out.push(rels);
        }

        GoalTable {
            name,
            conn_mask,
            semlen_by_first,
            ordered_out,
        }
    }

    /// The target relationship name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// Whether any walk from `v` ends in a goal edge. `false` means
    /// `~name` from `v` provably has no completion.
    pub fn reachable(&self, v: ClassId) -> bool {
        self.conn_mask[v.index()] != 0
    }

    /// Raw connector bitmask of class `v` (slot bits; see `tables`).
    pub fn conn_mask(&self, v: ClassId) -> u16 {
        self.conn_mask[v.index()]
    }

    /// Lower bound on the rank of any completion whose remaining suffix
    /// starts at `v`, given the connector of the path so far (`None` for
    /// the empty prefix). `None` when no completion exists through `v`.
    pub fn best_rank_from(&self, prefix: Option<Connector>, v: ClassId) -> Option<u8> {
        let t = tables();
        let mask = self.conn_mask[v.index()];
        let p = prefix.map(conn_index);
        mask_bits(mask)
            .map(|c| match p {
                Some(p) => t.rank_of[t.compose_idx[p][c] as usize],
                None => t.rank_of[c],
            })
            .min()
    }

    /// Lower bound on the semantic length of any completion whose prefix
    /// has semantic length `prefix_semlen` and last reduced kind `last`
    /// (`None` for the empty prefix) and whose suffix starts at `v`.
    /// `None` when no completion exists through `v`.
    pub fn best_semlen_from(
        &self,
        prefix_semlen: u32,
        last: Option<RelKind>,
        v: ClassId,
    ) -> Option<u32> {
        self.semlen_by_first[v.index()]
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHED)
            .map(|(f, &d)| {
                let adjust = match last {
                    Some(g) => junction_adjust(g, RelKind::ALL[f]) as i64,
                    None => 0,
                };
                (prefix_semlen as i64 + d as i64 + adjust).max(0) as u32
            })
            .min()
    }

    /// Out-relationships of `v`, best completion bound first. Contains
    /// exactly the same edges as the schema's out-edge list.
    pub fn ordered_out(&self, v: ClassId) -> &[RelId] {
        &self.ordered_out[v.index()]
    }
}

/// Packs a (rank, semantic length) bound into one sortable key.
fn pack(rank: u8, semlen: u32) -> u32 {
    ((rank as u32) << 24) | semlen.min(0x00FF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_schema::fixtures;

    #[test]
    fn university_name_goal_table_is_sensible() {
        let schema = fixtures::university();
        let name = schema.symbol("name").unwrap();
        let table = GoalTable::build(&schema, name);
        // `ta` reaches `name` (via Isa chains), primitives never do.
        let ta = schema.class_named("ta").unwrap();
        assert!(table.reachable(ta));
        let primitive = schema
            .classes()
            .find(|&c| schema.is_primitive(c))
            .expect("fixture uses primitives");
        assert!(!table.reachable(primitive), "primitives have no out-edges");
        // The empty-prefix rank bound from `ta` is the strongest: the best
        // completion `ta@>…@>person.name` has connector `.` (rank 2), and
        // no stronger connector can end in an Assoc-kind attribute edge.
        assert_eq!(table.best_rank_from(None, ta), Some(2));
        // Both optimal completions have semantic length 1.
        assert_eq!(table.best_semlen_from(0, None, ta), Some(1));
    }

    #[test]
    fn ordered_out_is_a_permutation_of_the_out_edges() {
        let schema = fixtures::university();
        let name = schema.symbol("name").unwrap();
        let table = GoalTable::build(&schema, name);
        for class in schema.classes() {
            let mut a: Vec<RelId> = table.ordered_out(class).to_vec();
            let mut b: Vec<RelId> = schema.out_rels(class).map(|r| r.id).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "class {}", schema.class_name(class));
        }
    }

    #[test]
    fn direct_attribute_edge_sorts_first() {
        let schema = fixtures::university();
        let name = schema.symbol("name").unwrap();
        let table = GoalTable::build(&schema, name);
        // `person` owns a `name` attribute; it must lead the order.
        let person = schema.class_named("person").unwrap();
        let first = table.ordered_out(person)[0];
        assert_eq!(schema.rel_name(first), "name");
    }

    #[test]
    fn unknown_targets_yield_empty_tables() {
        let schema = fixtures::university();
        // Build against a symbol no relationship carries: some class name
        // that never names an edge.
        let sym = schema
            .classes()
            .map(|c| schema.class(c).name)
            .find(|&s| schema.rels_named(s).is_empty())
            .expect("some class name is not a relationship name");
        let table = GoalTable::build(&schema, sym);
        for class in schema.classes() {
            assert!(!table.reachable(class));
            assert_eq!(table.best_rank_from(None, class), None);
            assert_eq!(table.best_semlen_from(0, None, class), None);
        }
    }
}
