//! Precomputed schema closure index.
//!
//! The paper frames disambiguation as "an optimal path computation (in the
//! transitive closure sense)" and notes that all-pairs results can be
//! precomputed per schema. This crate does exactly that, per schema
//! generation:
//!
//! * a name → source-classes segment-resolution map;
//! * a class-pair reachability bitmatrix with, per pair, the achievable
//!   connector set and the minimum achievable semantic length;
//! * per target name, a [`GoalTable`]: admissible lower bounds on the rank
//!   and semantic length of any completion suffix, plus a
//!   best-bound-first out-edge order.
//!
//! All tables are *admissible*: computed over unrestricted walks (a
//! superset of the simple paths the engine enumerates) via traversal-based
//! closure, so they never exceed the true optimum Algorithm 2 finds — the
//! Moose algebra's non-distributivity makes direct (Floyd-style) closure
//! unsound for this purpose (see `ipe_algebra::closure`). The engine uses
//! them to reject unreachable `~` segments outright, to cut subtrees whose
//! most optimistic completion is already AGG*-dominated, and to expand
//! promising successors first. See DESIGN.md §12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod goal;
mod tables;

pub use goal::GoalTable;

use ipe_algebra::moose::{junction_adjust, RelKind};
use ipe_schema::{ClassId, Schema, Symbol};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, RwLock};
use tables::{kind_index, tables, INVALID};

/// How a service or CLI uses the index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexMode {
    /// Build everything eagerly (pair matrices plus a goal table per
    /// relationship name).
    #[default]
    On,
    /// Build pair matrices eagerly; goal tables on first use per name.
    Lazy,
    /// No index: pure Algorithm-2 search.
    Off,
}

impl IndexMode {
    /// Parses `on` / `lazy` / `off`.
    pub fn parse(s: &str) -> Option<IndexMode> {
        match s {
            "on" => Some(IndexMode::On),
            "lazy" => Some(IndexMode::Lazy),
            "off" => Some(IndexMode::Off),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`parse`](IndexMode::parse).
    pub fn as_str(self) -> &'static str {
        match self {
            IndexMode::On => "on",
            IndexMode::Lazy => "lazy",
            IndexMode::Off => "off",
        }
    }
}

/// Shared handle to a built index, as attached to completion engines.
pub type SearchIndex = Arc<IndexedSchema>;

/// The sentinel stored in the pair semantic-length matrix for "no walk".
const PAIR_UNREACHED: u16 = u16::MAX;

/// The precomputed closure index of one schema generation.
///
/// Immutable once built except for the lazily grown goal-table cache,
/// which is internally synchronized — the whole structure is shared across
/// request threads behind an [`Arc`] (see [`SearchIndex`]).
pub struct IndexedSchema {
    class_count: usize,
    rel_count: usize,
    /// Row-major `n × n` connector bitmasks over walks of ≥ 1 edge;
    /// zero means unreachable.
    pair_conn: Vec<u16>,
    /// Row-major `n × n` minimum semantic lengths over walks of ≥ 1 edge.
    pair_semlen: Vec<u16>,
    /// Relationship name → classes with an out-edge of that name.
    name_sources: HashMap<Symbol, Vec<ClassId>>,
    /// Lazily grown per-name goal tables.
    goals: RwLock<HashMap<Symbol, Arc<GoalTable>>>,
}

impl std::fmt::Debug for IndexedSchema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedSchema")
            .field("class_count", &self.class_count)
            .field("rel_count", &self.rel_count)
            .field("goal_count", &self.goal_count())
            .finish_non_exhaustive()
    }
}

impl IndexedSchema {
    /// Builds the index for `schema`. With [`IndexMode::On`] every
    /// relationship name gets its goal table eagerly; with
    /// [`IndexMode::Lazy`] goal tables are built on first use.
    pub fn build(schema: &Schema, mode: IndexMode) -> IndexedSchema {
        let _t = ipe_obs::timer!("index.build");
        ipe_obs::counter!("index.builds", 1);
        let n = schema.class_count();
        let mut pair_conn = vec![0u16; n * n];
        let mut pair_semlen = vec![PAIR_UNREACHED; n * n];
        for a in schema.classes() {
            let row = a.index() * n;
            forward_closure(
                schema,
                a,
                &mut pair_conn[row..row + n],
                &mut pair_semlen[row..row + n],
            );
        }
        let mut index = IndexedSchema {
            class_count: n,
            rel_count: schema.rel_count(),
            pair_conn,
            pair_semlen,
            name_sources: name_sources(schema),
            goals: RwLock::new(HashMap::new()),
        };
        if mode == IndexMode::On {
            let names: Vec<Symbol> = {
                let mut v: Vec<Symbol> = index.name_sources.keys().copied().collect();
                v.sort();
                v
            };
            let mut goals = HashMap::with_capacity(names.len());
            for name in names {
                goals.insert(name, Arc::new(GoalTable::build(schema, name)));
            }
            index.goals = RwLock::new(goals);
        }
        index
    }

    /// Whether this index was built from a schema shaped like `schema`.
    /// Cheap structural check used before attaching to an engine.
    pub fn matches(&self, schema: &Schema) -> bool {
        self.class_count == schema.class_count() && self.rel_count == schema.rel_count()
    }

    /// Class count of the indexed schema.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Relationship count of the indexed schema.
    pub fn rel_count(&self) -> usize {
        self.rel_count
    }

    /// Classes with an out-relationship named `name`.
    pub fn sources_of(&self, name: Symbol) -> &[ClassId] {
        self.name_sources
            .get(&name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether any walk of ≥ 1 edge leads from `a` to `b`.
    pub fn reachable(&self, a: ClassId, b: ClassId) -> bool {
        self.pair_conn[a.index() * self.class_count + b.index()] != 0
    }

    /// Connector bitmask (slot bits) over all walks `a → b`.
    pub fn pair_conn_mask(&self, a: ClassId, b: ClassId) -> u16 {
        self.pair_conn[a.index() * self.class_count + b.index()]
    }

    /// Minimum semantic length over all walks `a → b`, `None` when
    /// unreachable.
    pub fn pair_min_semlen(&self, a: ClassId, b: ClassId) -> Option<u32> {
        let d = self.pair_semlen[a.index() * self.class_count + b.index()];
        (d != PAIR_UNREACHED).then_some(d as u32)
    }

    /// The goal table for target name `name`, building and caching it on
    /// demand. `None` when no relationship carries that name.
    pub fn goal(&self, schema: &Schema, name: Symbol) -> Option<Arc<GoalTable>> {
        if let Some(t) = self.goals.read().expect("index poisoned").get(&name) {
            return Some(t.clone());
        }
        if schema.rels_named(name).is_empty() {
            return None;
        }
        let built = Arc::new(GoalTable::build(schema, name));
        let mut goals = self.goals.write().expect("index poisoned");
        Some(goals.entry(name).or_insert(built).clone())
    }

    /// Number of goal tables currently built.
    pub fn goal_count(&self) -> usize {
        self.goals.read().expect("index poisoned").len()
    }
}

fn name_sources(schema: &Schema) -> HashMap<Symbol, Vec<ClassId>> {
    let mut map: HashMap<Symbol, Vec<ClassId>> = HashMap::new();
    for rid in schema.rels() {
        let rel = schema.rel(rid);
        let sources = map.entry(rel.name).or_default();
        if !sources.contains(&rel.source) {
            sources.push(rel.source);
        }
    }
    for sources in map.values_mut() {
        sources.sort();
    }
    map
}

/// Single-source forward closure over walks: fills `conn_row[v]` with the
/// connector set of all walks `a → v` (≥ 1 edge) and `semlen_row[v]` with
/// their minimum semantic length. Traversal-based (fixpoint + Dijkstra over
/// `(class, last-kind)` states), mirroring the backward construction in
/// [`goal`].
fn forward_closure(schema: &Schema, a: ClassId, conn_row: &mut [u16], semlen_row: &mut [u16]) {
    let t = tables();
    let graph = schema.graph();
    let n = schema.class_count();

    // Connector fixpoint.
    let mut queued = vec![false; n];
    let mut worklist: Vec<usize> = Vec::new();
    for &eid in graph.out_edge_ids(a.0) {
        let edge = graph.edge(eid);
        let w = edge.target.index();
        let bit = 1u16 << t.kind_conn[kind_index(edge.weight.kind)];
        if conn_row[w] & bit == 0 {
            conn_row[w] |= bit;
            if !queued[w] {
                queued[w] = true;
                worklist.push(w);
            }
        }
    }
    while let Some(v) = worklist.pop() {
        queued[v] = false;
        let mv = conn_row[v];
        for &eid in graph.out_edge_ids(ipe_graph::NodeId(v as u32)) {
            let edge = graph.edge(eid);
            let w = edge.target.index();
            let k = t.kind_conn[kind_index(edge.weight.kind)] as usize;
            let mut gained = 0u16;
            for c in tables::mask_bits(mv) {
                let nc = t.compose_idx[c][k];
                debug_assert_ne!(nc, INVALID);
                gained |= 1 << nc;
            }
            if conn_row[w] | gained != conn_row[w] {
                conn_row[w] |= gained;
                if !queued[w] {
                    queued[w] = true;
                    worklist.push(w);
                }
            }
        }
    }

    // Semantic-length Dijkstra over (class, last reduced kind) states.
    let mut dist = vec![[PAIR_UNREACHED; 5]; n];
    let mut heap: BinaryHeap<Reverse<(u16, u32, u8)>> = BinaryHeap::new();
    for &eid in graph.out_edge_ids(a.0) {
        let edge = graph.edge(eid);
        let w = edge.target.index();
        let k = kind_index(edge.weight.kind);
        let d = edge.weight.kind.semantic_length() as u16;
        if d < dist[w][k] {
            dist[w][k] = d;
            heap.push(Reverse((d, w as u32, k as u8)));
        }
    }
    while let Some(Reverse((d, v, g))) = heap.pop() {
        if d > dist[v as usize][g as usize] {
            continue;
        }
        let last = RelKind::ALL[g as usize];
        for &eid in graph.out_edge_ids(ipe_graph::NodeId(v)) {
            let edge = graph.edge(eid);
            let w = edge.target.index();
            let k = edge.weight.kind;
            let step = k.semantic_length() as i64 + junction_adjust(last, k) as i64;
            debug_assert!(step >= 0, "per-step semantic length is never negative");
            let cand = (d as i64 + step).min(PAIR_UNREACHED as i64 - 1) as u16;
            let kk = kind_index(k);
            if cand < dist[w][kk] {
                dist[w][kk] = cand;
                heap.push(Reverse((cand, w as u32, kk as u8)));
            }
        }
    }
    for (v, row) in dist.iter().enumerate() {
        semlen_row[v] = *row.iter().min().expect("five kinds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_algebra::moose::{Connector, Label};
    use ipe_schema::fixtures;

    #[test]
    fn parse_round_trips_modes() {
        for m in [IndexMode::On, IndexMode::Lazy, IndexMode::Off] {
            assert_eq!(IndexMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(IndexMode::parse("never"), None);
    }

    #[test]
    fn eager_build_indexes_every_relationship_name() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::On);
        let distinct: std::collections::HashSet<Symbol> =
            schema.rels().map(|r| schema.rel(r).name).collect();
        assert_eq!(index.goal_count(), distinct.len());
        assert!(index.matches(&schema));
    }

    #[test]
    fn lazy_build_defers_goal_tables() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::Lazy);
        assert_eq!(index.goal_count(), 0);
        let name = schema.symbol("name").unwrap();
        let g1 = index.goal(&schema, name).unwrap();
        assert_eq!(index.goal_count(), 1);
        let g2 = index.goal(&schema, name).unwrap();
        assert!(Arc::ptr_eq(&g1, &g2), "second lookup hits the cache");
    }

    #[test]
    fn pair_reachability_matches_hand_checks() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::Lazy);
        let ta = schema.class_named("ta").unwrap();
        let person = schema.class_named("person").unwrap();
        assert!(index.reachable(ta, person), "ta @>… person");
        // Inverse relationships make the graph symmetric for user classes:
        // person <@ … <@ ta also exists.
        assert!(index.reachable(person, ta), "person <@… ta via inverses");
        // The pure-Isa walk up has semantic length 0.
        assert_eq!(index.pair_min_semlen(ta, person), Some(0));
        // Primitives have no out-edges at all.
        let primitive = schema
            .classes()
            .find(|&c| schema.is_primitive(c))
            .expect("fixture uses primitives");
        for c in schema.classes() {
            assert!(!index.reachable(primitive, c));
        }
    }

    /// Every pair bound is consistent with a concrete walk label: the
    /// Isa-chain walk ta @> grad @> student has connector `@>` and
    /// semantic length 0, which the matrices must not exceed.
    #[test]
    fn pair_bounds_are_admissible_for_a_known_walk() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::Lazy);
        let ta = schema.class_named("ta").unwrap();
        let student = schema.class_named("student").unwrap();
        let walk = Label::of_kinds(&[RelKind::Isa, RelKind::Isa]);
        assert_eq!(walk.connector, Connector::ISA);
        let mask = index.pair_conn_mask(ta, student);
        assert_ne!(mask & (1 << crate::tables::conn_index(walk.connector)), 0);
        assert!(index.pair_min_semlen(ta, student).unwrap() <= walk.semlen);
    }

    #[test]
    fn sources_of_lists_owning_classes() {
        let schema = fixtures::university();
        let index = IndexedSchema::build(&schema, IndexMode::Lazy);
        let name = schema.symbol("name").unwrap();
        let sources = index.sources_of(name);
        assert!(!sources.is_empty());
        for &s in sources {
            assert!(schema.out_rel_named(s, name).is_some());
        }
    }
}
