//! The three workloads: their fixed inputs (schemas, planted queries, data
//! knobs) and their seeded request sequences.
//!
//! Everything here is pure and deterministic. The schemas and data are the
//! same for every seed; `--seed` only decides the order and mix of the
//! requests, so runs with different seeds measure the same system on
//! different traffic of the same shape.

use ipe_gen::{cupid_like, generate_workload, WorkloadConfig};
use ipe_index::{IndexMode, IndexedSchema};
use ipe_schema::Schema;
use std::sync::Arc;

/// Registry name every workload uploads the CUPID-calibrated schema under.
pub const SCHEMA_NAME: &str = "cupid";
/// Generator seed of the CUPID-calibrated schema (the paper's year, as in
/// the experiment binaries).
pub const CUPID_SEED: u64 = 1994;
/// Connections (and load threads) of the read workloads, capped by `nproc`.
pub const CONNECTIONS: usize = 2;
/// Requests each `complete_hot` connection keeps in flight.
pub const HOT_WINDOW: usize = 32;
/// Zipf exponent of the `complete_hot` key popularity.
pub const HOT_ZIPF_S: f64 = 1.0;
/// Seed of the fixed popularity ranking of the hot pool.
pub const HOT_RANKING_SEED: u64 = 31;
/// `E` values the hot pool mixes.
pub const HOT_E: [u64; 3] = [1, 2, 3];
/// `E` of every `complete_cold` request.
pub const COLD_E: u64 = 2;
/// `E` values of the `query_eval` pool.
pub const QUERY_E: [u64; 2] = [1, 3];
/// Objects per class of the `query_eval` instance.
pub const DATA_OBJECTS: u64 = 80;
/// Links per relationship of the `query_eval` instance.
pub const DATA_LINKS: u64 = 120;
/// Generator seed of the `query_eval` instance.
pub const DATA_SEED: u64 = 11;
/// Length of each per-connection key sequence; connections cycle through
/// it when a run outlasts it.
pub const SEQ_LEN: usize = 1 << 16;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined, Zipf-skewed completions over a pool that fits the cache.
    CompleteHot,
    /// Depth-1 completions walking every resolvable `root~target` pair once.
    CompleteCold,
    /// Depth-1 provenance queries against a generated instance.
    QueryEval,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CompleteHot,
        Workload::CompleteCold,
        Workload::QueryEval,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompleteHot => "complete_hot",
            Workload::CompleteCold => "complete_cold",
            Workload::QueryEval => "query_eval",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The read route the workload measures.
    pub fn read_path(self) -> &'static str {
        match self {
            Workload::QueryEval => "/v1/query",
            _ => "/v1/complete",
        }
    }

    /// Requests each connection keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::CompleteHot => HOT_WINDOW,
            _ => 1,
        }
    }

    /// Whether the server runs with a data directory and `--fsync always`,
    /// so that the schema upload goes through the store.
    pub fn durable(self) -> bool {
        self == Workload::QueryEval
    }
}

/// SplitMix64: a tiny, fully specified generator, so a request sequence
/// depends on the seed and this file only.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One read request of a workload's pool.
#[derive(Clone, Debug)]
pub struct ReadKey {
    /// Registry name the request targets.
    pub schema: String,
    /// The incomplete path expression.
    pub query: String,
    /// The `E` dial.
    pub e: u64,
    /// The JSON request body.
    pub body: String,
}

impl ReadKey {
    fn new(schema: &str, query: &str, e: u64) -> ReadKey {
        ReadKey {
            schema: schema.to_owned(),
            query: query.to_owned(),
            e,
            body: format!("{{\"schema\":\"{schema}\",\"query\":\"{query}\",\"e\":{e}}}"),
        }
    }
}

/// The seed-independent inputs every workload draws from.
pub struct Fixture {
    /// The CUPID-calibrated schema ([`CUPID_SEED`]).
    pub cupid: Arc<Schema>,
    /// Its JSON, the body of the setup `PUT`.
    pub cupid_json: String,
    /// The planted `root~target` queries of the paper's experiment setup.
    pub planted: Vec<String>,
}

impl Fixture {
    /// Generates the fixture. Costs a few milliseconds.
    pub fn new() -> Fixture {
        let gen = cupid_like(CUPID_SEED);
        let planted = generate_workload(
            &gen,
            &WorkloadConfig {
                seed: CUPID_SEED + 1,
                ..Default::default()
            },
        )
        .into_iter()
        .map(|q| q.expr)
        .collect();
        let cupid_json = gen.schema.to_json();
        Fixture {
            cupid: Arc::new(gen.schema),
            cupid_json,
            planted,
        }
    }
}

impl Default for Fixture {
    fn default() -> Fixture {
        Fixture::new()
    }
}

/// `complete_hot`'s pool: every planted query at each of [`HOT_E`], plus
/// `ta~name` on the built-in `default` schema.
pub fn hot_pool(fx: &Fixture) -> Vec<ReadKey> {
    let mut pool: Vec<ReadKey> = fx
        .planted
        .iter()
        .flat_map(|q| HOT_E.iter().map(move |&e| ReadKey::new(SCHEMA_NAME, q, e)))
        .collect();
    pool.push(ReadKey::new("default", "ta~name", 1));
    pool
}

/// `complete_cold`'s pool: every `root~target` pair of the schema whose
/// target name some class reachable from the root carries, at [`COLD_E`].
/// Built from the closure index, in schema order.
pub fn cold_pool(schema: &Schema, index: &IndexedSchema) -> Vec<ReadKey> {
    let mut names: Vec<&str> = schema.rels().map(|r| schema.rel_name(r)).collect();
    names.sort_unstable();
    names.dedup();
    let mut pool = Vec::new();
    for root in schema.classes().filter(|&c| !schema.is_primitive(c)) {
        for &name in &names {
            let Some(sym) = schema.symbol(name) else {
                continue;
            };
            let resolvable = index
                .sources_of(sym)
                .iter()
                .any(|&src| src == root || index.reachable(root, src));
            if resolvable {
                let expr = format!("{}~{name}", schema.class_name(root));
                pool.push(ReadKey::new(SCHEMA_NAME, &expr, COLD_E));
            }
        }
    }
    pool
}

/// Builds the eager index the server builds for `schema`.
pub fn build_index(schema: &Schema) -> IndexedSchema {
    IndexedSchema::build(schema, IndexMode::On)
}

/// `query_eval`'s pool: every planted query at each of [`QUERY_E`].
pub fn query_pool(fx: &Fixture) -> Vec<ReadKey> {
    fx.planted
        .iter()
        .flat_map(|q| {
            QUERY_E
                .iter()
                .map(move |&e| ReadKey::new(SCHEMA_NAME, q, e))
        })
        .collect()
}

/// The `PUT /v1/data/cupid` body of `query_eval`.
pub fn data_body() -> String {
    format!(
        "{{\"gen\":{{\"objects_per_class\":{DATA_OBJECTS},\"links_per_rel\":{DATA_LINKS},\"seed\":{DATA_SEED}}}}}"
    )
}

/// Where each connection takes its next key from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyOrder {
    /// Each connection cycles through its own sequence of pool indices.
    PerConnection(Vec<Vec<u32>>),
    /// All connections draw, in turn, from one shared order that walks
    /// every key once before repeating.
    Shared(Vec<u32>),
}

/// The seeded order in which `workload`'s connections visit a pool of
/// `pool_len` keys.
pub fn key_order(workload: Workload, pool_len: usize, seed: u64, conns: usize) -> KeyOrder {
    let mut rng = Rng::new(seed ^ 0x5EED_0000_0000_0000 ^ workload as u64);
    match workload {
        Workload::CompleteCold => {
            let mut order: Vec<u32> = (0..pool_len as u32).collect();
            rng.shuffle(&mut order);
            KeyOrder::Shared(order)
        }
        Workload::CompleteHot => {
            // Zipf popularity over a fixed ranking of the pool: the seed
            // draws the sequence, never which keys are popular, so every
            // seed asks for the same mix of response sizes.
            let mut rank_to_key: Vec<u32> = (0..pool_len as u32).collect();
            Rng::new(HOT_RANKING_SEED).shuffle(&mut rank_to_key);
            let mut cdf = Vec::with_capacity(pool_len);
            let mut total = 0.0;
            for rank in 1..=pool_len {
                total += 1.0 / (rank as f64).powf(HOT_ZIPF_S);
                cdf.push(total);
            }
            let seqs = (0..conns)
                .map(|_| {
                    (0..SEQ_LEN)
                        .map(|_| {
                            let u = rng.unit() * total;
                            let rank = cdf.partition_point(|&c| c <= u).min(pool_len - 1);
                            rank_to_key[rank]
                        })
                        .collect()
                })
                .collect();
            KeyOrder::PerConnection(seqs)
        }
        Workload::QueryEval => {
            // Rounds that each visit every key once, in a seeded order: a
            // few heavy keys dominate the pool's cost, and rounds keep
            // their share of any stretch of the run fixed.
            let seqs = (0..conns)
                .map(|_| {
                    let mut seq = Vec::with_capacity(SEQ_LEN + pool_len);
                    while seq.len() < SEQ_LEN {
                        let mut round: Vec<u32> = (0..pool_len as u32).collect();
                        rng.shuffle(&mut round);
                        seq.extend(round);
                    }
                    seq
                })
                .collect();
            KeyOrder::PerConnection(seqs)
        }
    }
}

/// The HTTP/1.1 bytes of one request.
pub fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The first `n` pool indices of `order`, taking connections in turn.
pub fn interleaved_keys(order: &KeyOrder, n: usize) -> Vec<u32> {
    match order {
        KeyOrder::Shared(keys) => keys.iter().copied().cycle().take(n).collect(),
        KeyOrder::PerConnection(seqs) => (0..n)
            .map(|i| {
                let seq = &seqs[i % seqs.len()];
                seq[(i / seqs.len()) % seq.len()]
            })
            .collect(),
    }
}
