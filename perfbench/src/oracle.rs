//! In-process oracles: the answers the server must give, computed by
//! calling the engine crates directly, and the comparisons that check a
//! response body against them.

use crate::workload::ReadKey;
use ipe_core::{Completer, SearchLimits, SearchOutcome};
use ipe_index::SearchIndex;
use ipe_oodb::Database;
use ipe_parser::parse_path_expression;
use ipe_query::{evaluate_completions, Answer};
use ipe_schema::Schema;
use ipe_service::{CompleteRequest, CompleteResponse, CompletionView};
use serde::Value;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One answer of a query response, as the oracle compares it:
/// `(certain, "o:<id>" | "v:<value>")`.
pub type AnswerKey = (bool, String);

/// The engine over one schema with the index the server builds for it.
pub struct Oracle {
    /// The schema.
    pub schema: Arc<Schema>,
    index: SearchIndex,
    /// Test hook: make every answer this oracle gives wrong.
    pub corrupt: bool,
}

impl Oracle {
    /// An oracle over `schema`, building its eager index.
    pub fn new(schema: Arc<Schema>, corrupt: bool) -> Oracle {
        let index = Arc::new(crate::workload::build_index(&schema));
        Oracle {
            schema,
            index,
            corrupt,
        }
    }

    /// The index the oracle searches with.
    pub fn index(&self) -> &ipe_index::IndexedSchema {
        &self.index
    }

    /// Completes `key` exactly as the server's cache-miss path does:
    /// same request decoding, same configuration, same index.
    pub fn complete(&self, key: &ReadKey) -> Result<SearchOutcome, String> {
        let req: CompleteRequest =
            serde_json::from_str(&key.body).map_err(|e| format!("{}: {e}", key.body))?;
        let cfg = req.config(&self.schema)?;
        let ast = parse_path_expression(&key.query).map_err(|e| e.to_string())?;
        let mut engine = Completer::with_config(&self.schema, cfg);
        engine.attach_index(Arc::clone(&self.index));
        engine
            .complete_bounded(&ast, &SearchLimits::default())
            .map_err(|e| format!("{}: {e}", key.query))
    }

    /// The completion texts of `outcome`, best first.
    pub fn texts(&self, outcome: &SearchOutcome) -> Vec<String> {
        let mut texts: Vec<String> = outcome
            .completions
            .iter()
            .map(|c| c.display(&self.schema).to_string())
            .collect();
        if self.corrupt {
            texts.push("#corrupted".to_owned());
        }
        texts
    }

    /// The `POST /v1/complete` body the server must send for `key` at
    /// schema `generation`, with `cached: false` and `duration_ns: 0`.
    pub fn complete_body(&self, key: &ReadKey, generation: u64) -> Result<String, String> {
        let outcome = self.complete(key)?;
        let query = parse_path_expression(&key.query)
            .map_err(|e| e.to_string())?
            .to_string();
        let completions = outcome
            .completions
            .iter()
            .map(|c| CompletionView {
                text: c.display(&self.schema).to_string(),
                connector: c.label.connector.to_string(),
                semlen: c.label.semlen as u64,
                edges: c.edges.len() as u64,
            })
            .collect();
        let response = CompleteResponse {
            schema: key.schema.clone(),
            generation,
            query,
            cached: false,
            duration_ns: 0,
            completions,
            stats: outcome.stats,
        };
        let body = serde_json::to_string(&response).map_err(|e| e.to_string())?;
        Ok(if self.corrupt {
            body.replacen("\"text\":\"", "\"text\":\"#", 1)
        } else {
            body
        })
    }

    /// The certain and possible answers of `key` over `db`, as the
    /// server's query path merges them.
    pub fn answers(&self, key: &ReadKey, db: &Database) -> Result<BTreeSet<AnswerKey>, String> {
        let outcome = self.complete(key)?;
        let merged = evaluate_completions(db, &outcome.completions, &Default::default())
            .map_err(|e| format!("{}: {e}", key.query))?;
        let mut set: BTreeSet<AnswerKey> = merged
            .answers
            .iter()
            .map(|a| {
                let id = match &a.answer {
                    Answer::Object(o) => format!("o:{}", o.0),
                    Answer::Value(v) => format!("v:{v}"),
                };
                (a.certain, id)
            })
            .collect();
        if self.corrupt {
            set.insert((true, "v:#corrupted".to_owned()));
        }
        Ok(set)
    }
}

/// Splits a completion or query response around its two volatile fields,
/// `"cached":…,"duration_ns":N`: the bytes before and after them.
pub fn split_volatile(body: &[u8]) -> Option<(&[u8], &[u8])> {
    const CACHED: &[u8] = b"\"cached\":";
    const DURATION: &[u8] = b"\"duration_ns\":";
    let at = find(body, CACHED)?;
    let dur = at + find(&body[at..], DURATION)? + DURATION.len();
    let digits = body[dur..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    Some((&body[..at], &body[dur + digits..]))
}

/// Whether two bodies are byte-identical apart from `cached` and
/// `duration_ns`.
pub fn same_modulo_volatile(a: &[u8], b: &[u8]) -> bool {
    match (split_volatile(a), split_volatile(b)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    serde_json::parse_value_text(text).map_err(|e| format!("bad JSON body: {e:?}"))
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("response lacks `{key}`"))
}

/// The `"generation"` a response carries, found without parsing the JSON.
pub fn scan_generation(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"generation\":";
    let at = find(body, KEY)? + KEY.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// A response without its volatile fields, still valid JSON.
pub fn stable_form(body: &[u8]) -> Vec<u8> {
    match split_volatile(body) {
        Some((head, tail)) => [head, tail.strip_prefix(b",").unwrap_or(tail)].concat(),
        None => body.to_vec(),
    }
}

/// The completion texts of a response, in order.
pub fn texts_of(body: &[u8]) -> Result<Vec<String>, String> {
    let v = parse(body)?;
    let Value::Seq(items) = field(&v, "completions")? else {
        return Err("completions is not an array".to_owned());
    };
    items
        .iter()
        .map(|item| match field(item, "text")? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err("completion text is not a string".to_owned()),
        })
        .collect()
}

/// The answers of a query response.
pub fn answers_of(body: &[u8]) -> Result<BTreeSet<AnswerKey>, String> {
    let v = parse(body)?;
    let Value::Seq(items) = field(&v, "answers")? else {
        return Err("answers is not an array".to_owned());
    };
    items
        .iter()
        .map(|a| {
            let certain = matches!(field(a, "certain")?, Value::Bool(true));
            let id = match (a.get("object"), a.get("value")) {
                (Some(o), None) => format!(
                    "o:{}",
                    crate::server::as_f64(o).ok_or("object id is not a number")? as u64
                ),
                (None, Some(Value::Str(s))) => format!("v:{s}"),
                _ => return Err("answer is neither an object nor a value".to_owned()),
            };
            Ok((certain, id))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatile_fields_are_ignored_and_nothing_else() {
        let a = br#"{"q":"x","cached":false,"duration_ns":8123,"completions":[1]}"#;
        let b = br#"{"q":"x","cached":true,"duration_ns":95,"completions":[1]}"#;
        let c = br#"{"q":"x","cached":true,"duration_ns":95,"completions":[2]}"#;
        assert!(same_modulo_volatile(a, b));
        assert!(!same_modulo_volatile(a, c));
        assert!(!same_modulo_volatile(b"{}", b"{}"));
        assert_eq!(stable_form(b), br#"{"q":"x","completions":[1]}"#);
        assert_eq!(scan_generation(br#"{"generation":17,"x":1}"#), Some(17));
    }
}
