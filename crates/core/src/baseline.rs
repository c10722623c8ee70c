//! A naive baseline completer: rank by hop count, ignore relationship
//! semantics.
//!
//! The paper's central claim is that the *kind* structure of the schema
//! (the connector order plus semantic length) is what makes completions
//! match human intent — mere graph proximity does not. This baseline is the
//! ablation of that claim: it returns the consistent acyclic completions
//! with the fewest edges, treating every relationship identically. The
//! comparison harness (`ipe-bench`, `baseline_compare`) measures how much
//! precision that costs on planted workloads.

use crate::config::CompletionConfig;
use crate::error::CompleteError;
use crate::exhaustive::all_consistent;
use crate::path::Completion;
use ipe_schema::{ClassId, Schema};

/// Hop-count baseline completer.
pub struct HopBaseline<'s> {
    schema: &'s Schema,
    config: CompletionConfig,
}

impl<'s> HopBaseline<'s> {
    /// A baseline over `schema` returning only minimal-hop completions.
    pub fn new(schema: &'s Schema) -> Self {
        HopBaseline {
            schema,
            config: CompletionConfig::default(),
        }
    }

    /// Caps enumeration (depth and result count) via an engine config.
    pub fn with_config(mut self, config: CompletionConfig) -> Self {
        self.config = config;
        self
    }

    /// All consistent acyclic completions of `root ~ name` of the minimum
    /// length.
    pub fn complete(&self, root: ClassId, name: &str) -> Result<Vec<Completion>, CompleteError> {
        ipe_obs::counter!("core.baseline.queries", 1);
        let mut all = all_consistent(self.schema, root, name, &self.config)?;
        let Some(min) = all.iter().map(|c| c.len()).min() else {
            return Ok(Vec::new());
        };
        all.retain(|c| c.len() == min);
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Completer;
    use ipe_parser::parse_path_expression;
    use ipe_schema::fixtures;

    #[test]
    fn baseline_returns_minimal_hop_paths() {
        let schema = fixtures::university();
        let ta = schema.class_named("ta").unwrap();
        let base = HopBaseline::new(&schema);
        let out = base.complete(ta, "name").unwrap();
        assert!(!out.is_empty());
        let min = out[0].len();
        assert!(out.iter().all(|c| c.len() == min));
    }

    #[test]
    fn baseline_disagrees_with_the_algebra_on_the_flagship_example() {
        // `ta ~ name`: at 4 hops the baseline lumps the intended reading
        // together with the course-name and department-name junk readings
        // (precision 1/4), and misses the 5-edge intended instructor chain
        // entirely (recall 1/2). The semantics-aware engine returns exactly
        // the two intended readings.
        let schema = fixtures::university();
        let ta = schema.class_named("ta").unwrap();
        let base = HopBaseline::new(&schema);
        let hops = base.complete(ta, "name").unwrap();
        let engine = Completer::new(&schema);
        let smart = engine
            .complete(&parse_path_expression("ta~name").unwrap())
            .unwrap();
        let hop_texts: Vec<String> = hops
            .iter()
            .map(|c| c.display(&schema).to_string())
            .collect();
        let smart_texts: Vec<String> = smart
            .iter()
            .map(|c| c.display(&schema).to_string())
            .collect();
        // Junk at minimal hop count.
        assert!(
            hop_texts.contains(&"ta@>grad@>student.take.name".to_string()),
            "{hop_texts:?}"
        );
        // The longer intended reading is beyond the baseline's horizon.
        let instructor_chain = "ta@>instructor@>teacher@>employee@>person.name".to_string();
        assert!(!hop_texts.contains(&instructor_chain), "{hop_texts:?}");
        assert!(smart_texts.contains(&instructor_chain));
        assert_eq!(smart_texts.len(), 2);
        assert!(hop_texts.len() > 2, "baseline admits junk: {hop_texts:?}");
    }

    #[test]
    fn unknown_target_errors() {
        let schema = fixtures::university();
        let ta = schema.class_named("ta").unwrap();
        assert!(HopBaseline::new(&schema).complete(ta, "zzz").is_err());
    }
}
