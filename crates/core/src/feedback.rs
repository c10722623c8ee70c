//! Learning domain knowledge from user feedback.
//!
//! Section 7 of the paper: "the introduction of learning techniques based
//! on user feedback is a promising mechanism to acquire arbitrary
//! domain-specific and even user-specific knowledge". Section 5 showed that
//! the single most valuable piece of domain knowledge is a list of classes
//! that should never appear in completions (auxiliary hub classes).
//!
//! [`FeedbackStore`] implements exactly that acquisition loop: every time
//! the user approves or rejects a proposed completion (the approval step of
//! Figure 1), the store updates per-class evidence; classes that keep
//! appearing in rejected completions and (almost) never in approved ones
//! become exclusion suggestions, which can be fed straight back into
//! [`crate::CompletionConfig::excluded_classes`].

use crate::path::Completion;
use ipe_schema::{ClassId, Schema};

/// The user's verdict on one proposed completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The completion matches what the user meant.
    Approved,
    /// The completion is not what the user meant.
    Rejected,
}

/// Per-class evidence counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassEvidence {
    /// Times the class appeared strictly inside an approved completion.
    pub approved: u64,
    /// Times the class appeared strictly inside a rejected completion.
    pub rejected: u64,
}

/// Accumulates user verdicts and derives exclusion suggestions.
///
/// Only *interior* classes of a path are counted: the root is the user's
/// own choice and the final class is pinned by the target name, so neither
/// carries evidence about plausibility of the route.
#[derive(Clone, Debug)]
pub struct FeedbackStore {
    evidence: Vec<ClassEvidence>,
}

/// Thresholds for [`FeedbackStore::suggest_exclusions`].
#[derive(Clone, Copy, Debug)]
pub struct SuggestionPolicy {
    /// Minimum rejected-path appearances before a class is suspect.
    pub min_rejections: u64,
    /// Maximum tolerated share of approved appearances:
    /// `approved / (approved + rejected)` must be at most this.
    pub max_approval_share: f64,
}

impl Default for SuggestionPolicy {
    fn default() -> Self {
        SuggestionPolicy {
            min_rejections: 3,
            max_approval_share: 0.1,
        }
    }
}

impl FeedbackStore {
    /// An empty store for `schema`.
    pub fn new(schema: &Schema) -> Self {
        FeedbackStore {
            evidence: vec![ClassEvidence::default(); schema.class_count()],
        }
    }

    /// The evidence gathered for one class.
    pub fn evidence(&self, class: ClassId) -> ClassEvidence {
        self.evidence[class.index()]
    }

    /// Records the user's verdict on a proposed completion.
    pub fn record(&mut self, schema: &Schema, completion: &Completion, verdict: Verdict) {
        let classes = completion.classes(schema);
        if classes.len() <= 2 {
            return; // no interior classes
        }
        for &c in &classes[1..classes.len() - 1] {
            let e = &mut self.evidence[c.index()];
            match verdict {
                Verdict::Approved => e.approved += 1,
                Verdict::Rejected => e.rejected += 1,
            }
        }
    }

    /// Classes the evidence suggests excluding from future completions,
    /// most-rejected first.
    pub fn suggest_exclusions(&self, policy: &SuggestionPolicy) -> Vec<ClassId> {
        let mut out: Vec<(ClassId, u64)> = self
            .evidence
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let total = e.approved + e.rejected;
                if e.rejected >= policy.min_rejections
                    && (e.approved as f64) <= policy.max_approval_share * total as f64
                {
                    Some((ClassId(ipe_graph::NodeId(i as u32)), e.rejected))
                } else {
                    None
                }
            })
            .collect();
        out.sort_by_key(|&(_, r)| std::cmp::Reverse(r));
        out.into_iter().map(|(c, _)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompletionConfig;
    use crate::engine::Completer;
    use ipe_parser::parse_path_expression;
    use ipe_schema::fixtures;

    /// Simulated sessions: the user reviews every consistent candidate of
    /// a few queries (the broadest Figure-1 presentation) and
    /// systematically rejects readings that detour through `course`.
    #[test]
    fn rejecting_detours_through_a_class_suggests_excluding_it() {
        let schema = fixtures::university();
        let mut store = FeedbackStore::new(&schema);
        let course = schema.class_named("course").unwrap();
        let cfg = CompletionConfig::default();

        for (root_name, target) in [("ta", "name"), ("student", "name"), ("department", "name")] {
            let root = schema.class_named(root_name).unwrap();
            let all = crate::exhaustive::all_consistent(&schema, root, target, &cfg).unwrap();
            for c in &all {
                let verdict = if c.classes(&schema).contains(&course) {
                    Verdict::Rejected
                } else {
                    Verdict::Approved
                };
                store.record(&schema, c, verdict);
            }
        }
        let policy = SuggestionPolicy {
            min_rejections: 1,
            max_approval_share: 0.2,
        };
        let suggestions = store.suggest_exclusions(&policy);
        assert!(
            suggestions.contains(&course),
            "course should be suggested; evidence: {:?}",
            store.evidence(course)
        );
        // Well-liked interior classes are not suggested.
        let person = schema.class_named("person").unwrap();
        assert!(!suggestions.contains(&person));
    }

    #[test]
    fn suggestions_feed_back_into_the_engine() {
        let schema = fixtures::university();
        let mut store = FeedbackStore::new(&schema);
        let engine = Completer::with_config(&schema, CompletionConfig::with_e(2));
        let grad = schema.class_named("grad").unwrap();

        // The user hates every completion that routes through `grad`.
        let out = engine
            .complete(&parse_path_expression("ta~name").unwrap())
            .unwrap();
        for c in &out {
            let verdict = if c.classes(&schema).contains(&grad) {
                Verdict::Rejected
            } else {
                Verdict::Approved
            };
            // Record a few sessions' worth.
            for _ in 0..3 {
                store.record(&schema, c, verdict);
            }
        }
        let excluded = store.suggest_exclusions(&SuggestionPolicy::default());
        assert!(excluded.contains(&grad));
        let adapted = Completer::with_config(
            &schema,
            CompletionConfig {
                excluded_classes: excluded,
                ..Default::default()
            },
        );
        let adapted_out = adapted
            .complete(&parse_path_expression("ta~name").unwrap())
            .unwrap();
        assert!(!adapted_out.is_empty());
        for c in &adapted_out {
            assert!(!c.classes(&schema).contains(&grad));
        }
    }

    #[test]
    fn short_paths_have_no_interior_evidence() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let mut store = FeedbackStore::new(&schema);
        // department.name is a single-edge completion: no interior classes.
        let out = engine
            .complete(&parse_path_expression("department~name").unwrap())
            .unwrap();
        store.record(&schema, &out[0], Verdict::Rejected);
        for c in schema.classes() {
            assert_eq!(store.evidence(c), ClassEvidence::default());
        }
    }
}
