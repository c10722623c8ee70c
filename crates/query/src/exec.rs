//! Evaluation of a completion set against a database, with per-answer
//! provenance and the certain/possible partition.
//!
//! Given the top-E completions of an incomplete path expression, each
//! completion is evaluated independently ([`Database::eval_path`]) and the
//! result sets are merged: an answer is **possible** when at least one
//! completion produced it, and **certain** when *every* evaluated
//! completion produced it (the unanimous core, in the spirit of certain
//! answers over incomplete queries). Provenance records exactly which
//! completions yielded each answer, so a user can trace a surprising
//! answer back to the reading of the expression that implied it.

use ipe_core::{CompleteError, Completer, Completion, CompletionConfig, SearchLimits, SearchStats};
use ipe_oodb::{Database, EvalError, EvalLimits, ObjectId, Value};
use ipe_parser::{parse_path_expression, ParseError, PathExprAst};
use std::collections::BTreeMap;
use std::fmt;

/// One atomic answer: an object, or a primitive value when the path ends
/// in an attribute. The two kinds never compare equal, so a completion set
/// mixing object-valued and value-valued paths simply has an empty certain
/// core across kinds.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Answer {
    /// An object of the database.
    Object(ObjectId),
    /// A primitive value.
    Value(Value),
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Object(o) => write!(f, "#{}", o.0),
            Answer::Value(v) => write!(f, "{v}"),
        }
    }
}

/// One answer with its provenance over the evaluated completion set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceAnswer {
    /// The answer itself.
    pub answer: Answer,
    /// Indices (into the evaluated completion list) of the completions
    /// that produced this answer. Sorted, nonempty.
    pub completions: Vec<usize>,
    /// Whether every evaluated completion produced this answer.
    pub certain: bool,
}

/// The merged outcome of evaluating a completion set.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// The evaluated completions, in engine rank order.
    pub completions: Vec<Completion>,
    /// All possible answers, sorted, each carrying provenance and its
    /// certain flag.
    pub answers: Vec<ProvenanceAnswer>,
    /// Number of certain answers (a prefix-free subset of `answers`).
    pub certain: usize,
    /// Search counters of the completion run that produced the set
    /// (default when the completions were supplied directly).
    pub search_stats: SearchStats,
    /// Objects visited across all per-completion evaluations.
    pub visited: u64,
}

impl QueryOutcome {
    /// Number of possible answers (all of `answers`).
    pub fn possible(&self) -> usize {
        self.answers.len()
    }
}

/// Errors raised by query execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The expression did not parse.
    Parse(ParseError),
    /// The expression is already complete, so disambiguating it at `E > 1`
    /// is meaningless — evaluate it directly instead.
    AlreadyComplete,
    /// The completion engine failed (unknown root, dead end, deadline …).
    Complete(CompleteError),
    /// Evaluating a completion failed. Carries the index of the completion
    /// whose evaluation failed.
    Eval {
        /// Index into the completion list.
        completion: usize,
        /// The underlying evaluation error.
        error: EvalError,
    },
    /// The expression completed to an empty set (no admissible path).
    NoCompletions,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::AlreadyComplete => {
                f.write_str("expression is already complete; `e > 1` is meaningless — evaluate it directly or set e=1")
            }
            QueryError::Complete(e) => write!(f, "completion failed: {e}"),
            QueryError::Eval { completion, error } => {
                write!(f, "evaluating completion #{completion} failed: {error}")
            }
            QueryError::NoCompletions => f.write_str("no admissible completion"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<CompleteError> for QueryError {
    fn from(e: CompleteError) -> Self {
        QueryError::Complete(e)
    }
}

/// Whether the query error is a deadline/cancellation abort (the caller
/// usually maps these to a timeout status rather than a client error).
pub fn is_deadline(err: &QueryError) -> bool {
    matches!(
        err,
        QueryError::Complete(CompleteError::DeadlineExceeded)
            | QueryError::Complete(CompleteError::Cancelled)
            | QueryError::Eval {
                error: EvalError::DeadlineExceeded
                    | EvalError::Cancelled
                    | EvalError::VisitBudgetExceeded { .. },
                ..
            }
    )
}

/// Evaluates an already-computed completion set against `db` and merges
/// the per-completion result sets into provenance-annotated answers.
///
/// The completions must belong to `db`'s schema (the service guarantees
/// this by generation-stamping loaded data). The same [`EvalLimits`] carry
/// across the whole set, so one deadline bounds the entire query.
pub fn evaluate_completions(
    db: &Database,
    completions: &[Completion],
    limits: &EvalLimits,
) -> Result<QueryOutcome, QueryError> {
    ipe_obs::counter!("query.executions", 1);
    let _t = ipe_obs::timer!("query.phase.execute");
    if completions.is_empty() {
        return Err(QueryError::NoCompletions);
    }
    let mut visited = 0u64;
    // answer -> sorted completion indices that produced it.
    let mut merged: BTreeMap<Answer, Vec<usize>> = BTreeMap::new();
    for (i, completion) in completions.iter().enumerate() {
        let run = db
            .eval_path(completion.root, &completion.edges, limits)
            .map_err(|error| {
                ipe_obs::counter!("query.eval_errors", 1);
                QueryError::Eval {
                    completion: i,
                    error,
                }
            })?;
        visited += run.visited;
        match run.output {
            ipe_oodb::EvalOutput::Objects(objects) => {
                for o in objects {
                    merged.entry(Answer::Object(o)).or_default().push(i);
                }
            }
            ipe_oodb::EvalOutput::Values(values) => {
                for v in values {
                    merged.entry(Answer::Value(v)).or_default().push(i);
                }
            }
        }
    }
    let total = completions.len();
    let mut answers = Vec::with_capacity(merged.len());
    let mut certain = 0usize;
    for (answer, indices) in merged {
        let is_certain = indices.len() == total;
        certain += is_certain as usize;
        answers.push(ProvenanceAnswer {
            answer,
            completions: indices,
            certain: is_certain,
        });
    }
    ipe_obs::counter!("query.answers.possible", answers.len() as u64);
    ipe_obs::counter!("query.answers.certain", certain as u64);
    Ok(QueryOutcome {
        completions: completions.to_vec(),
        answers,
        certain,
        search_stats: SearchStats::default(),
        visited,
    })
}

/// Options for [`query`] / [`query_ast`].
#[derive(Clone, Default)]
pub struct QueryOptions {
    /// Completion engine configuration (`e` is the number of admitted
    /// semantic lengths, i.e. the precision/recall dial over answers).
    pub config: CompletionConfig,
    /// Search limits for the disambiguation phase.
    pub search_limits: SearchLimits,
    /// Evaluation limits shared across all per-completion evaluations.
    pub eval_limits: EvalLimits,
}

/// Parses, disambiguates, and executes an incomplete path expression
/// end to end against `db`.
///
/// A *complete* expression is accepted only at `e == 1` (it has exactly
/// one reading); at `e > 1` it is an [`QueryError::AlreadyComplete`] so
/// callers surface the misuse instead of silently ignoring `e`.
pub fn query(db: &Database, source: &str, opts: &QueryOptions) -> Result<QueryOutcome, QueryError> {
    let ast = parse_path_expression(source)?;
    query_ast(db, &ast, opts)
}

/// [`query`] over a pre-parsed expression.
pub fn query_ast(
    db: &Database,
    ast: &PathExprAst,
    opts: &QueryOptions,
) -> Result<QueryOutcome, QueryError> {
    if ast.is_complete() && opts.config.e > 1 {
        return Err(QueryError::AlreadyComplete);
    }
    let completer = Completer::with_config(db.schema(), opts.config.clone());
    let outcome = completer.complete_bounded(ast, &opts.search_limits)?;
    let mut merged = evaluate_completions(db, &outcome.completions, &opts.eval_limits)?;
    merged.search_stats = outcome.stats;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_oodb::fixtures::university_db;
    use std::sync::Arc;

    fn db() -> Database {
        university_db(&Arc::new(ipe_schema::fixtures::university()))
    }

    fn opts(e: usize) -> QueryOptions {
        QueryOptions {
            config: CompletionConfig {
                e,
                ..CompletionConfig::default()
            },
            ..QueryOptions::default()
        }
    }

    #[test]
    fn paper_example_is_certain_at_e1() {
        let db = db();
        let out = query(&db, "ta~name", &opts(1)).unwrap();
        assert!(!out.answers.is_empty());
        // At E=1 every admitted completion has the optimal label; both
        // optimal readings of `ta~name` reach person.name, so Alice's
        // name is unanimous.
        assert!(out.answers.iter().any(|a| a.certain));
        assert_eq!(
            out.certain,
            out.answers.iter().filter(|a| a.certain).count()
        );
    }

    #[test]
    fn possible_grows_certain_shrinks_with_e() {
        let db = db();
        let mut prev_possible = 0usize;
        let mut prev_certain = usize::MAX;
        for e in 1..=4 {
            let out = query(&db, "ta~name", &opts(e)).unwrap();
            assert!(out.possible() >= prev_possible, "possible monotone in E");
            assert!(out.certain <= prev_certain, "certain antitone in E");
            prev_possible = out.possible();
            prev_certain = out.certain;
        }
    }

    #[test]
    fn provenance_indices_are_valid_and_sorted() {
        let db = db();
        let out = query(&db, "ta~name", &opts(3)).unwrap();
        for a in &out.answers {
            assert!(!a.completions.is_empty());
            assert!(a.completions.windows(2).all(|w| w[0] < w[1]));
            assert!(a.completions.iter().all(|&i| i < out.completions.len()));
            assert_eq!(a.certain, a.completions.len() == out.completions.len());
        }
    }

    #[test]
    fn complete_expression_rejected_at_e_gt_1() {
        let db = db();
        assert_eq!(
            query(&db, "student.take.teacher", &opts(2)).unwrap_err(),
            QueryError::AlreadyComplete
        );
        // But accepted at e=1: a complete expression has one reading.
        let out = query(&db, "student.take.teacher", &opts(1)).unwrap();
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.certain, out.possible());
    }

    #[test]
    fn unparsable_expression_is_a_parse_error() {
        let db = db();
        assert!(matches!(
            query(&db, "ta~~", &opts(1)),
            Err(QueryError::Parse(_))
        ));
    }

    #[test]
    fn deadline_classifier_covers_both_phases() {
        assert!(is_deadline(&QueryError::Complete(
            CompleteError::DeadlineExceeded
        )));
        assert!(is_deadline(&QueryError::Eval {
            completion: 0,
            error: EvalError::DeadlineExceeded,
        }));
        assert!(!is_deadline(&QueryError::AlreadyComplete));
    }
}
