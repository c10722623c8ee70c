//! Parallel batch completion: fan a `Vec<PathExprAst>` out over a small
//! std-only work pool against one shared [`Completer`].
//!
//! Completing a batch of incomplete path expressions over one schema is
//! embarrassingly parallel: every item reads the same immutable schema and
//! the same precomputed `children[v]` ordering, and writes only its own
//! result. The pool is a claim counter, not a queue — each worker
//! `fetch_add`s the next unclaimed index, so a batch with a few expensive
//! multi-tilde queries and many cheap ones stays balanced without any
//! up-front partitioning.
//!
//! Every item runs under [`SearchLimits`]: an optional per-item deadline
//! plus a batch-wide cancellation flag. A deadline-bound item surfaces as
//! [`CompleteError::DeadlineExceeded`] in its own slot and the worker moves
//! on to the next item — one pathological query delays the batch by at most
//! its deadline instead of stalling it indefinitely.
//!
//! Observability: counter `batch.items` (items submitted), counter
//! `batch.deadline_hits` (items that timed out), timer `batch.wall` (whole
//! batch wall clock).

use crate::config::SearchLimits;
use crate::engine::{Completer, SearchOutcome};
use crate::error::CompleteError;
use ipe_parser::PathExprAst;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning of one [`complete_batch`] run.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` uses [`std::thread::available_parallelism`].
    /// Clamped to the number of items (never spawns idle workers).
    pub threads: usize,
    /// Per-item wall-clock budget, measured from the moment a worker
    /// claims the item. `None` means unlimited.
    pub deadline: Option<Duration>,
    /// Batch-wide cooperative cancellation: set it to `true` from any
    /// thread and every in-flight item aborts with
    /// [`CompleteError::Cancelled`]; unclaimed items are not started.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Request-scoped span context, typically parented at the caller's
    /// batch fan-out span. Each item opens a `batch.item` child *on the
    /// worker thread that claims it* — the handle is `Send + Sync`, so
    /// parent linkage survives the scoped-thread boundary. Disabled by
    /// default (no-op).
    pub span: ipe_obs::SpanHandle,
}

/// The outcome of one batch item, in submission order.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Index into the submitted slice.
    pub index: usize,
    /// The completion outcome, or why the item stopped early.
    pub result: Result<SearchOutcome, CompleteError>,
    /// Wall-clock time the item spent in the engine, in nanoseconds.
    pub duration_ns: u64,
}

impl BatchItem {
    /// Whether this item timed out (its `result` is
    /// [`CompleteError::DeadlineExceeded`]).
    pub fn deadline_exceeded(&self) -> bool {
        matches!(self.result, Err(CompleteError::DeadlineExceeded))
    }
}

/// Completes every expression in `items` against `completer`, in parallel,
/// returning one [`BatchItem`] per input in submission order.
///
/// The call blocks until every item has finished (or timed out / been
/// cancelled); with a per-item deadline `d` and `t` threads the whole
/// batch therefore takes at most about `ceil(n / t) * d` plus the cheap
/// items' compute time.
pub fn complete_batch(
    completer: &Completer<'_>,
    items: &[PathExprAst],
    opts: &BatchOptions,
) -> Vec<BatchItem> {
    let _wall = ipe_obs::timer!("batch.wall");
    ipe_obs::counter!("batch.items", items.len() as u64);
    if items.is_empty() {
        return Vec::new();
    }
    let threads = effective_threads(opts.threads, items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<BatchItem>> = (0..items.len()).map(|_| None).collect();

    if threads == 1 {
        // Inline fast path: the 1-thread baseline measures the engine, not
        // thread spawn overhead.
        for (index, ast) in items.iter().enumerate() {
            slots[index] = Some(run_item(completer, ast, index, opts));
        }
    } else {
        let per_worker: Vec<Vec<BatchItem>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(ast) = items.get(index) else {
                                break;
                            };
                            out.push(run_item(completer, ast, index, opts));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });
        for item in per_worker.into_iter().flatten() {
            let index = item.index;
            slots[index] = Some(item);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Resolves `requested` worker threads against the machine and the batch.
fn effective_threads(requested: usize, items: usize) -> usize {
    let base = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    base.clamp(1, items.max(1))
}

fn run_item(
    completer: &Completer<'_>,
    ast: &PathExprAst,
    index: usize,
    opts: &BatchOptions,
) -> BatchItem {
    let mut item_span = opts.span.child("batch.item");
    item_span.attr("index", index as u64);
    let limits = SearchLimits {
        deadline: opts.deadline.map(|d| Instant::now() + d),
        cancel: opts.cancel.clone(),
        span: item_span.handle(),
    };
    // An already-cancelled batch skips the engine entirely, so the tail of
    // a cancelled batch drains in microseconds.
    let started = Instant::now();
    let result = match limits.check() {
        Ok(()) => completer.complete_bounded(ast, &limits),
        Err(e) => Err(e),
    };
    if matches!(result, Err(CompleteError::DeadlineExceeded)) {
        ipe_obs::counter!("batch.deadline_hits", 1);
    }
    item_span.attr(
        "deadline_exceeded",
        matches!(result, Err(CompleteError::DeadlineExceeded)) as u64,
    );
    BatchItem {
        index,
        result,
        duration_ns: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_parser::parse_path_expression;
    use ipe_schema::fixtures;

    fn asts(exprs: &[&str]) -> Vec<PathExprAst> {
        exprs
            .iter()
            .map(|e| parse_path_expression(e).unwrap())
            .collect()
    }

    /// Batch results match item-by-item sequential completion, at any
    /// thread count, in submission order.
    #[test]
    fn batch_agrees_with_sequential_at_every_thread_count() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let items = asts(&[
            "ta~name",
            "department~take",
            "department.student~name",
            "ta@>grad@>student@>person.name",
            "university~student~name",
            "nonexistent~name",
        ]);
        let reference: Vec<_> = items
            .iter()
            .map(|ast| engine.complete_with_stats(ast))
            .collect();
        for threads in [1, 2, 4] {
            let opts = BatchOptions {
                threads,
                ..Default::default()
            };
            let out = complete_batch(&engine, &items, &opts);
            assert_eq!(out.len(), items.len());
            for (i, item) in out.iter().enumerate() {
                assert_eq!(item.index, i, "results come back in submission order");
                match (&item.result, &reference[i]) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.completions, want.completions, "item {i}")
                    }
                    (Err(got), Err(want)) => assert_eq!(got, want, "item {i}"),
                    (got, want) => panic!("item {i}: {got:?} vs {want:?}"),
                }
            }
        }
    }

    /// A dense schema whose multi-tilde queries are combinatorially
    /// expensive: every ordered class pair is connected, so the exhaustive
    /// segment search faces factorially many acyclic paths — ideal for
    /// exercising deadlines deterministically.
    fn dense_schema(n: usize) -> ipe_schema::Schema {
        use ipe_schema::{Primitive, SchemaBuilder};
        let mut b = SchemaBuilder::new();
        let classes: Vec<_> = (0..n).map(|i| b.class(&format!("c{i}")).unwrap()).collect();
        for (i, &source) in classes.iter().enumerate() {
            for (j, &target) in classes.iter().enumerate() {
                if i != j {
                    b.assoc(source, target, &format!("e{i}_{j}")).unwrap();
                }
            }
        }
        for &c in &classes {
            b.attr(c, "name", Primitive::Real).unwrap();
        }
        b.build().unwrap()
    }

    /// A deadline-bound item surfaces as `DeadlineExceeded` in its own
    /// slot; the cheap items complete, and the batch as a whole returns
    /// promptly instead of stalling on the pathological query.
    #[test]
    fn deadline_bound_item_times_out_without_stalling_the_batch() {
        let schema = dense_schema(12);
        // Uncap max_results so the pathological item hits the deadline,
        // not the result cap.
        let engine = Completer::with_config(
            &schema,
            crate::CompletionConfig {
                max_results: usize::MAX,
                ..Default::default()
            },
        );
        let items = asts(&["c0.e0_1.name", "c0~name", "c0~e10_11~name"]);
        let opts = BatchOptions {
            threads: 2,
            deadline: Some(Duration::from_millis(60)),
            ..Default::default()
        };
        let started = Instant::now();
        let out = complete_batch(&engine, &items, &opts);
        assert!(out[0].result.is_ok(), "{:?}", out[0].result);
        assert!(out[1].result.is_ok(), "{:?}", out[1].result);
        assert!(
            out[2].deadline_exceeded(),
            "the dense multi-tilde item must trip its deadline: {:?}",
            out[2].result
        );
        // The heavy item cost the batch roughly its deadline, not forever
        // (the untimed search would run for days on this schema).
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "batch stalled: {:?}",
            started.elapsed()
        );
    }

    /// A pre-set cancellation flag aborts every item as `Cancelled`.
    #[test]
    fn cancel_flag_aborts_the_whole_batch() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let items = asts(&["ta~name", "department~take"]);
        let flag = Arc::new(AtomicBool::new(true));
        let opts = BatchOptions {
            threads: 2,
            cancel: Some(flag),
            ..Default::default()
        };
        let out = complete_batch(&engine, &items, &opts);
        for item in &out {
            assert!(
                matches!(item.result, Err(CompleteError::Cancelled)),
                "{:?}",
                item.result
            );
        }
    }

    /// Every batch item's `batch.item` span links to the caller's fan-out
    /// span even though items run on scoped worker threads, and segment
    /// search spans nest under their item.
    #[test]
    #[cfg_attr(feature = "obs-off", ignore = "spans compiled out")]
    fn batch_item_spans_link_across_worker_threads() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        let items = asts(&["ta~name", "department~take", "department.student~name"]);
        let trace = ipe_obs::RequestTrace::start("batch-trace".to_owned(), 0);
        let fanout = trace.root_handle().child("batch");
        let opts = BatchOptions {
            threads: 2,
            span: fanout.handle(),
            ..Default::default()
        };
        let out = complete_batch(&engine, &items, &opts);
        assert_eq!(out.len(), items.len());
        fanout.finish();
        let done = trace.finish();
        let fanout_id = done.spans.iter().find(|s| s.name == "batch").unwrap().id;
        let item_spans: Vec<_> = done
            .spans
            .iter()
            .filter(|s| s.name == "batch.item")
            .collect();
        assert_eq!(item_spans.len(), items.len());
        assert!(item_spans.iter().all(|s| s.parent == fanout_id));
        let item_ids: Vec<u32> = item_spans.iter().map(|s| s.id).collect();
        let seg_spans: Vec<_> = done
            .spans
            .iter()
            .filter(|s| s.name == "search.segment")
            .collect();
        assert!(!seg_spans.is_empty());
        assert!(seg_spans.iter().all(|s| item_ids.contains(&s.parent)));
        // Search spans carry the SearchStats counters.
        assert!(seg_spans
            .iter()
            .any(|s| s.attrs.iter().any(|&(k, v)| k == "calls" && v > 0)));
    }

    #[test]
    fn empty_batch_is_empty() {
        let schema = fixtures::university();
        let engine = Completer::new(&schema);
        assert!(complete_batch(&engine, &[], &BatchOptions::default()).is_empty());
    }

    #[test]
    fn thread_resolution_clamps_sanely() {
        assert_eq!(effective_threads(4, 2), 2, "no idle workers");
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1, "auto detect is at least 1");
    }
}
