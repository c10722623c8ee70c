//! Operational routes: health and readiness, metrics, replication,
//! request tracing, and shutdown.

use crate::repl::StreamStart;
use crate::server::metrics::{metrics_json, metrics_prometheus};
use crate::server::routes::{Answer, Call, Reply};
use crate::server::state::lock_recover;
use std::sync::atomic::Ordering;

/// `GET /healthz`: liveness.
pub(in crate::server) fn healthz(_: Call<'_>) -> Answer {
    Ok(Reply::json(200, "{\"status\": \"ok\"}".to_owned()))
}

/// `GET /readyz`: readiness, as distinct from `/healthz` liveness. A
/// draining node and a follower that is behind the leader are both alive
/// but must be rotated out of a load balancer; the `503` body carries the
/// lag so operators can see how far behind the replica is.
pub(in crate::server) fn readyz(call: Call<'_>) -> Answer {
    let state = call.state;
    if state.shutting_down() {
        return Err(Reply::json(
            503,
            "{\"ready\": false, \"status\": \"draining\"}".to_owned(),
        ));
    }
    let Some(follower) = &state.follower else {
        return Ok(Reply::json(
            200,
            "{\"ready\": true, \"status\": \"ready\", \"role\": \"leader\"}".to_owned(),
        ));
    };
    if follower.is_ready() {
        Ok(Reply::json(
            200,
            format!(
                "{{\"ready\": true, \"status\": \"ready\", \"role\": \"follower\", \"applied_seq\": {}}}",
                follower.applied_seq()
            ),
        ))
    } else {
        ipe_obs::counter!("repl.follower.not_ready", 1);
        Err(Reply::json(
            503,
            format!(
                "{{\"ready\": false, \"status\": \"lagging\", \"role\": \"follower\", \
                 \"connected\": {}, \"applied_seq\": {}, \"lag_seq\": {}, \"lag_ms\": {}}}",
                follower.connected(),
                follower.applied_seq(),
                follower.lag_seq(),
                follower.lag_ms()
            ),
        ))
    }
}

/// `GET /metrics` (JSON), or `?format=prometheus` for the text
/// exposition.
pub(in crate::server) fn metrics(call: Call<'_>) -> Answer {
    if call.req.query_param("format") != Some("prometheus") {
        return Ok(Reply::json(200, metrics_json(call.state)));
    }
    Ok(Reply {
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        ..Reply::json(200, metrics_prometheus(call.state))
    })
}

/// `GET /v1/repl/stream?from_seq=N`: opens a replication stream. The
/// reply carries no body; the [`StreamStart`] marker makes the reactor
/// detach the socket and hand it to a streaming thread (see
/// [`crate::repl`]).
pub(in crate::server) fn repl_stream(call: Call<'_>) -> Answer {
    let state = call.state;
    if let Some(follower) = &state.follower {
        let msg = format!(
            "this node is a follower; stream from the leader at {}",
            follower.leader
        );
        return Err(Reply::error(400, &msg).with_header("x-ipe-leader", follower.leader.clone()));
    }
    if state.repl_hub.is_none() {
        return Err(Reply::error(
            400,
            "replication requires a durable leader (start with --data-dir)",
        ));
    }
    if state.shutting_down() {
        return Err(Reply::error(503, "leader is draining"));
    }
    let from_seq = call
        .req
        .query_param("from_seq")
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|_| Reply::error(400, "`from_seq` must be an unsigned integer"))?;
    Ok(Reply {
        content_type: "application/octet-stream",
        stream: Some(StreamStart { from_seq }),
        ..Reply::json(200, String::new())
    })
}

/// `GET /v1/repl/status`: the replication gauge section on its own, for
/// scripts and tests that poll convergence without parsing `/metrics`.
pub(in crate::server) fn repl_status(call: Call<'_>) -> Answer {
    Ok(Reply::serialized(200, &call.state.repl_metrics()))
}

/// The debug routes are cleanly absent (404) when observability is
/// compiled out.
fn tracing_compiled_in() -> Result<(), Reply> {
    if ipe_obs::disabled() {
        return Err(Reply::error(
            404,
            "request tracing is compiled out (obs-off)",
        ));
    }
    Ok(())
}

/// `GET /v1/debug/requests`: the flight recorder's retained-trace
/// summaries.
pub(in crate::server) fn debug_requests(call: Call<'_>) -> Answer {
    tracing_compiled_in()?;
    Ok(Reply::json(200, call.state.flight.dump_json()))
}

/// `GET /v1/debug/requests/:trace_id`: one retained trace, spans and all.
pub(in crate::server) fn debug_request(call: Call<'_>) -> Answer {
    tracing_compiled_in()?;
    let id = call.segment()?;
    match call.state.flight.lookup(id) {
        Some(trace) => Ok(Reply::json(200, trace.to_json())),
        None => Err(Reply::error(404, &format!("no retained trace `{id}`"))),
    }
}

/// `POST /v1/debug/panic` (only with
/// [`ServiceConfig::debug_panic_route`](crate::ServiceConfig::debug_panic_route),
/// otherwise no such endpoint): panics while holding the store and
/// builder locks — the exact failure mode that used to cascade
/// through `.expect("store poisoned")` and kill every later request. The
/// e2e poison-recovery test drives this route and then proves the server
/// still serves durable writes.
pub(in crate::server) fn debug_panic(call: Call<'_>) -> Answer {
    let state = call.state;
    if !state.debug_panic_route {
        return Err(Reply::error(404, "no such endpoint"));
    }
    let _store = state.store.as_ref().map(|m| lock_recover(m, "store"));
    let _builders = lock_recover(&state.index_builders, "index builders");
    panic!("injected panic (debug_panic_route)");
}

/// `POST /v1/shutdown`: flag only; the serving reactor flushes this
/// response, then observes the flag and wakes its siblings to drain.
pub(in crate::server) fn shutdown(call: Call<'_>) -> Answer {
    call.state.shutdown.store(true, Ordering::SeqCst);
    Ok(Reply::json(200, "{\"ok\": true}".to_owned()))
}
