//! `/v1/schemas`: list, read, write and delete a tenant's schemas.

use crate::api::{SchemaDeleteResponse, SchemaPutResponse};
use crate::registry::SchemaInfo;
use crate::server::routes::{Answer, Call, Reply};
use crate::server::state::{lock_recover, spawn_index_build};
use ipe_schema::Schema;
use ipe_store::{WalOp, WalRecord};
use ipe_tenant::{scoped_name, split_scoped};
use std::sync::Arc;

/// `GET /v1/schemas`: only this tenant's namespace, with the scope prefix
/// stripped back off — names on the wire are tenant-local.
pub(in crate::server) fn list(call: Call<'_>) -> Answer {
    let list: Vec<SchemaInfo> = call
        .state
        .registry
        .list()
        .into_iter()
        .filter(|info| split_scoped(&info.name).0 == call.tenant.name())
        .map(|mut info| {
            info.name = split_scoped(&info.name).1.to_owned();
            info
        })
        .collect();
    match serde_json::to_string(&list) {
        Ok(json) => Ok(Reply::json(200, format!("{{\"schemas\": {json}}}"))),
        Err(e) => Err(Reply::error(500, &e.to_string())),
    }
}

/// `GET /v1/schemas/:name`: one schema's id, generation and size.
pub(in crate::server) fn get(call: Call<'_>) -> Answer {
    let name = call.segment()?;
    let Some(entry) = call
        .state
        .registry
        .get(&scoped_name(call.tenant.name(), name))
    else {
        return Err(Reply::error(404, &format!("no schema named `{name}`")));
    };
    let info = SchemaInfo {
        name: split_scoped(&entry.name).1.to_owned(),
        id: entry.id,
        generation: entry.generation,
        classes: entry.schema.class_count() as u64,
        relationships: entry.schema.rel_count() as u64,
    };
    Ok(Reply::serialized(200, &info))
}

/// `PUT /v1/schemas/:name`: registers (or hot-swaps) a schema, durably
/// when the server has a data directory, and starts its index build.
pub(in crate::server) fn put(call: Call<'_>) -> Answer {
    let (state, tenant) = (call.state, call.tenant);
    let name = call.segment()?;
    let body = call.text()?;
    let schema =
        Schema::from_json(body).map_err(|e| Reply::error(400, &format!("invalid schema: {e}")))?;
    let entry = state
        .register_schema_for(tenant.name(), name, schema, body)
        .map_err(|e| Reply::error(500, &format!("schema registered but not persisted: {e}")))?;
    // Generation keying already shields correctness; purging just frees
    // the dead generations' memory eagerly.
    let purged = if entry.generation > 1 {
        state.caches.purge_schema(tenant.name(), entry.id)
    } else {
        0
    };
    // Kick off the index build for the new generation; until it lands the
    // entry serves unindexed.
    spawn_index_build(state, Arc::clone(&entry));
    let response = SchemaPutResponse {
        name: split_scoped(&entry.name).1.to_owned(),
        id: entry.id,
        generation: entry.generation,
        purged_cache_entries: purged,
    };
    Ok(Reply::serialized(200, &response))
}

/// `DELETE /v1/schemas/:name`: removes the schema, its cached results
/// and its loaded data, and logs the delete.
pub(in crate::server) fn delete(call: Call<'_>) -> Answer {
    let (state, tenant) = (call.state, call.tenant);
    let name = call.segment()?;
    let key_name = scoped_name(tenant.name(), name);
    let store_guard = state.store.as_ref().map(|m| lock_recover(m, "store"));
    let Some(entry) = state.registry.remove(&key_name) else {
        return Err(Reply::error(404, &format!("no schema named `{name}`")));
    };
    // Purge before acknowledging so a deleted schema's cached results are
    // unreachable the moment the 200 lands. The loaded data instance goes
    // with it: it was validated against this schema's generations, and
    // leaving it behind made a later PUT of the same name serve queries
    // against a stale instance under a colliding name.
    let purged = state.caches.purge_schema(tenant.name(), entry.id);
    let purged_data = state.data.remove(&key_name).is_some();
    if let Some(mut store) = store_guard {
        match store.append_delete(tenant.name(), name) {
            Ok(seq) => {
                // Published under the store mutex, as in `register_schema`.
                if let Some(hub) = &state.repl_hub {
                    hub.publish(&WalRecord {
                        seq,
                        op: WalOp::Delete {
                            tenant: tenant.name().to_owned(),
                            name: name.to_owned(),
                        },
                    });
                }
            }
            Err(e) => {
                ipe_obs::counter!("store.wal.append_failed", 1);
                let msg = format!("schema removed but delete not persisted: {e}");
                return Err(Reply::error(500, &msg));
            }
        }
    }
    let response = SchemaDeleteResponse {
        name: split_scoped(&entry.name).1.to_owned(),
        id: entry.id,
        generation: entry.generation,
        purged_cache_entries: purged,
        purged_data,
    };
    Ok(Reply::serialized(200, &response))
}
