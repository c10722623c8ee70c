//! `/v1/data/:schema`: load, read and drop a schema's database instance.

use crate::api::{DataDeleteResponse, DataPutRequest, DataPutResponse};
use crate::server::routes::{Answer, Call, Reply};
use crate::DataEntry;
use ipe_tenant::{scoped_name, split_scoped};

/// `PUT /v1/data/:schema`: loads a database instance for a registered
/// schema, either from an explicit bulk spec or a synthetic `gen`
/// request. The load is generation-stamped against the schema's current
/// registry generation; oversized loads are a `413`.
pub(in crate::server) fn put(call: Call<'_>) -> Answer {
    let name = call.segment()?;
    let key_name = scoped_name(call.tenant.name(), name);
    let parsed: DataPutRequest = call.json_body()?;
    let Call {
        state, tenant, obs, ..
    } = call;
    let Some(entry) = state.registry.get(&key_name) else {
        return Err(Reply::error(404, &format!("no schema named `{name}`")));
    };
    // The tenant's quota, when set, tightens (never loosens) the
    // service-wide load cap.
    let cap = match tenant.config().max_data_entries {
        Some(limit) => (limit as usize).min(state.max_data_entries),
        None => state.max_data_entries,
    };
    let explicit = parsed.objects.len() + parsed.links.len() + parsed.attrs.len();
    let (db, source) = if let Some(gen) = &parsed.gen {
        if explicit > 0 {
            return Err(Reply::error(
                400,
                "`gen` and explicit objects/links/attrs are mutually exclusive",
            ));
        }
        let projected = gen.projected_objects(&entry.schema);
        if projected > cap as u64 {
            let msg = format!("generation would create ~{projected} objects, over the {cap} cap");
            return Err(Reply::error(413, &msg));
        }
        let mut gen_span = obs.span.child("data.generate");
        gen_span.attr("projected_objects", projected);
        let db = ipe_gen::generate_database(&entry.schema, gen);
        gen_span.finish();
        (db, "gen")
    } else {
        if explicit > cap {
            let msg = format!("spec has {explicit} entries, over the {cap} cap");
            return Err(Reply::error(413, &msg));
        }
        let mut load_span = obs.span.child("data.load");
        load_span.attr("entries", explicit as u64);
        let db = ipe_query::load(&entry.schema, &parsed.spec())
            .map_err(|e| Reply::error(422, &e.to_string()))?;
        load_span.finish();
        (db, "spec")
    };
    let loaded = state
        .data
        .insert(&key_name, entry.id, entry.generation, source, db);
    ipe_obs::counter!("service.data.put", 1);
    Ok(Reply::serialized(200, &data_view(&loaded)))
}

/// Renders a data entry's summary (PUT and GET share the shape).
fn data_view(entry: &DataEntry) -> DataPutResponse {
    DataPutResponse {
        schema: split_scoped(&entry.schema_name).1.to_owned(),
        schema_generation: entry.schema_generation,
        data_generation: entry.data_generation,
        source: entry.source.to_owned(),
        objects: entry.db.object_count() as u64,
        links: entry.db.link_count() as u64,
        attrs: entry.db.attr_count() as u64,
    }
}

/// `GET /v1/data/:schema`: the loaded instance's summary.
pub(in crate::server) fn get(call: Call<'_>) -> Answer {
    let name = call.segment()?;
    let Some(entry) = call.state.data.get(&scoped_name(call.tenant.name(), name)) else {
        return Err(Reply::error(404, &format!("no data loaded for `{name}`")));
    };
    Ok(Reply::serialized(200, &data_view(&entry)))
}

/// `DELETE /v1/data/:schema`: drops the loaded instance.
pub(in crate::server) fn delete(call: Call<'_>) -> Answer {
    let name = call.segment()?;
    let Some(entry) = call
        .state
        .data
        .remove(&scoped_name(call.tenant.name(), name))
    else {
        return Err(Reply::error(404, &format!("no data loaded for `{name}`")));
    };
    let response = DataDeleteResponse {
        schema: split_scoped(&entry.schema_name).1.to_owned(),
        data_generation: entry.data_generation,
    };
    Ok(Reply::serialized(200, &response))
}
