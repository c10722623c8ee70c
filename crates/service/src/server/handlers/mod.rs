//! Route handlers, one module per resource. Each takes the matched
//! request as a `Call` and answers; the route table in `routes` decides
//! which handler a request reaches and what ran before it.

pub(super) mod data;
pub(super) mod ops;
pub(super) mod schemas;
pub(super) mod search;
pub(super) mod tenants;
