//! Multi-tenancy primitives for the disambiguation service.
//!
//! A *tenant* is the unit of isolation the service hands to a customer:
//! a namespace for schemas and data instances, an admission quota
//! (token-bucket request rate plus a concurrent-search cap), a byte
//! budget for its private completion-cache partition, and default
//! search knobs (`e`, pruning, deadlines) applied when a request leaves
//! them unset.
//!
//! The crate is deliberately free of I/O: the [`TenantRegistry`] is an
//! in-memory map, admission is a clock-driven [`TokenBucket`], and
//! persistence/replication are the service's and store's problem (the
//! WAL carries tenant ids from format v2 on). Everything here is
//! `std`-only and compiles probe-free under `obs-off`.
//!
//! # Namespacing
//!
//! Registries downstream (schemas, data, WAL live-state) stay flat;
//! tenancy is a naming convention handled by [`scoped_name`] /
//! [`split_scoped`]: the built-in [`DEFAULT_TENANT`] owns bare names
//! (`"people"`), every other tenant owns `"{tenant}/{name}"`
//! (`"acme/people"`). Tenant names cannot contain `/`, schema names
//! cannot either, so the encoding is unambiguous — and every pre-tenant
//! WAL record and client keeps working because the default tenant's
//! names are byte-identical to the legacy ones.

mod bucket;
mod registry;

pub use bucket::{Admission, TokenBucket};
pub use registry::{Tenant, TenantCountersView, TenantError, TenantRegistry};

/// The built-in tenant legacy (un-prefixed) routes resolve to. Always
/// present, cannot be deleted.
pub const DEFAULT_TENANT: &str = "default";

/// Longest accepted tenant name.
pub const MAX_TENANT_NAME: usize = 64;

/// Per-tenant policy: admission quotas, cache budget, and the search
/// defaults applied when a request leaves the knob unset. A zero on a
/// quota field means "unlimited" — the built-in `default` tenant ships
/// with every quota open so legacy single-tenant deployments behave
/// exactly as before.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantConfig {
    /// Sustained request admission rate (requests/second) for work
    /// routes. `0` = unlimited.
    #[serde(default)]
    pub rate_per_sec: f64,
    /// Token-bucket capacity (burst size). `0` = derived from the rate
    /// (one second's worth, at least 1).
    #[serde(default)]
    pub burst: u32,
    /// Maximum in-flight searches (complete/batch/query bodies past
    /// admission). `0` = unlimited.
    #[serde(default)]
    pub max_concurrent: u32,
    /// Byte budget of this tenant's completion-cache partition. `0` =
    /// the server default.
    #[serde(default)]
    pub cache_bytes: u64,
    /// Default `E` (answer-set dial) when a request omits `e`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub default_e: Option<u64>,
    /// Default pruning mode when a request omits `pruning`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub default_pruning: Option<String>,
    /// Default and cap for batch/query `deadline_ms`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
    /// Cap on loaded data instances across this tenant's schemas.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_data_entries: Option<u64>,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            rate_per_sec: 0.0,
            burst: 0,
            max_concurrent: 0,
            cache_bytes: 0,
            default_e: None,
            default_pruning: None,
            deadline_ms: None,
            max_data_entries: None,
        }
    }
}

impl TenantConfig {
    /// The effective bucket capacity: `burst`, or one second of refill
    /// (at least 1) when unset.
    pub fn effective_burst(&self) -> f64 {
        if self.burst > 0 {
            f64::from(self.burst)
        } else {
            self.rate_per_sec.ceil().max(1.0)
        }
    }
}

/// Validates a tenant name: 1..=64 chars of `[a-z0-9_-]`, starting with
/// a letter or digit. The grammar keeps names safe inside URL path
/// segments, scoped registry keys (`tenant/name`), file names, and
/// Prometheus metric names (after `-` → `_` mangling).
pub fn validate_tenant_name(name: &str) -> Result<(), TenantError> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(TenantError::BadName(
            "tenant name must be 1..=64 characters",
        ));
    }
    let mut chars = name.chars();
    let first = chars.next().unwrap_or(' ');
    if !first.is_ascii_lowercase() && !first.is_ascii_digit() {
        return Err(TenantError::BadName(
            "tenant name must start with a lowercase letter or digit",
        ));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
    {
        return Err(TenantError::BadName(
            "tenant name may contain only [a-z0-9_-]",
        ));
    }
    Ok(())
}

/// The registry/store key a tenant's object lives under: bare `name`
/// for the default tenant, `"{tenant}/{name}"` otherwise.
pub fn scoped_name(tenant: &str, name: &str) -> String {
    if tenant == DEFAULT_TENANT {
        name.to_owned()
    } else {
        format!("{tenant}/{name}")
    }
}

/// Splits a scoped key back into `(tenant, bare_name)`. Keys without a
/// `/` belong to the default tenant.
pub fn split_scoped(key: &str) -> (&str, &str) {
    match key.split_once('/') {
        Some((tenant, name)) => (tenant, name),
        None => (DEFAULT_TENANT, key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_names_round_trip() {
        assert_eq!(scoped_name(DEFAULT_TENANT, "people"), "people");
        assert_eq!(scoped_name("acme", "people"), "acme/people");
        assert_eq!(split_scoped("people"), (DEFAULT_TENANT, "people"));
        assert_eq!(split_scoped("acme/people"), ("acme", "people"));
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(validate_tenant_name("acme").is_ok());
        assert!(validate_tenant_name("a1-b_2").is_ok());
        assert!(validate_tenant_name("9lives").is_ok());
        assert!(validate_tenant_name("").is_err());
        assert!(validate_tenant_name("-lead").is_err());
        assert!(validate_tenant_name("Has/Slash").is_err());
        assert!(validate_tenant_name("UPPER").is_err());
        assert!(validate_tenant_name(&"x".repeat(65)).is_err());
    }

    #[test]
    fn effective_burst_derives_from_rate() {
        let mut cfg = TenantConfig {
            rate_per_sec: 2.5,
            ..TenantConfig::default()
        };
        assert_eq!(cfg.effective_burst(), 3.0);
        cfg.burst = 10;
        assert_eq!(cfg.effective_burst(), 10.0);
        cfg = TenantConfig::default();
        assert_eq!(cfg.effective_burst(), 1.0, "unlimited still buckets sanely");
    }

    #[test]
    fn config_serde_defaults_are_open() {
        let cfg: TenantConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(cfg, TenantConfig::default());
        let cfg: TenantConfig =
            serde_json::from_str(r#"{"rate_per_sec": 5.0, "burst": 2, "default_e": 3}"#).unwrap();
        assert_eq!(cfg.rate_per_sec, 5.0);
        assert_eq!(cfg.burst, 2);
        assert_eq!(cfg.default_e, Some(3));
    }
}
