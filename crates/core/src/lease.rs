//! Tenant identity.
//!
//! Partition leasing itself (`LeaseTable`, `Lease`) is the serving
//! extension's and lives in `stream_serve::lease`. The runtime keeps only
//! [`TenantId`], because it is the value of the `tenant` metrics label
//! ([`crate::metrics::Labels::tenant`]) that per-tenant telemetry is
//! keyed by, and callers name it by this path.

use std::fmt;

/// A serving tenant's identity. Doubles as the value of the `tenant`
/// metrics label (see [`crate::metrics::Labels`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}
