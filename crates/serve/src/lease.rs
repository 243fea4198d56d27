//! Elastic partition leasing — the multi-tenant generalization of
//! [`Context::replan`](hstreams::context::Context::replan).
//!
//! A replan gives *one* caller a new partition count by re-initializing
//! the whole device. A [`LeaseTable`] instead carves a fixed partition
//! space (the context's
//! [`replan_capacity`](hstreams::context::Context::replan_capacity)) into
//! per-tenant **grants** that grow and shrink between runs without
//! touching device state: the service plans the shared context at the
//! table's capacity once, and elasticity is pure bookkeeping over which
//! physical partitions each tenant's streams may be placed on.
//!
//! Like `replan`, every mutation **validates before committing**: a
//! rejected grow/shrink/poison leaves the table byte-identical, so a
//! scheduler can speculatively resize tenants and treat errors as "try
//! a smaller grant" rather than "reconstruct the world".
//!
//! Invariants (checked by [`LeaseTable::check_invariants`] and pinned by
//! the `proptest_lease` property tests):
//!
//! * every physical partition is either free or held by exactly one
//!   tenant — Σ granted + free == capacity;
//! * a poisoned partition is always part of its tenant's grant.

use std::collections::{BTreeMap, BTreeSet};

use hstreams::lease::TenantId;
use hstreams::types::{Error, Result};

/// One tenant's current grant.
#[derive(Clone, Debug, Default)]
pub struct Lease {
    /// Physical partitions held, ascending.
    partitions: BTreeSet<usize>,
    /// Partitions of the grant lost to a kernel panic in the last run
    /// and not yet healed or released.
    poisoned: BTreeSet<usize>,
}

impl Lease {
    /// Physical partitions held, ascending.
    pub fn partitions(&self) -> impl Iterator<Item = usize> + '_ {
        self.partitions.iter().copied()
    }

    /// Number of partitions held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when the grant is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Poisoned partitions of the grant, ascending.
    pub fn poisoned(&self) -> impl Iterator<Item = usize> + '_ {
        self.poisoned.iter().copied()
    }

    /// Partitions that are held and healthy, ascending.
    pub fn healthy(&self) -> impl Iterator<Item = usize> + '_ {
        self.partitions
            .iter()
            .copied()
            .filter(move |p| !self.poisoned.contains(p))
    }
}

/// The lease table: a fixed physical partition space shared by tenants.
/// See the [module docs](self).
#[derive(Clone, Debug)]
pub struct LeaseTable {
    capacity: usize,
    free: BTreeSet<usize>,
    leases: BTreeMap<TenantId, Lease>,
}

impl LeaseTable {
    /// A table over `capacity` physical partitions, all free.
    #[must_use]
    pub fn new(capacity: usize) -> LeaseTable {
        LeaseTable {
            capacity,
            free: (0..capacity).collect(),
            leases: BTreeMap::new(),
        }
    }

    /// Total physical partitions the table manages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Partitions currently granted across all tenants.
    #[must_use]
    pub fn granted_total(&self) -> usize {
        self.leases.values().map(Lease::len).sum()
    }

    /// Partitions currently free.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Tenants with a (possibly empty) lease, ascending.
    pub fn tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.leases.keys().copied()
    }

    /// Borrow a tenant's lease, if any.
    #[must_use]
    pub fn lease(&self, tenant: TenantId) -> Option<&Lease> {
        self.leases.get(&tenant)
    }

    /// Which tenant holds physical partition `p`, if any.
    #[must_use]
    pub fn partition_owner(&self, p: usize) -> Option<TenantId> {
        self.leases
            .iter()
            .find(|(_, l)| l.partitions.contains(&p))
            .map(|(&t, _)| t)
    }

    /// Grow `tenant`'s grant by `n` partitions (creating the lease on
    /// first contact) and return the newly granted physical partitions,
    /// ascending — the lowest free ids, so grants are deterministic.
    ///
    /// # Errors
    /// [`Error::Config`] when fewer than `n` partitions are free; the
    /// table is unchanged.
    pub fn grow(&mut self, tenant: TenantId, n: usize) -> Result<Vec<usize>> {
        if self.free.len() < n {
            return Err(Error::Config(format!(
                "lease grow({tenant}, {n}) exceeds free partitions: {} of {} free",
                self.free.len(),
                self.capacity
            )));
        }
        let granted: Vec<usize> = self.free.iter().copied().take(n).collect();
        for &p in &granted {
            self.free.remove(&p);
        }
        let lease = self.leases.entry(tenant).or_default();
        lease.partitions.extend(granted.iter().copied());
        Ok(granted)
    }

    /// Shrink `tenant`'s grant by `n` partitions and return the released
    /// physical partitions. Poisoned partitions are released first (they
    /// are the ones a tenant wants rid of), then the highest healthy ids.
    /// Released partitions rejoin the free pool healed.
    ///
    /// # Errors
    /// [`Error::Config`] when the tenant holds fewer than `n` partitions
    /// (or no lease at all); the table is unchanged.
    pub fn shrink(&mut self, tenant: TenantId, n: usize) -> Result<Vec<usize>> {
        let held = self.leases.get(&tenant).map_or(0, Lease::len);
        if held < n {
            return Err(Error::Config(format!(
                "lease shrink({tenant}, {n}) exceeds the grant of {held}"
            )));
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let lease = self.leases.get_mut(&tenant).expect("held >= n > 0 checked");
        let mut released: Vec<usize> = lease.poisoned.iter().copied().take(n).collect();
        let mut rest = n - released.len();
        for &p in lease.partitions.iter().rev() {
            if rest == 0 {
                break;
            }
            if !lease.poisoned.contains(&p) {
                released.push(p);
                rest -= 1;
            }
        }
        for &p in &released {
            lease.partitions.remove(&p);
            lease.poisoned.remove(&p);
            self.free.insert(p);
        }
        released.sort_unstable();
        Ok(released)
    }

    /// Drop `tenant`'s lease entirely: all partitions rejoin the free
    /// pool healed, and the freed partitions are returned ascending. A
    /// tenant without a lease releases nothing.
    pub fn release(&mut self, tenant: TenantId) -> Vec<usize> {
        let Some(lease) = self.leases.remove(&tenant) else {
            return Vec::new();
        };
        let freed: Vec<usize> = lease.partitions.iter().copied().collect();
        self.free.extend(freed.iter().copied());
        freed
    }

    /// Mark physical partition `p` of `tenant`'s grant poisoned — the
    /// service calls this when a run loses the partition to an injected
    /// or real kernel panic, so the next placement avoids it until
    /// [healed](LeaseTable::heal).
    ///
    /// # Errors
    /// [`Error::Config`] when `p` is not part of the tenant's grant; the
    /// table is unchanged.
    pub fn poison(&mut self, tenant: TenantId, p: usize) -> Result<()> {
        let lease = self
            .leases
            .get_mut(&tenant)
            .filter(|l| l.partitions.contains(&p))
            .ok_or_else(|| {
                Error::Config(format!(
                    "poison({tenant}, p{p}): partition not in the grant"
                ))
            })?;
        lease.poisoned.insert(p);
        Ok(())
    }

    /// Clear all poison marks on `tenant`'s grant (the partitions were
    /// only lost for the duration of the failed run; the next run may
    /// place on them again).
    pub fn heal(&mut self, tenant: TenantId) {
        if let Some(lease) = self.leases.get_mut(&tenant) {
            lease.poisoned.clear();
        }
    }

    /// Verify the structural invariants (see the [module docs](self)).
    ///
    /// # Errors
    /// [`Error::Config`] describing the first violated invariant.
    pub fn check_invariants(&self) -> Result<()> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for (t, lease) in &self.leases {
            for &p in &lease.partitions {
                if p >= self.capacity {
                    return Err(Error::Config(format!("{t} holds p{p} >= capacity")));
                }
                if self.free.contains(&p) {
                    return Err(Error::Config(format!("{t} holds p{p} which is also free")));
                }
                if !seen.insert(p) {
                    return Err(Error::Config(format!("p{p} held by two tenants")));
                }
            }
            if let Some(&p) = lease.poisoned.difference(&lease.partitions).next() {
                return Err(Error::Config(format!("{t} poisons unheld p{p}")));
            }
        }
        if seen.len() + self.free.len() != self.capacity {
            return Err(Error::Config(format!(
                "granted {} + free {} != capacity {}",
                seen.len(),
                self.free.len(),
                self.capacity
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_grants_lowest_free_ids() {
        let mut t = LeaseTable::new(4);
        assert_eq!(t.grow(TenantId(0), 2).unwrap(), vec![0, 1]);
        assert_eq!(t.grow(TenantId(1), 1).unwrap(), vec![2]);
        assert_eq!(t.granted_total(), 3);
        assert_eq!(t.free_count(), 1);
        assert_eq!(t.partition_owner(2), Some(TenantId(1)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn overcommit_is_rejected_without_side_effects() {
        let mut t = LeaseTable::new(2);
        t.grow(TenantId(0), 2).unwrap();
        let before = format!("{t:?}");
        assert!(t.grow(TenantId(1), 1).is_err());
        assert_eq!(format!("{t:?}"), before, "rejected grow must not commit");
        t.check_invariants().unwrap();
    }

    #[test]
    fn shrink_releases_poisoned_first_then_highest() {
        let mut t = LeaseTable::new(4);
        t.grow(TenantId(7), 4).unwrap();
        t.poison(TenantId(7), 1).unwrap();
        assert_eq!(t.shrink(TenantId(7), 2).unwrap(), vec![1, 3]);
        let lease = t.lease(TenantId(7)).unwrap();
        assert_eq!(lease.partitions().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(lease.poisoned().count(), 0);
        // Released partitions are free (and healed) again.
        assert_eq!(t.grow(TenantId(8), 2).unwrap(), vec![1, 3]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn shrink_past_grant_is_rejected() {
        let mut t = LeaseTable::new(3);
        t.grow(TenantId(0), 1).unwrap();
        assert!(t.shrink(TenantId(0), 2).is_err());
        assert!(t.shrink(TenantId(9), 1).is_err(), "no lease at all");
        assert_eq!(t.lease(TenantId(0)).unwrap().len(), 1);
    }

    #[test]
    fn poison_heal_and_healthy_view() {
        let mut t = LeaseTable::new(3);
        t.grow(TenantId(2), 3).unwrap();
        t.poison(TenantId(2), 1).unwrap();
        assert!(t.poison(TenantId(2), 5).is_err(), "not in the grant");
        assert!(t.poison(TenantId(3), 0).is_err(), "someone else's grant");
        let lease = t.lease(TenantId(2)).unwrap();
        assert_eq!(lease.healthy().collect::<Vec<_>>(), vec![0, 2]);
        t.heal(TenantId(2));
        assert_eq!(t.lease(TenantId(2)).unwrap().healthy().count(), 3);
    }

    #[test]
    fn release_frees_everything() {
        let mut t = LeaseTable::new(2);
        t.grow(TenantId(0), 2).unwrap();
        assert_eq!(t.release(TenantId(0)), vec![0, 1]);
        assert_eq!(t.free_count(), 2);
        assert!(t.release(TenantId(0)).is_empty(), "idempotent");
        t.check_invariants().unwrap();
    }
}
