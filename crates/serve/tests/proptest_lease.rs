//! Property tests for the lease table: **any** interleaving of
//! grow / shrink / poison / heal / release operations — including ones
//! the table rejects — keeps the structural invariants:
//!
//! * Σ granted + free == capacity (so Σ granted ≤ device partitions);
//! * every partition has at most one owner;
//! * poison marks only ever sit on held partitions.
//!
//! Cross-tenant buffer isolation is not the table's: the service's
//! per-tenant buffer cache and relocation's refusal of a foreign buffer
//! enforce it (`serve_isolation` and `relocate`'s
//! `foreign_buffer_references_are_rejected`).

use proptest::prelude::*;
use stream_serve::{Lease, LeaseTable, TenantId};

const CAPACITY: usize = 8;
const TENANTS: u16 = 5;

#[derive(Clone, Debug)]
enum Op {
    Grow(u16, usize),
    Shrink(u16, usize),
    Poison(u16, usize),
    Heal(u16),
    Release(u16),
}

/// Decode one `(kind, tenant, arg)` draw into an operation. The shimmed
/// proptest has no `prop_oneof`, so the discriminant is an integer.
fn decode((kind, t, arg): (u8, u16, usize)) -> Op {
    match kind % 5 {
        0 => Op::Grow(t, arg % (CAPACITY + 1)),
        1 => Op::Shrink(t, arg % (CAPACITY + 1)),
        2 => Op::Poison(t, arg % CAPACITY),
        3 => Op::Heal(t),
        _ => Op::Release(t),
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u16, usize)>> {
    proptest::collection::vec((0u8..5, 0..TENANTS, 0usize..64), 1..60)
}

fn apply(table: &mut LeaseTable, op: &Op) {
    match *op {
        Op::Grow(t, n) => {
            let _ = table.grow(TenantId(t), n);
        }
        Op::Shrink(t, n) => {
            let _ = table.shrink(TenantId(t), n);
        }
        Op::Poison(t, p) => {
            let _ = table.poison(TenantId(t), p);
        }
        Op::Heal(t) => table.heal(TenantId(t)),
        Op::Release(t) => {
            table.release(TenantId(t));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_interleaving_preserves_the_invariants(raw in ops_strategy()) {
        let mut table = LeaseTable::new(CAPACITY);

        for draw in &raw {
            let op = decode(*draw);
            match op {
                Op::Grow(t, n) => {
                    let free = table.free_count();
                    let res = table.grow(TenantId(t), n);
                    prop_assert_eq!(res.is_ok(), n <= free, "grow fails iff overcommitted");
                }
                Op::Shrink(t, n) => {
                    let held = table.lease(TenantId(t)).map_or(0, Lease::len);
                    let res = table.shrink(TenantId(t), n);
                    prop_assert_eq!(res.is_ok(), n <= held, "shrink fails iff past the grant");
                }
                Op::Poison(t, p) => {
                    let held = table
                        .lease(TenantId(t))
                        .is_some_and(|l| l.partitions().any(|x| x == p));
                    prop_assert_eq!(table.poison(TenantId(t), p).is_ok(), held);
                }
                Op::Heal(t) => table.heal(TenantId(t)),
                Op::Release(t) => {
                    table.release(TenantId(t));
                }
            }

            // The structural invariants hold after EVERY operation,
            // accepted or rejected.
            table.check_invariants().unwrap();
            let granted: usize = table
                .tenants()
                .map(|t| table.lease(t).map_or(0, Lease::len))
                .sum();
            prop_assert!(granted <= CAPACITY, "granted {} > capacity", granted);
            prop_assert_eq!(granted + table.free_count(), CAPACITY);
            prop_assert_eq!(table.granted_total(), granted);

            // No partition has two owners: ownership lookups must agree
            // with exactly the leases that hold each partition.
            for p in 0..CAPACITY {
                let holders: Vec<TenantId> = table
                    .tenants()
                    .filter(|&t| {
                        table
                            .lease(t)
                            .is_some_and(|l| l.partitions().any(|x| x == p))
                    })
                    .collect();
                prop_assert!(holders.len() <= 1, "partition {} has {:?}", p, holders);
                prop_assert_eq!(table.partition_owner(p), holders.first().copied());
            }
        }
    }

    #[test]
    fn rejected_mutations_leave_the_table_byte_identical(
        setup in ops_strategy(),
        t in 0..TENANTS,
    ) {
        let mut table = LeaseTable::new(CAPACITY);
        for draw in &setup {
            apply(&mut table, &decode(*draw));
        }
        let before = format!("{table:?}");
        // Guaranteed-rejected calls: overcommit grow, oversize shrink,
        // out-of-range poison.
        prop_assert!(table.grow(TenantId(t), table.free_count() + 1).is_err());
        let held = table.lease(TenantId(t)).map_or(0, Lease::len);
        prop_assert!(table.shrink(TenantId(t), held + 1).is_err());
        prop_assert!(table.poison(TenantId(t), CAPACITY + 1).is_err());
        prop_assert_eq!(format!("{table:?}"), before);
    }
}
