//! A warm native run allocates per run, not per launch — and a run that
//! repeats the last program reuses its checked walk instead of deriving it
//! again.
//!
//! A counting global allocator tallies the allocations (fresh blocks and
//! reallocations) of the whole process — a native run allocates on its
//! driver threads too — so this file holds one test. The program is the
//! small-granularity shape of the paper's Fig. 10: tiles of 64 elements
//! round-robin over two streams, each `H2D → kernel → D2H`, every 8th tile
//! reading the other stream's last output behind an event, a barrier
//! closing every 64 tiles. It is re-recorded on one context before each
//! run, as a measurement loop does.
//!
//! * **Per launch: nothing.** A warm `T`-tile and a warm `2T`-tile run
//!   make the same number of allocations. The buffer list to lock, the
//!   lock guards, the write slots and the `reads` and `writes` views a
//!   body's `KernelCtx` borrows all stay inline; the body is called
//!   through the launch's own `Arc`, and a driver installs its
//!   partition's worker group once per run.
//!
//!   Measured (x86-64, release, `T = 128`): 9 allocations at `T` and 9 at
//!   `2T`. With the views in two `Vec`s per launch the same runs made 268
//!   and 524, 2 per extra launch; with every scratch list in a `Vec`, 671
//!   and 1 313.
//!
//! * **Per program.** A run whose program the runtime's walk memo already
//!   holds skips the analysis and the graph build, so it allocates fewer
//!   blocks than a run of the same program after another one.
//!
//!   Measured (x86-64, release, 256 tiles): 9 allocations on a hit, 30 on
//!   a miss.

mod alloc_counter;

use hstreams::context::Context;
use hstreams::kernel::KernelDesc;
use hstreams::types::BufId;
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

const ELEMS: usize = 64;

/// Re-record `tiles` tiles over the context's two streams.
fn record(ctx: &mut Context, bufs: &[(BufId, BufId)], tiles: usize) {
    ctx.reset_program();
    for (i, &(input, out)) in bufs[..tiles].iter().enumerate() {
        let s = ctx.stream(i % 2).unwrap();
        let source = if i % 8 == 7 {
            let e = ctx.record_event(ctx.stream((i - 1) % 2).unwrap()).unwrap();
            ctx.wait_event(s, e).unwrap();
            bufs[i - 1].1
        } else {
            ctx.h2d(s, input).unwrap();
            input
        };
        let inc = KernelDesc::simulated("inc", KernelProfile::streaming("inc", 1e9), 1.0)
            .reading([source])
            .writing([out])
            .with_native(|k| {
                for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                    *o = i + 1.0;
                }
            });
        ctx.kernel(s, inc).unwrap();
        ctx.d2h(s, out).unwrap();
        if (i + 1) % 64 == 0 {
            ctx.barrier();
        }
    }
}

/// Process-wide allocations of one native run.
fn run_allocations(ctx: &Context) -> u64 {
    let ((_, process), report) = alloc_counter::counted(|| ctx.run_native());
    report.expect("the program runs");
    process
}

#[test]
fn a_warm_native_run_allocates_per_run_not_per_launch() {
    let (t, t2) = (128, 256);
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .build()
        .unwrap();
    let bufs: Vec<(BufId, BufId)> = (0..t2)
        .map(|i| {
            (
                ctx.alloc(format!("a{i}"), ELEMS),
                ctx.alloc(format!("b{i}"), ELEMS),
            )
        })
        .collect();
    for &(input, _) in &bufs {
        ctx.write_host(input, &[1.5; ELEMS]).unwrap();
    }
    // Warm: the runtime exists, every buffer is backed, the memo holds
    // the program about to run.
    let warm = |ctx: &mut Context, tiles| {
        record(ctx, &bufs, tiles);
        run_allocations(ctx);
        record(ctx, &bufs, tiles);
        run_allocations(ctx)
    };
    let small = warm(&mut ctx, t);
    let large = warm(&mut ctx, t2);
    // A miss: the memo holds the `T`-tile program.
    warm(&mut ctx, t);
    record(&mut ctx, &bufs, t2);
    let missed = run_allocations(&ctx);
    record(&mut ctx, &bufs, t2);
    let hit = run_allocations(&ctx);
    eprintln!("T = {t}: {small} allocations; 2T = {t2}: {large}");
    eprintln!("2T, memo miss: {missed} allocations; memo hit: {hit}");
    // The last tile reads the one before it: 1.5 + 1 + 1.
    assert_eq!(ctx.read_host(bufs[t2 - 1].1).unwrap(), vec![3.5; ELEMS]);
    assert_eq!(
        large,
        small,
        "{small} -> {large} allocations for {} more launches",
        t2 - t
    );
    assert!(hit < missed, "memo hit {hit}, miss {missed}");
}
