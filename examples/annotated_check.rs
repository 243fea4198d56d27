//! Static analysis in action: record a two-stream program with a missing
//! synchronization edge, let the analyzer refuse it, and print the
//! compiler-style annotated listing that points at the offending actions.
//! Then add the one `record_event`/`wait_event` pair the analyzer asked
//! for and watch the same program run clean.
//!
//! Run with: `cargo run --release --example annotated_check`

use hstreams::kernel::KernelDesc;
use hstreams::{Context, Error};
use micsim::compute::KernelProfile;
use micsim::PlatformConfig;

fn kernel(label: &str) -> KernelDesc {
    KernelDesc::simulated(label, KernelProfile::streaming("stage", 1e9), 1e6)
}

fn main() -> hstreams::Result<()> {
    let mut ctx = Context::builder(PlatformConfig::phi_31sp())
        .partitions(2)
        .build()?;

    // Producer on stream 0 fills `a`; consumer on stream 1 reads it into
    // `b` — but nothing orders the two streams, so the read races the
    // upload and the producing kernel.
    let a = ctx.alloc("a", 1 << 16);
    let b = ctx.alloc("b", 1 << 16);
    let (s0, s1) = (ctx.stream(0)?, ctx.stream(1)?);
    ctx.h2d(s0, a)?;
    ctx.kernel(s0, kernel("produce").writing([a]))?;
    ctx.kernel(s1, kernel("consume").reading([a]).writing([b]))?;
    ctx.d2h(s1, b)?;

    // Executors run this analysis before they run a program and refuse;
    // `analyze()` runs it on demand so we can render the annotated listing
    // ourselves.
    let analysis = ctx.analyze();
    println!("--- annotated program (racy) ---");
    print!("{}", ctx.program().dump_annotated(&analysis.report));

    match ctx.run_sim() {
        Err(Error::Check(report)) => {
            println!("\nexecutor refused: {}", report.summary());
        }
        other => panic!("expected the check to reject the program: {other:?}"),
    }

    // The fix the diagnostics point at: one cross-stream event edge from
    // the producer to the consumer. Re-record with it and run.
    ctx.reset_program();
    ctx.h2d(s0, a)?;
    ctx.kernel(s0, kernel("produce").writing([a]))?;
    let ready = ctx.record_event(s0)?;
    ctx.wait_event(s1, ready)?;
    ctx.kernel(s1, kernel("consume").reading([a]).writing([b]))?;
    ctx.d2h(s1, b)?;

    let analysis = ctx.analyze();
    println!("\n--- annotated program (synchronized) ---");
    print!("{}", ctx.program().dump_annotated(&analysis.report));
    let report = ctx.run_sim()?;
    println!("\nran clean: makespan {:?}", report.makespan());
    Ok(())
}
