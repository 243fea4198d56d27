//! Cholesky Factorization on one vs two simulated MICs — the Sec. VI /
//! Fig. 11 story: the same streamed code runs unmodified on two cards and
//! gains substantially, but stays below the projected 2× because separate
//! memories force extra tile transfers and cross-card synchronization.
//! The rows are `mic_bench::figures::fig11`'s.
//!
//! Run with: `cargo run --release --example multi_device`

use mic_bench::figures;
use micsim::PlatformConfig;

fn main() {
    let fig = &figures::fig11(&PlatformConfig::phi_31sp())[0];
    println!("| dataset | 1-mic GFLOPS | 2-mics GFLOPS | projected | achieved/projected |");
    println!("|---|---|---|---|---|");
    for dataset in ["14000^2", "16000^2"] {
        let gflops = |series| fig.value(series, dataset).expect("a Fig. 11 row");
        let (one, two, projected) = (gflops("1-mic"), gflops("2-mics"), gflops("projected"));
        println!(
            "| {dataset} | {one:.0} | {two:.0} | {projected:.0} | {:.0}% |",
            two / projected * 100.0
        );
    }
    println!(
        "\nThe gap to the projection is the cost of mirroring factored tiles \
         between the cards' separate memories plus pricier cross-card barriers \
         — exactly the two causes the paper names."
    );
}
