//! The paper's figures and tables, regenerated on the simulator.
//!
//! ```text
//! cargo run --release -p mic-bench --bin figures [ID...]
//! ```
//!
//! Prints the figures of every id given (all of them when none is), each
//! followed by the paper's check, and writes each figure's CSV under
//! `results/` (or `$RESULTS_DIR`). The ids are listed in
//! `mic_bench::figures`.

use mic_bench::figures::ALL;
use micsim::PlatformConfig;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    for id in &ids {
        if !ALL.iter().any(|(known, ..)| known == id) {
            let known: Vec<&str> = ALL.iter().map(|(known, ..)| *known).collect();
            eprintln!(
                "warning: unknown figure id {id} (known: {})",
                known.join(", ")
            );
        }
    }
    let platform = PlatformConfig::phi_31sp();
    for (id, figure, check) in ALL {
        if ids.is_empty() || ids.iter().any(|wanted| wanted == id) {
            for fig in figure(&platform) {
                fig.emit();
            }
            println!("{check}");
        }
    }
}
