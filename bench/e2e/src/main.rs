//! `mic-e2e` — the repository's end-to-end + per-layer benchmark.
//!
//! `mic-e2e --workload W --seed N --seconds S --trace 0|1` prints every
//! metric by name and unit on stderr and one result JSON object as the last
//! line of stdout. See the README next to this crate.

mod adapter;
mod alloc;
mod catalog;
mod deck;
mod harness;
mod json;
mod pin;
mod probes;
mod span;
mod stats;
mod workloads {
    pub mod cf_native;
    pub mod dispatch_tiny;
    pub mod serve_mixed;
    pub mod sim_sweep;
}

use harness::{RunOutput, Workload};
use json::{Metric, RunResult};
use workloads::cf_native::CfNative;
use workloads::dispatch_tiny::DispatchTiny;
use workloads::serve_mixed::ServeMixed;
use workloads::sim_sweep::SimSweep;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    unpinned: bool,
    self_test: bool,
}

const USAGE: &str = "usage: mic-e2e --workload cf_native|dispatch_tiny|serve_mixed|sim_sweep \
                     --seed N --seconds S --trace 0|1 [--unpinned]\n       mic-e2e --self-test [--seed N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0,
        trace: false,
        unpinned: false,
        self_test: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?.clone(),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--unpinned" => args.unpinned = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test {
        if !catalog::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {:?}",
                catalog::WORKLOADS
            ));
        }
        if !(1..=60).contains(&args.seconds) {
            return Err("--seconds must be 1..=60".into());
        }
    }
    Ok(args)
}

fn run<W: Workload>(args: &Args, cpu: Option<usize>) -> Result<RunOutput, String> {
    if !args.trace {
        return harness::run_end_to_end::<W>(args.seed, args.seconds);
    }
    let (out, chrome) = harness::run_traced::<W>(args.seed, args.seconds, cpu)?;
    // Written next to the crate's sources when run from the repository
    // root, as run.sh does; `results/` is ignored by git.
    let dir = std::path::Path::new("bench/e2e/results");
    let path = dir.join(format!("trace_{}.json", W::NAME));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chrome)) {
        Ok(()) => eprintln!("mic-e2e: wrote {}", path.display()),
        Err(e) => eprintln!("mic-e2e: cannot write {}: {e}", path.display()),
    }
    Ok(out)
}

fn self_test(seed: u64) -> Result<(), String> {
    let results = [
        (CfNative::NAME, harness::run_self_test::<CfNative>(seed)?),
        (
            DispatchTiny::NAME,
            harness::run_self_test::<DispatchTiny>(seed)?,
        ),
        (
            ServeMixed::NAME,
            harness::run_self_test::<ServeMixed>(seed)?,
        ),
        (SimSweep::NAME, harness::run_self_test::<SimSweep>(seed)?),
    ];
    let mut missed = Vec::new();
    for (name, (attempted, failed)) in results {
        eprintln!("mic-e2e: self-test {name}: {failed} of {attempted} ops flagged after one corrupted output");
        // Exactly the damaged op: a verifier that flags clean ops is as
        // broken as one that flags none.
        if failed != 1 || attempted < 2 {
            missed.push(name);
        }
    }
    if missed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "self-test: the verifier of {missed:?} did not flag exactly the corrupted op"
        ))
    }
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mic-e2e: {e}\n{USAGE}");
            return 2.into();
        }
    };

    // Before any context, service or thread exists: every runtime thread
    // inherits the mask.
    let cpu = if args.unpinned {
        eprintln!("mic-e2e: --unpinned (diagnostic): numbers will not repeat");
        None
    } else {
        match pin::pin_to_quietest_cpu() {
            Ok(cpu) => {
                eprintln!("mic-e2e: pinned to cpu {cpu}");
                Some(cpu)
            }
            Err(e) => {
                eprintln!("mic-e2e: cannot pin to one CPU: {e}");
                return 3.into();
            }
        }
    };
    eprintln!(
        "mic-e2e: available_parallelism = {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );

    if args.self_test {
        return match self_test(args.seed) {
            Ok(()) => {
                eprintln!("mic-e2e: self-test passed");
                0.into()
            }
            Err(e) => {
                eprintln!("mic-e2e: {e}");
                1.into()
            }
        };
    }

    let out = match args.workload.as_str() {
        CfNative::NAME => run::<CfNative>(&args, cpu),
        DispatchTiny::NAME => run::<DispatchTiny>(&args, cpu),
        ServeMixed::NAME => run::<ServeMixed>(&args, cpu),
        SimSweep::NAME => run::<SimSweep>(&args, cpu),
        _ => unreachable!("validated by parse_args"),
    };
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mic-e2e: {e}");
            return 1.into();
        }
    };

    let metrics = if args.trace {
        catalog::complete_per_layer(out.metrics)
    } else {
        out.metrics
    };
    for Metric { name, value, unit } in &metrics {
        eprintln!("  {name:<44} {value:>16.6} {unit}");
    }
    eprintln!("  attempted {} failed {}", out.attempted, out.failed);
    let result = RunResult {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    };
    match result.to_json() {
        Ok(line) => {
            println!("{line}");
            0.into()
        }
        Err(e) => {
            eprintln!("mic-e2e: {e}");
            1.into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 30, true)
        );
        assert!(!a.unpinned && !a.self_test);
        assert!(parse_args(&argv("--self-test")).unwrap().self_test);
    }

    #[test]
    fn refuses_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload cf_native --seed 1 --seconds 0 --trace 0",
            "--workload cf_native --seed 1 --seconds 61 --trace 0",
            "--workload cf_native --seed x --seconds 5 --trace 0",
            "--workload cf_native --seed 1 --seconds 5 --trace 2",
            "--workload cf_native --seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
