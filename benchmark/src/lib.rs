//! The SDNShield reference benchmark: five workloads from the permission
//! check out to the loopback wire, measured only through the product
//! crates' public APIs. See `README.md` for what each number means.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod inproc;
pub mod json;
pub mod kernelw;
pub mod l2;
pub mod l2mix;
pub mod ladder;
pub mod replay;
pub mod runner;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod wire;

use runner::{AllocStats, RunArgs};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "wire_lat",
    "wire_tput",
    "inproc_l2",
    "kernel_write",
    "kernel_read",
];

const USAGE: &str = "\
usage:
  sdnshield-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload, one result line (the contract the driver uses)
  sdnshield-benchmark run [--seed <n>] [--smoke]
      every workload untraced and traced, in child processes;
      writes benchmark/out/result.json
  sdnshield-benchmark aa [--seed <n>] [--smoke]
      the untraced set twice; writes benchmark/out/aa.json
run from the repository root.";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Entry point shared by both binaries. `alloc` is the counting
/// allocator's read-out in the traced binary. Returns the exit code.
pub fn main_with(alloc: Option<&'static dyn AllocStats>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    let smoke = args.iter().any(|a| a == "--smoke");
    match args.first().map(String::as_str) {
        Some("run") => return suite::run(seed.unwrap_or(1), smoke),
        Some("aa") => return suite::aa(seed.unwrap_or(1), smoke),
        _ => {}
    }
    let parsed = (|| {
        Some((
            flag(&args, "--workload")?,
            RunArgs {
                seed: seed?,
                seconds: flag(&args, "--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)?,
                trace: match flag(&args, "--trace")? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                },
            },
        ))
    })();
    let Some((workload, run_args)) = parsed else {
        eprintln!("{USAGE}");
        return 2;
    };
    let correct = match workload {
        "wire_lat" => runner::run::<wire::WireWorkload<false>>(&run_args, alloc),
        "wire_tput" => runner::run::<wire::WireWorkload<true>>(&run_args, alloc),
        "inproc_l2" => runner::run::<inproc::InprocWorkload>(&run_args, alloc),
        "kernel_write" => runner::run::<kernelw::KernelWorkload<false>>(&run_args, alloc),
        "kernel_read" => runner::run::<kernelw::KernelWorkload<true>>(&run_args, alloc),
        other => {
            eprintln!("unknown workload `{other}`; known: {WORKLOADS:?}");
            return 2;
        }
    };
    i32::from(!correct)
}
