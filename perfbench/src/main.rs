//! The FlashSparse workspace benchmark: one command, three workloads,
//! end-to-end metrics by default and a per-layer split on request.
//!
//! ```text
//! perfbench --workload <kernel|serve-churn|gnn-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` before any server sees it, and
//! every operation's output is checked against a reference computed
//! outside the timed region. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A human-readable summary and the run record (seed,
//! `nproc`, engine workers, scalar-reference GFLOP/s of this host) go to
//! standard error and to `perfbench/out/`. See `perfbench/README.md`.

mod cluster;
mod gnn;
mod kernel;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod steal;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// The three workloads, by their `--workload` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Kernel,
    ServeChurn,
    GnnMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Kernel, Workload::ServeChurn, Workload::GnnMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernel => "kernel",
            Workload::ServeChurn => "serve-churn",
            Workload::GnnMixed => "gnn-mixed",
        }
    }
}

/// One run's settings, straight from the command line.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase (split in half by a traced run:
    /// untraced, then traced).
    pub measure: Duration,
    pub trace: bool,
    /// Where the run record and span timeline go.
    pub out_dir: PathBuf,
}

impl Config {
    /// A seed for one named input stream of this run, so inputs do not
    /// shift when another stream draws more numbers.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        stats::mix(self.seed ^ stats::mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Kernel => kernel::run(cfg),
        Workload::ServeChurn => serve::run_churn(cfg),
        Workload::GnnMixed => gnn::run(cfg),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let sampler = steal::start();
    let result = run(&cfg);
    let line = result.map(|outcome| report::finish(&cfg, outcome));
    sampler.stop();
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
