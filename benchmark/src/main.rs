//! Command line of the repo benchmark.
//!
//! ```text
//! collabqos-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>]
//!                     [--trace <0|1> | --traced] [--smoke]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints,
//! as the last line of standard output, the one-line JSON result.
//! Without it, it runs every workload — first with tracing off, then
//! traced — each in a child process of its own, so `peak_rss_mb` is the
//! workload's and not the sum of what ran before it.

use benchmark::harness::{self, Options};
use benchmark::workloads;
use std::process::{Command, ExitCode};

/// Default `--seed` (the one `results/BENCH_11.json` was taken with)
/// and the default time box, `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: an untraced pass, then a traced one.
    trace: Option<bool>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; one of {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must lie in 0..=600".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => cli.trace = Some(true),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

impl Cli {
    /// The passes to run: the one asked for, or untraced then traced.
    fn passes(&self) -> &'static [bool] {
        match self.trace {
            Some(true) => &[true],
            Some(false) => &[false],
            None => &[false, true],
        }
    }
}

/// Run one workload in this process; true when the oracle agreed.
fn run_here(cli: &Cli, workload: &str, trace: bool) -> bool {
    let result = harness::run(&Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        smoke: cli.smoke,
    });
    print!("{}", result.table());
    println!("{}", result.json_line());
    result.correct()
}

/// Run every workload and pass, one child process each.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for &trace in cli.passes() {
        for name in workloads::NAMES {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if cli.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child; its output goes straight
            // to ours.
            let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &cli.workload {
        Some(name) => cli
            .passes()
            .iter()
            .all(|&trace| run_here(&cli, name, trace)),
        None => match run_all(&cli) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: the oracle disagreed with at least one workload");
        ExitCode::FAILURE
    }
}
