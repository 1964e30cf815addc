//! The package's own end-to-end test: `--smoke` runs of every workload.
//!
//! * two in-process runs with one seed give bit-equal count and
//!   sim-time metrics (the session is deterministic; only host-time
//!   metrics may differ);
//! * every metric name in `BENCHMARK.json` is reported exactly once per
//!   workload — end-to-end names with tracing off, per-layer names with
//!   it on — in the file's order, and nothing else is.

use benchmark::harness::{self, Options};
use benchmark::report::{json_names, RunResult};
use benchmark::workloads;

fn smoke(workload: &str, seed: u64, trace: bool) -> RunResult {
    harness::run(&Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
    })
}

/// The names listed under one key of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let rest = &text[start..];
    let end = rest.find(']').expect("the list closes");
    json_names(&rest[..end])
}

#[test]
fn same_seed_gives_bit_equal_deterministic_metrics() {
    const DETERMINISTIC: [&str; 6] = [
        "sim_delivery_ms_p50",
        "sim_delivery_ms_p99",
        "goodput_kbit_per_sim_s",
        "wire_bytes_per_delivery",
        "psnr_db_mean",
        "fail_share",
    ];
    for name in workloads::NAMES {
        let (a, b) = (smoke(name, 7, false), smoke(name, 7, false));
        assert!(a.correct(), "{name}: {:?}", a.notes);
        assert!(a.attempted > 0);
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{name}");
        for metric in DETERMINISTIC {
            let (x, y) = (a.metric(metric), b.metric(metric));
            assert!(x.is_some(), "{name} reports {metric}");
            assert_eq!(
                x.map(f64::to_bits),
                y.map(f64::to_bits),
                "{name}: {metric} differs between two runs of one seed"
            );
        }
        // A different seed is a different run, and still a correct one.
        let c = smoke(name, 8, false);
        assert!(c.correct(), "{name} seed 8: {:?}", c.notes);
    }
}

#[test]
fn every_benchmark_json_metric_is_reported_once() {
    assert_eq!(listed("workloads"), workloads::NAMES);
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for name in workloads::NAMES {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let run = smoke(name, 11, trace);
            assert!(run.correct(), "{name}: {:?}", run.notes);
            let got: Vec<String> = run.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(&got, want, "{name}, trace {trace}");
            // The table names each of them once, and the JSON line too.
            let (table, json) = (run.table(), run.json_line());
            for metric in want {
                assert_eq!(
                    table.matches(&format!("  {metric} ")).count(),
                    1,
                    "{metric}"
                );
                assert_eq!(
                    json.matches(&format!("\"{metric}\":")).count(),
                    1,
                    "{metric}"
                );
            }
        }
    }
}
