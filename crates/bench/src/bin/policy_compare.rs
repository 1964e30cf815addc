//! Adaptation-engine head-to-head: the three [`AdaptationPolicy`]
//! implementations — threshold, fuzzy, Bayesian — run through the
//! scripted comparison scenarios (`burst_loss`, `ecn_flood`,
//! `noisy_spike`) and a raw `decide` throughput sweep.
//!
//! Two outputs:
//!
//! * the delivered-utility table EXPERIMENTS.md reproduces — one row
//!   per scenario × engine, scored by
//!   [`cqos_core::experiments::score_engine`]'s utility model;
//! * raw `decide` throughput per engine over one shared state batch.
//!
//! `--quick` shrinks the throughput sweep for CI.

use bench::{fmt, header, quick_mode, row, time_best};
use cqos_core::experiments::{default_comparison_policies, run_policy_comparison};
use cqos_core::{AdaptationPolicy, EngineChoice, QosContract};
use std::collections::BTreeMap;

/// A deterministic batch of observed states sweeping both measured
/// metrics across their bands — every engine decides the same inputs.
fn state_batch() -> Vec<BTreeMap<String, f64>> {
    let mut batch = Vec::new();
    for loss_tenths in 0..200u32 {
        for cong in [0.0, 3.0, 12.0, 40.0, 75.0] {
            let mut s = BTreeMap::new();
            s.insert("loss_pct".to_string(), f64::from(loss_tenths) * 0.25);
            s.insert("congestion_pct".to_string(), cong);
            batch.push(s);
        }
    }
    batch
}

fn main() {
    let seed = 7u64;
    let scores = run_policy_comparison(seed);

    let widths = [12, 10, 6, 10, 6, 11, 9];
    println!("engine comparison (seed {seed}): delivered utility per scenario");
    header(
        &[
            "scenario",
            "engine",
            "sent",
            "delivered",
            "lost",
            "downgrades",
            "utility",
        ],
        &widths,
    );
    for s in &scores {
        row(
            &[
                s.scenario.to_string(),
                s.engine.to_string(),
                s.sent.to_string(),
                s.delivered.to_string(),
                s.lost.to_string(),
                s.downgrades.to_string(),
                fmt(s.utility),
            ],
            &widths,
        );
    }
    println!();

    let reps = if quick_mode() { 3 } else { 10 };
    let batch = state_batch();
    let widths = [10, 13];
    header(&["engine", "decisions/s"], &widths);
    for choice in EngineChoice::all() {
        let engine = choice.build(default_comparison_policies(), QosContract::default());
        let (decisions, secs) = time_best(reps, || {
            let mut n = 0u64;
            for state in &batch {
                let d = engine.decide(state);
                n += u64::from(d.max_packets != u32::MAX);
            }
            n
        });
        row(
            &[
                engine.name().to_string(),
                format!("{:.0}", decisions as f64 / secs),
            ],
            &widths,
        );
    }
}
