//! §6.3.3 capacity study: "there exists an upper limit to the number of
//! clients that can join in a session ... As the upper limit is
//! approached, no transformation or change with respect to distance,
//! power, or modality will improve performance noticeably."
//!
//! Sweeps identical clients onto one base station and prints the worst
//! per-client SIR and modality after each join, plus where admission
//! control draws the line.

use bench::{fmt, header, row};
use cqos_core::experiments::run_capacity_curve;

fn main() {
    println!("§6.3.3 — session capacity limit (identical clients at 60 m, 100 mW)\n");
    let (curve, admitted) = run_capacity_curve(40);
    let widths = [8, 16, 16];
    header(&["clients", "min SIR (dB)", "worst modality"], &widths);
    for r in curve.iter().take(12) {
        row(
            &[
                r.clients.to_string(),
                fmt(r.min_sir_db),
                format!("{:?}", r.worst_modality),
            ],
            &widths,
        );
    }
    println!("  ... (sweep continues to {} clients)", curve.len());
    let last = curve.last().expect("non-empty");
    row(
        &[
            last.clients.to_string(),
            fmt(last.min_sir_db),
            format!("{:?}", last.worst_modality),
        ],
        &widths,
    );
    println!(
        "\nadmission control (text threshold -15 dB) admits {admitted} clients before refusing"
    );
    println!("paper: an upper limit exists, set by inter-client interference");
}
