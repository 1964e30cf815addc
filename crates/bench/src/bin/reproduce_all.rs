//! One-shot reproduction driver: runs every experiment of the paper's
//! evaluation and prints a compact paper-vs-measured summary. For the
//! full per-figure tables, run the individual `fig*` binaries.
//!
//! ```sh
//! cargo run -p bench --bin reproduce_all
//! ```

use bench::fmt;
use cqos_core::experiments::*;
use cqos_core::session::SessionConfig;

fn main() {
    println!("collabqos — full reproduction summary (seed 42)\n");

    let rows = run_fig6(SessionConfig::default());
    let (f6a, f6z) = (rows.first().unwrap(), rows.last().unwrap());
    println!(
        "Fig 6  packets {}→{} (paper 16→1) | CR {}→{} (paper 3.6→131) | BPP {}→{} (paper 2.1→0.1)",
        f6a.packets,
        f6z.packets,
        fmt(f6a.compression_ratio),
        fmt(f6z.compression_ratio),
        fmt(f6a.bpp),
        fmt(f6z.bpp)
    );

    let rows = run_fig7(SessionConfig::default());
    let f7a = rows.first().unwrap();
    let f7last = rows.iter().rev().find(|r| r.packets > 0).unwrap();
    println!(
        "Fig 7  packets {}→0 (paper 16→0) | BPP {}→{} (paper 14.3→0.7) | CR {}→{} (paper 1.6→32.7)",
        f7a.packets,
        fmt(f7a.bpp),
        fmt(f7last.bpp),
        fmt(f7a.compression_ratio),
        fmt(f7last.compression_ratio)
    );

    let rows = run_fig8();
    println!(
        "Fig 8  A: {}→{}→{} dB across the approach/recede trajectory; B mirrors (paper: interplay of distance)",
        fmt(rows[0].sirs_db[0]),
        fmt(rows[3].sirs_db[0]),
        fmt(rows[5].sirs_db[0])
    );

    let rows = run_fig9();
    let (d_gain, p_gain) = distance_vs_power_leverage();
    println!(
        "Fig 9  A: {}→{} dB as power 50→250 mW; distance lever +{} dB vs power lever +{} dB (paper: distance wins)",
        fmt(rows[0].sirs_db[0]),
        fmt(rows[4].sirs_db[0]),
        fmt(d_gain),
        fmt(p_gain)
    );

    let r = run_fig10();
    println!(
        "Fig 10 joins drop A's SIR by {:.0}% then {:.0}% (paper ~90% / ~23%)",
        r.drop_on_second_join * 100.0,
        r.drop_on_third_join * 100.0
    );

    let (curve, admitted) = run_capacity_curve(40);
    println!(
        "§6.3.3 capacity: worst SIR {}→{} dB over 1→40 clients; admission limit {} (paper: upper limit exists)",
        fmt(curve[0].min_sir_db),
        fmt(curve.last().unwrap().min_sir_db),
        admitted
    );

    let (orig, sk, ratio) = run_headline_sketch(42);
    println!(
        "§5.4   sketch {} B from {} B original = {:.0}x reduction (paper: 'up to 2000x')",
        sk, orig, ratio
    );

    let (gain, iters) = run_power_control_study();
    println!(
        "§6.3   equal-factor power halving: utility x{} | F-M converges in {} iterations (ref 9)",
        fmt(gain),
        iters
    );
}
