//! Figure 10 reproduction: three wireless clients with varying distance
//! and power, plus the §6.3.3 join-degradation headline.
//!
//! Paper: "For client 2 joining ... the SIR of client A reduced by 90%
//! and when client 3 joined, the SIR of client A further reduced by
//! 23%. Hence, there exists an upper limit to the number of clients."

use bench::{fmt, header, row};
use cqos_core::experiments::run_fig10;

fn main() {
    println!("Figure 10 — performance of 3 wireless clients, varying distance & power\n");
    let r = run_fig10();
    println!(
        "A's SIR by client count: 1 client {} dB, 2 clients {} dB, 3 clients {} dB",
        fmt(r.a_sir_by_count[0]),
        fmt(r.a_sir_by_count[1]),
        fmt(r.a_sir_by_count[2]),
    );
    println!(
        "drop when client 2 joined: {:.0}% (paper ~90%)   further drop on client 3: {:.0}% (paper ~23%)\n",
        r.drop_on_second_join * 100.0,
        r.drop_on_third_join * 100.0,
    );
    let widths = [5, 12, 12, 12, 16];
    header(
        &[
            "step",
            "SIR_A (dB)",
            "SIR_B (dB)",
            "SIR_C (dB)",
            "modality(A)",
        ],
        &widths,
    );
    for s in &r.series {
        row(
            &[
                fmt(s.step),
                fmt(s.sirs_db[0]),
                fmt(s.sirs_db[1]),
                fmt(s.sirs_db[2]),
                format!("{:?}", s.modality),
            ],
            &widths,
        );
    }
}
