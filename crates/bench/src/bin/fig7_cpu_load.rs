//! Figure 7 reproduction: image-viewer parameters versus CPU load.
//!
//! Paper (§6.2): packets drop 16→0 as CPU load rises 30→100 %; BPP
//! 14.3→0.7; compression ratio 1.6→32.7 (24-bit colour source).

use bench::{fmt, header, row};
use cqos_core::experiments::run_fig7;
use cqos_core::session::SessionConfig;

fn main() {
    println!("Figure 7 — ImageViewer parameters vs CPU load");
    println!("paper: packets 16->0, BPP 14.3->0.7, CR 1.6->32.7 (colour)\n");
    let widths = [10, 8, 18, 8];
    header(
        &["cpu_load", "packets", "compression_ratio", "bpp"],
        &widths,
    );
    let rows = run_fig7(SessionConfig::default());
    for r in &rows {
        row(
            &[
                fmt(r.x),
                r.packets.to_string(),
                fmt(r.compression_ratio),
                fmt(r.bpp),
            ],
            &widths,
        );
    }
    let first = rows.first().expect("rows");
    let last_nonzero = rows.iter().rev().find(|r| r.packets > 0).expect("rows");
    println!(
        "\nmeasured: packets {}->0  BPP {}->{} (last nonzero)  CR {}->{}",
        first.packets,
        fmt(first.bpp),
        fmt(last_nonzero.bpp),
        fmt(first.compression_ratio),
        fmt(last_nonzero.compression_ratio),
    );
    println!("paper   : packets 16->0  BPP 14.3->0.70  CR 1.60->32.7");
}
