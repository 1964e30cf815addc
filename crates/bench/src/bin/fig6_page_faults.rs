//! Figure 6 reproduction: image-viewer parameters versus host page
//! faults.
//!
//! Paper (§6.1): packets 16→1 in powers of two as page faults rise
//! 30→100; compression ratio 3.6→131; BPP 2.1→0.1 (grayscale source).

use bench::{fmt, header, row};
use cqos_core::experiments::run_fig6;
use cqos_core::session::SessionConfig;

fn main() {
    println!("Figure 6 — ImageViewer parameters vs host page faults");
    println!("paper: packets 16->1 (powers of 2), CR 3.6->131, BPP 2.1->0.1\n");
    let widths = [12, 8, 18, 8];
    header(
        &["page_faults", "packets", "compression_ratio", "bpp"],
        &widths,
    );
    let rows = run_fig6(SessionConfig::default());
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
    let last = rows.last().expect("rows");
    println!(
        "\nmeasured: packets {}->{}  CR {}->{}  BPP {}->{}",
        first.packets,
        last.packets,
        fmt(first.compression_ratio),
        fmt(last.compression_ratio),
        fmt(first.bpp),
        fmt(last.bpp),
    );
    println!("paper   : packets 16->1  CR 3.60->131  BPP 2.10->0.10");
}
