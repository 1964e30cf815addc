//! Sharded session engine scaling: one publisher multicasts images to
//! N subscribed viewers, each of which interprets and reassembles
//! every delivery — the per-client adaptation pipeline the paper runs
//! independently per receiver (§5). All N hold the same full prefix,
//! so the session's view store decodes each image once and the other
//! N-1 viewers share that image: the decode is no longer per-client
//! work for the sharded engine to overlap. The engine must be
//! byte-identical to the serial path at every worker count; the
//! wall-clock ratio shows how the rest of the per-client work
//! overlaps on multi-core hosts.

use bench::{fmt, header, host_threads, time_best};
use cqos_core::experiments::run_parallel_scaling;

fn main() {
    let threads = host_threads();
    println!("Sharded session engine — per-client pipeline scaling");
    println!("host hardware threads: {threads} (speedup requires >1)\n");

    let widths = [8, 8, 12, 12, 10, 10];
    header(
        &[
            "viewers",
            "workers",
            "serial (s)",
            "sharded (s)",
            "speedup",
            "identical",
        ],
        &widths,
    );
    let seed = 11;
    let images = 2;
    for &viewers in &[2usize, 8, 16] {
        let (serial_rows, serial_s) =
            time_best(3, || run_parallel_scaling(viewers, images, 1, seed));
        for &workers in &[2usize, 4] {
            let (rows, sharded_s) =
                time_best(3, || run_parallel_scaling(viewers, images, workers, seed));
            let identical = rows == serial_rows;
            assert!(
                identical,
                "workers={workers} diverged from serial at {viewers} viewers"
            );
            bench::row(
                &[
                    viewers.to_string(),
                    workers.to_string(),
                    format!("{serial_s:.3}"),
                    format!("{sharded_s:.3}"),
                    fmt(serial_s / sharded_s),
                    identical.to_string(),
                ],
                &widths,
            );
        }
    }
    println!(
        "\nall series byte-identical across worker counts; speedup column is\n\
         wall-clock serial/sharded (each image is decoded once for all viewers,\n\
         so only interpretation and reassembly are left to overlap: the >=1.5x\n\
         at 8+ viewers on 4 cores of the per-viewer decode no longer applies and\n\
         has not been re-measured on a multi-core host; ~1.0x or below on a\n\
         single-core host where threads cannot overlap)"
    );
}
