//! Paper-reproduction harness.
//!
//! One runnable program per paper figure and table (`src/bin/`): each
//! prints the series the paper plots beside the paper's reported
//! values and asserts its correctness invariants inline, so CI can run
//! it at `--quick` as a smoke test. Wall-clock columns are printed for
//! humans and never asserted on: performance claims and regressions
//! are judged by the repo benchmark (`BENCHMARK.json`, `benchmark/`).

/// Print a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("| {} |", line.join(" | "));
}

/// Print a table header plus separator.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

/// Time a closure over `reps` runs, returning the last result and the
/// best (minimum) wall-clock seconds — the standard noise-resistant
/// point estimate for short deterministic workloads.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(reps > 0);
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(out);
    }
    (result.expect("reps > 0"), best)
}

/// Whether `--quick` was passed: the reduced-scale sweep CI runs as
/// smoke. Scale shrinks; every inline invariant still runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Hardware threads available to this process (1 if unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Format a float compactly, mapping infinity to `-`.
pub fn fmt(v: f64) -> String {
    if v.is_infinite() {
        "-".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_handles_ranges() {
        assert_eq!(fmt(f64::INFINITY), "-");
        assert_eq!(fmt(131.4), "131");
        assert_eq!(fmt(2.123), "2.12");
    }
}
