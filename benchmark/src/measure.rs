//! Measurement primitives: a counting global allocator with a
//! thread-local layer tag, `/proc/self` readers, a percentile helper
//! that refuses unsupported percentiles, and in-memory spans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The layers cost is attributed to: the workspace crates, with
/// `sysmon` folded into `snmp` (its agents only answer SNMP GETs here).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Session glue: everything not replayed in another layer.
    Core,
    Media,
    Sempubsub,
    Broker,
    Dtn,
    Qdisc,
    Htb,
    Simnet,
    Snmp,
    Wireless,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Core,
        Layer::Media,
        Layer::Sempubsub,
        Layer::Broker,
        Layer::Dtn,
        Layer::Qdisc,
        Layer::Htb,
        Layer::Simnet,
        Layer::Snmp,
        Layer::Wireless,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Media => "media",
            Layer::Sempubsub => "sempubsub",
            Layer::Broker => "broker",
            Layer::Dtn => "dtn",
            Layer::Qdisc => "qdisc",
            Layer::Htb => "htb",
            Layer::Simnet => "simnet",
            Layer::Snmp => "snmp",
            Layer::Wireless => "wireless",
        }
    }
}

// ---------------------------------------------------------- allocator

const TAGS: usize = Layer::ALL.len();

/// Counts every allocation (and the bytes requested), in total and
/// under the layer tag the current span guard set on this thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TAG_ALLOCS: [AtomicU64; TAGS] = [const { AtomicU64::new(0) }; TAGS];

thread_local! {
    /// Index into `TAG_ALLOCS`; `Layer::Core` outside any span.
    static TAG: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state and
// the thread-local is a plain `Cell<usize>` with a const initialiser,
// so reading it never allocates or runs a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let tag = TAG.try_with(Cell::get).unwrap_or(0);
        TAG_ALLOCS[tag].fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        let tag = TAG.try_with(Cell::get).unwrap_or(0);
        TAG_ALLOCS[tag].fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's responsibility under the `GlobalAlloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations made while `layer` was the current span tag.
pub fn allocs_tagged(layer: Layer) -> u64 {
    TAG_ALLOCS[layer as usize].load(Ordering::Relaxed)
}

fn swap_tag(layer: Layer) -> usize {
    TAG.with(|t| t.replace(layer as usize))
}

// --------------------------------------------------------------- proc

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

pub(crate) fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU time of this process in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // USER_HZ is 100 on every Linux ABI, so a tick is 10 ms.
    parse_cpu_ticks(&stat).map_or(0.0, |t| t as f64 * 10.0)
}

pub(crate) fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

// -------------------------------------------------------- calibration

/// What one [`Calibrator`] kernel run takes on the reference host in a
/// quiet moment, nanoseconds. It only fixes the unit ("reference-host
/// seconds"); comparisons between runs do not depend on it.
const NOMINAL_KERNEL_NS: f64 = 550_000.0;

/// Tracks how fast the host happens to be while a run is measured.
///
/// The sandbox's CPU speed swings by 10–40 % over minutes (shared
/// cores), far more than any bound a regression gate could use. A fixed
/// kernel — the frozen `media::reference` wavelet and EZW coder on a
/// fixed 64x64 plane, code that by policy never changes — is run
/// between rounds for about 3 % of the time; host-time metrics are
/// multiplied by nominal / measured kernel time. Across runs the kernel
/// time correlates 0.8–0.98 with round time, and dividing it out cuts
/// the run-to-run spread of host-time metrics from 15–25 % to 3–6 %.
pub struct Calibrator {
    plane: Vec<i32>,
    kernel_ns: u64,
    kernels: u64,
    /// Time and allocations the kernel itself took, to be left out of
    /// what it scales and of the allocation counts.
    pub spent_ns: u64,
    pub spent_allocs: u64,
    pub spent_alloc_bytes: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        let plane = (0..Self::SIDE * Self::SIDE)
            .map(|i| ((i * 31 + (i / Self::SIDE) * 17) % 251) as i32 - 128)
            .collect();
        Calibrator {
            plane,
            kernel_ns: 0,
            kernels: 0,
            spent_ns: 0,
            spent_allocs: 0,
            spent_alloc_bytes: 0,
        }
    }
}

impl Calibrator {
    const SIDE: usize = 64;
    const LEVELS: usize = 4;
    /// Share of elapsed time the kernel may take.
    const SHARE: f64 = 0.03;

    /// One sample: the kernel twice, timing the second pass. The first
    /// pass pulls the kernel's code and its 16 KiB plane back into the
    /// caches, so the sample does not depend on how much memory the
    /// workload touched just before (a cold kernel after an
    /// `event_storm` round ran twice as slow as after an `image_fanout`
    /// round).
    pub fn run(&mut self) {
        let (allocs, alloc_bytes) = alloc_totals();
        let start = Instant::now();
        self.kernel();
        let warm = Instant::now();
        self.kernel();
        self.kernel_ns += warm.elapsed().as_nanos() as u64;
        self.kernels += 1;
        self.spent_ns += start.elapsed().as_nanos() as u64;
        let (allocs_now, bytes_now) = alloc_totals();
        self.spent_allocs += allocs_now - allocs;
        self.spent_alloc_bytes += bytes_now - alloc_bytes;
    }

    /// Transform, encode, decode half the stream, invert.
    fn kernel(&self) {
        use media::reference;
        use media::wavelet::WaveletKind::Cdf53;
        let (n, levels) = (Self::SIDE, Self::LEVELS);
        let mut plane = self.plane.clone();
        reference::forward_2d(&mut plane, n, n, levels, Cdf53);
        let stream = reference::encode_plane(&plane, n, n, levels);
        let mut back = reference::decode_plane(&stream[..stream.len() / 2])
            .expect("the reference coder decodes its own prefix");
        reference::inverse_2d(&mut back.coeffs, n, n, levels, Cdf53);
        std::hint::black_box(back);
    }

    /// Start a new account of what the kernel itself took.
    pub fn reset_spent(&mut self) {
        (self.spent_ns, self.spent_allocs, self.spent_alloc_bytes) = (0, 0, 0);
    }

    /// Run the kernel until it has had its share of `elapsed_ns`.
    pub fn keep_up(&mut self, elapsed_ns: u64) {
        while (self.spent_ns as f64) < Self::SHARE * elapsed_ns as f64 {
            self.run();
        }
    }

    /// Host-speed factor since the last call (nominal / measured kernel
    /// time; below 1 on a slow host), or `None` if no kernel ran.
    pub fn take_factor(&mut self) -> Option<f64> {
        let (ns, n) = (
            std::mem::take(&mut self.kernel_ns),
            std::mem::take(&mut self.kernels),
        );
        (n > 0).then(|| NOMINAL_KERNEL_NS * n as f64 / ns as f64)
    }
}

// -------------------------------------------------------- percentiles

/// The `p`-th percentile (`0 < p < 100`, nearest rank) of an ascending
/// slice, or `None` when fewer than ten samples lie beyond it — a
/// tail read off fewer points is noise, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted samples (mean of the middle pair when even);
/// zero for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of the 99th, 95th, 90th and 75th percentiles that
/// [`percentile`] supports for this sample count, with the percentile
/// used; falls back to the median for very small sets.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    for p in [99.0, 95.0, 90.0, 75.0] {
        if p <= want {
            if let Some(x) = percentile(&v, p) {
                return (x, p);
            }
        }
    }
    (median(&v), 50.0)
}

// -------------------------------------------------------------- spans

/// One recorded interval. `parent` indexes the span that caused it
/// (the session call of the round for replay spans); spans of one
/// round share `round`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub round: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that other spans will nest in; close it with
    /// [`Tracer::close`]. Returns `None` with tracing off.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: Layer,
        round: u32,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            round,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span; allocations it makes are tagged `layer`.
    /// With tracing off this is a plain call. Returns the span's index
    /// (for use as a parent) alongside the result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        round: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<u32>) {
        let span = self.open(name, layer, round, parent);
        let prev = swap_tag(layer);
        let out = f();
        TAG.with(|t| t.set(prev));
        self.close(span);
        (out, span)
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations of the spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// merged, and children are clipped to the parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            layer: Layer::Core,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn allocator_counts_and_tags() {
        let mut tracer = Tracer::new(true);
        let (before, bytes_before) = alloc_totals();
        let tagged_before = allocs_tagged(Layer::Dtn);
        let (v, _) = tracer.span("t", Layer::Dtn, 0, None, || vec![0u8; 4096]);
        let (after, bytes_after) = alloc_totals();
        assert!(after > before);
        assert!(bytes_after - bytes_before >= 4096);
        assert!(allocs_tagged(Layer::Dtn) > tagged_before);
        drop(v);
        // The guard restored the previous tag.
        let tagged = allocs_tagged(Layer::Dtn);
        let _w = std::hint::black_box(Vec::<u8>::with_capacity(64));
        assert_eq!(allocs_tagged(Layer::Dtn), tagged);
    }

    #[test]
    fn calibrator_takes_its_share_and_resets() {
        let mut c = Calibrator::default();
        assert_eq!(c.take_factor(), None);
        c.keep_up(100_000_000);
        assert!(c.spent_ns >= 3_000_000, "3 % of 100 ms");
        let spent = c.spent_ns;
        c.keep_up(100_000_000);
        assert_eq!(c.spent_ns, spent, "already caught up");
        let f = c.take_factor().expect("kernels ran");
        assert!(f > 0.01 && f < 100.0, "{f}");
        assert_eq!(c.take_factor(), None);
    }

    #[test]
    fn proc_readers_parse_real_and_synthetic_input() {
        assert!(peak_rss_mib() > 0.0);
        assert_eq!(
            parse_vm_hwm_kib("VmPeak:\t 9 kB\nVmHWM:\t  2048 kB\n"),
            Some(2048)
        );
        let stat = "7 (a b) c) S 1 7 7 0 -1 4194560 100 0 0 0 31 11 0 0 20 0 1 0 5 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        // 999 samples leave only nine beyond the 99th percentile.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..100], 95.0), None);
        assert_eq!(percentile(&v[..200], 95.0), Some(190.0));
        assert_eq!(tail(&v[..100], 99.0), (90.0, 90.0));
        assert_eq!(tail(&v[..5], 99.0), (3.0, 50.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),  // overlaps the previous child
            span(Some(0), 90, 120), // clipped to the parent
            span(Some(1), 12, 14),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 18, 30, 30, 2]);
    }
}
