//! Runs one workload: set-up (timed, several times), warm-up, then a
//! timed phase — with tracing off for the end-to-end metrics, or split
//! into an untraced and a traced half followed by the layer replays for
//! the per-layer metrics.
//!
//! Load model: closed loop, one caller (this harness), one process,
//! `SessionConfig::workers = 1`.

use crate::measure::{self, Calibrator, Layer, Tracer};
use crate::oracle::Oracle;
use crate::replay::{self, RoundRec};
use crate::report::{self, Metric, RunResult};
use crate::workloads::{self, Counts, Ctx, RoundReport, Workload, WARMUP_ROUNDS};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// The time box of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and a fixed handful of rounds, for the package's own
    /// tests.
    pub smoke: bool,
}

/// Unit of simulated (not host) milliseconds: these values are exact
/// and repeat bit for bit, which a measured time never does.
const SIM_MS: &str = "sim_ms";

/// Name of the span that covers a whole traced round.
const ROUND_SPAN: &str = "round";

/// How often set-up is repeated so `setup_s` can be a median.
const SETUP_REPEATS: usize = 3;

/// Calibration kernel runs after each set-up, however short it was.
const SETUP_KERNELS: usize = 5;

/// Shortest stretch of the timed phase a host-time rate is taken over:
/// long enough for the 10 ms CPU ticks to resolve to a percent.
const SEGMENT_S: f64 = 1.0;

/// Readings at a segment boundary.
struct Mark {
    at: Instant,
    cpu_ms: f64,
    sim_s: f64,
    deliveries: u64,
    calib_ns: u64,
}

/// What happened between two marks, in reference-host time: the
/// calibration kernel's own time taken out, the rest scaled by the
/// host-speed factor the kernel measured over the segment.
struct Segment {
    wall_s: f64,
    cpu_ms: f64,
    sim_s: f64,
    deliveries: f64,
    /// Nominal / measured kernel time over the segment.
    speed: f64,
}

impl Mark {
    fn take(w: &dyn Workload, deliveries: u64, calib: &Calibrator) -> Mark {
        Mark {
            at: Instant::now(),
            cpu_ms: measure::cpu_ms(),
            sim_s: w.session().net.now().as_secs_f64(),
            deliveries,
            calib_ns: calib.spent_ns,
        }
    }

    fn since(&self, earlier: &Mark, speed: f64) -> Segment {
        // The kernel is CPU-bound: its wall time is its CPU time.
        let calib_s = (self.calib_ns - earlier.calib_ns) as f64 / 1e9;
        Segment {
            wall_s: ((self.at - earlier.at).as_secs_f64() - calib_s) * speed,
            cpu_ms: (self.cpu_ms - earlier.cpu_ms - calib_s * 1e3).max(0.0) * speed,
            sim_s: self.sim_s - earlier.sim_s,
            deliveries: (self.deliveries - earlier.deliveries).max(1) as f64,
            speed,
        }
    }
}

/// Sums over a set of rounds.
#[derive(Default)]
struct Acc {
    rounds: u64,
    deliveries: u64,
    app_bytes: u64,
    wall_ms: Vec<f64>,
    latencies_ms: Vec<f64>,
    psnr_sum: f64,
    psnr_n: u64,
}

impl Acc {
    fn add(&mut self, r: &RoundReport, keep_latencies: bool) {
        self.rounds += 1;
        self.deliveries += r.deliveries;
        self.app_bytes += r.app_bytes;
        self.wall_ms.push(r.wall_ns as f64 / 1e6);
        self.psnr_sum += r.psnr_sum;
        self.psnr_n += r.psnr_n;
        if keep_latencies {
            for &(us, n) in &r.latencies {
                self.latencies_ms
                    .extend(std::iter::repeat_n(us as f64 / 1e3, n as usize));
            }
        }
    }

    fn psnr_mean(&self) -> f64 {
        if self.psnr_n == 0 {
            0.0
        } else {
            self.psnr_sum / self.psnr_n as f64
        }
    }
}

fn run_round(
    w: &mut dyn Workload,
    round: u64,
    tracer: &mut Tracer,
    oracle: &mut Oracle,
    rec: Option<&mut RoundRec>,
) -> RoundReport {
    // On traced rounds the session calls nest in a span of the whole
    // round, whose self time is what the harness and the oracle cost.
    let round_span = tracer.open(ROUND_SPAN, Layer::Core, round as u32, None);
    let mut ctx = Ctx {
        tracer,
        round_span,
        oracle,
        rec,
    };
    let report = w.round(round, &mut ctx);
    tracer.close(round_span);
    report
}

/// Run one workload and collect its metrics.
pub fn run(opts: &Options) -> RunResult {
    let mut result = if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    };
    for m in result.metrics.iter().chain(&result.extra) {
        if !m.value.is_finite() {
            result.failed += 1;
            result.notes.push(format!("{} is not finite", m.name));
        }
    }
    result
}

fn finish(opts: &Options, oracle: Oracle, metrics: Vec<Metric>, extra: Vec<Metric>) -> RunResult {
    RunResult {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.trace,
        attempted: oracle.expected,
        failed: oracle.failed(),
        metrics,
        extra,
        notes: oracle.notes,
    }
}

fn run_untraced(opts: &Options) -> RunResult {
    let name = opts.workload.as_str();
    let sizing = workloads::sizing(name);
    let fixed = if opts.smoke {
        sizing.smoke
    } else {
        sizing.fixed
    };

    let mut calib = Calibrator::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if opts.smoke { 1 } else { SETUP_REPEATS } {
        // The previous instance goes first, so peak memory holds one.
        drop(built.take());
        let t = Instant::now();
        built = Some(workloads::build(name, opts.seed, opts.smoke));
        let raw = t.elapsed();
        // Host speed right after, over at least a few kernel runs.
        (0..SETUP_KERNELS).for_each(|_| calib.run());
        calib.keep_up(raw.as_nanos() as u64);
        setups.push(raw.as_secs_f64() * calib.take_factor().expect("kernels just ran"));
    }
    let mut w = built.expect("built at least once");
    let mut tracer = Tracer::new(false);
    let mut oracle = Oracle::default();
    for round in 0..WARMUP_ROUNDS {
        run_round(w.as_mut(), round, &mut tracer, &mut oracle, None);
    }

    let net = w.session().net.stats_handle();
    let (allocs0, bytes0) = measure::alloc_totals();
    let sim0 = w.session().net.now();
    let wire0 = net.bytes_delivered();
    let t0 = Instant::now();
    // Host-time rates are medians over segments of about a second, so
    // a burst of host noise moves one segment, not the result.
    let mut segments: Vec<Segment> = Vec::new();
    calib.reset_spent();
    let mut mark = Mark::take(w.as_ref(), 0, &calib);
    // The host speed of the segment each timed round fell into.
    let mut round_speed: Vec<f64> = Vec::new();
    let mut speed = 1.0;
    // `all` covers every timed round; `det` only the first `fixed`, so
    // the simulator-deterministic metrics, the allocation counts and
    // the memory high-water mark do not depend on host speed.
    let (mut all, mut det) = (Acc::default(), Acc::default());
    let (mut det_sim_s, mut det_wire) = (0.0, 0u64);
    let (mut det_allocs, mut det_alloc_bytes, mut det_rss) = (0u64, 0u64, 0.0);
    loop {
        let done = all.rounds;
        if done >= fixed && (opts.smoke || t0.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
        let r = run_round(
            w.as_mut(),
            WARMUP_ROUNDS + done,
            &mut tracer,
            &mut oracle,
            None,
        );
        all.add(&r, false);
        calib.keep_up(t0.elapsed().as_nanos() as u64);
        if done < fixed {
            det.add(&r, true);
            det_sim_s = (w.session().net.now() - sim0).as_secs_f64();
            det_wire = net.bytes_delivered() - wire0;
            if done + 1 == fixed {
                let (allocs, bytes) = measure::alloc_totals();
                det_allocs = allocs - allocs0 - calib.spent_allocs;
                det_alloc_bytes = bytes - bytes0 - calib.spent_alloc_bytes;
                det_rss = measure::peak_rss_mib();
            }
        }
        if mark.at.elapsed().as_secs_f64() >= SEGMENT_S {
            speed = calib.take_factor().unwrap_or(speed);
            let next = Mark::take(w.as_ref(), all.deliveries, &calib);
            segments.push(next.since(&mark, speed));
            round_speed.resize(all.wall_ms.len(), speed);
            mark = next;
        }
    }
    // What follows the last full segment yields no rates (a short tail
    // would be the noisiest segment); a run shorter than one segment
    // is one segment.
    speed = calib.take_factor().unwrap_or(speed);
    if segments.is_empty() {
        segments.push(Mark::take(w.as_ref(), all.deliveries, &calib).since(&mark, speed));
    }
    round_speed.resize(all.wall_ms.len(), speed);
    let round_walls: Vec<f64> = all
        .wall_ms
        .iter()
        .zip(&round_speed)
        .map(|(ms, speed)| ms * speed)
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let over_segments =
        |f: fn(&Segment) -> f64| measure::median(&segments.iter().map(f).collect::<Vec<_>>());

    let per_delivery = |x: u64| x as f64 / det.deliveries.max(1) as f64;
    det.latencies_ms.sort_by(f64::total_cmp);
    let lat = &det.latencies_ms;
    let (p99, p99_used) = measure::tail(lat, 99.0);
    let metrics = vec![
        Metric::new("setup_s", measure::median(&setups), "s")
            .note(format!("median of {}", setups.len())),
        Metric::new(
            "deliveries_per_s",
            over_segments(|s| s.deliveries / s.wall_s),
            "1/s",
        )
        .note(format!(
            "median of {} segments; {} deliveries in {:.2} s",
            segments.len(),
            all.deliveries,
            wall_s
        )),
        Metric::new("round_wall_ms_p50", measure::median(&round_walls), "ms")
            .note(spread_note(&round_walls)),
        Metric::new(
            "cpu_ms_per_delivery",
            over_segments(|s| s.cpu_ms / s.deliveries),
            "ms",
        ),
        Metric::new(
            "wall_s_per_sim_s",
            over_segments(|s| s.wall_s / s.sim_s),
            "ratio",
        ),
        Metric::new("sim_delivery_ms_p50", measure::median(lat), SIM_MS).note(format!(
            "{} deliveries over {} rounds: {}",
            lat.len(),
            det.rounds,
            histogram(lat)
        )),
        Metric::new("sim_delivery_ms_p99", p99, SIM_MS).note(format!("p{p99_used}")),
        Metric::new(
            "goodput_kbit_per_sim_s",
            det.app_bytes as f64 * 8.0 / 1e3 / det_sim_s,
            "kbit/s",
        ),
        Metric::new("wire_bytes_per_delivery", per_delivery(det_wire), "B"),
        Metric::new("allocs_per_delivery", per_delivery(det_allocs), "count"),
        Metric::new(
            "alloc_bytes_per_delivery",
            per_delivery(det_alloc_bytes),
            "B",
        ),
        Metric::new("peak_rss_mb", det_rss, "MiB"),
    ];
    let extra = vec![
        Metric::new("host_speed", over_segments(|s| s.speed), "ratio")
            .note("nominal / measured calibration-kernel time; host-time metrics are scaled by it"),
        Metric::new("fail_share", oracle.fail_share(), "ratio"),
        Metric::new("psnr_db_mean", det.psnr_mean(), "dB").note(format!("{} views", det.psnr_n)),
    ];
    finish(opts, oracle, metrics, extra)
}

/// Sample count, extremes and quartiles of a set of timings.
fn spread_note(samples: &[f64]) -> String {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    format!(
        "{} rounds: min {:.3} p25 {:.3} p75 {:.3} max {:.3}",
        v.len(),
        at(0.0),
        at(0.25),
        at(0.75),
        at(1.0)
    )
}

/// `value x count` of the distinct values of an ascending list (sim
/// latencies fall on pump-slice boundaries, so there are few).
fn histogram(sorted: &[f64]) -> String {
    let mut bins: Vec<(f64, usize)> = Vec::new();
    for &v in sorted {
        match bins.last_mut() {
            Some((last, n)) if *last == v => *n += 1,
            _ => bins.push((v, 1)),
        }
    }
    let shown: Vec<String> = bins
        .iter()
        .take(8)
        .map(|(v, n)| format!("{v}x{n}"))
        .collect();
    let more = if bins.len() > 8 { " ..." } else { "" };
    format!("{}{more}", shown.join(" "))
}

/// Share of the time box each traced-run phase takes; the rest is for
/// set-up, warm-up and writing the span file.
const UNTRACED_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.25;
const REPLAY_SHARE: f64 = 0.4;

fn run_traced(opts: &Options) -> RunResult {
    let name = opts.workload.as_str();
    let min_rounds = if opts.smoke {
        workloads::sizing(name).smoke
    } else {
        3
    };
    let mut w = workloads::build(name, opts.seed, opts.smoke);
    let mut tracer = Tracer::new(false);
    let mut oracle = Oracle::default();
    for round in 0..WARMUP_ROUNDS {
        run_round(w.as_mut(), round, &mut tracer, &mut oracle, None);
    }
    let mut next_round = WARMUP_ROUNDS;
    let budget = |share: f64| {
        if opts.smoke {
            0.0
        } else {
            opts.seconds * share
        }
    };

    // Phase A: tracing off, for the overhead comparison.
    let mut plain = Acc::default();
    let t = Instant::now();
    while plain.rounds < min_rounds || t.elapsed().as_secs_f64() < budget(UNTRACED_SHARE) {
        let r = run_round(w.as_mut(), next_round, &mut tracer, &mut oracle, None);
        plain.add(&r, false);
        next_round += 1;
    }

    // Phase B: spans around every session call, inputs recorded.
    tracer.enabled = true;
    let counts0 = w.counts();
    let mut traced = Acc::default();
    let mut recs: Vec<RoundRec> = Vec::new();
    let t = Instant::now();
    while traced.rounds < min_rounds || t.elapsed().as_secs_f64() < budget(TRACED_SHARE) {
        let mut rec = RoundRec {
            round: next_round as u32,
            ..RoundRec::default()
        };
        let r = run_round(
            w.as_mut(),
            next_round,
            &mut tracer,
            &mut oracle,
            Some(&mut rec),
        );
        traced.add(&r, false);
        recs.push(rec);
        next_round += 1;
    }
    let counts1 = w.counts();
    let session_spans = tracer.spans.len();

    // Phase C: replay each crate alone with the recorded inputs.
    let replayed = replay::run(
        &w.shape(),
        &recs,
        &mut tracer,
        budget(REPLAY_SHARE),
        opts.seed,
    );

    let metrics = layer_metrics(
        &tracer,
        session_spans,
        &replayed,
        &counts0,
        &counts1,
        &plain,
        &traced,
        &oracle,
    );
    let mut result = finish(opts, oracle, metrics, Vec::new());
    if replayed.input_mismatches > 0 {
        result.notes.push(format!(
            "{} of {} replayed rounds: predicted per-client message sets disagree with the \
             counts the endpoints reported",
            replayed.input_mismatches, replayed.rounds
        ));
    }
    match report::write_trace(name, &tracer.spans) {
        Ok(path) => result.notes.push(format!(
            "{} spans in {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => {
            result.failed += 1;
            result.notes.push(format!("span file not written: {e}"));
        }
    }
    result
}

/// Every per-layer metric, in the order of `BENCHMARK.json`.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    tracer: &Tracer,
    session_spans: usize,
    rp: &replay::ReplayResults,
    c0: &Counts,
    c1: &Counts,
    plain: &Acc,
    traced: &Acc,
    oracle: &Oracle,
) -> Vec<Metric> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let rounds = traced.rounds.max(1) as f64;
    let replayed = rp.rounds.max(1) as f64;
    // nanoseconds per operation of a named replay total
    let op = |key: &str| rp.ops.get(key).copied().unwrap_or_default();
    let per_op = |key: &str, scale: f64| ratio(op(key).ns, op(key).n) / scale;
    let allocs_per = |key: &str| ratio(op(key).allocs, op(key).n);
    let d = |f: fn(&Counts) -> u64| f(c1) - f(c0);

    let mut m = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric::new(name, value, unit));
    };

    // Busy time per round of every layer, from its replay spans; what
    // the replays do not explain of the session-call spans is `core`'s.
    let session = &tracer.spans[..session_spans];
    let is_round = |s: &&measure::Span| s.name == ROUND_SPAN;
    let session_ns: u64 = session
        .iter()
        .filter(|s| !is_round(s))
        .map(|s| s.dur_ns())
        .sum();
    // A round span's self time: the round minus the session calls in it.
    let harness_ns: u64 = session
        .iter()
        .zip(measure::self_times_ns(session))
        .filter(|(s, _)| is_round(s))
        .map(|(_, own)| own)
        .sum();
    let session_ms_per_round = session_ns as f64 / 1e6 / rounds;
    let mut replay_ms_per_round = 0.0;
    let mut busy = Vec::new();
    for layer in Layer::ALL {
        if layer == Layer::Core {
            continue;
        }
        let ns = rp.busy_ns.get(&layer).copied().unwrap_or(0);
        let ms = ns as f64 / 1e6 / replayed;
        replay_ms_per_round += ms;
        busy.push((layer, ms));
    }
    let unattributed = session_ms_per_round - replay_ms_per_round;
    push("core.busy_ms_per_round", unattributed.max(0.0), "ms");
    for (layer, ms) in busy {
        push(&format!("{}.busy_ms_per_round", layer.name()), ms, "ms");
    }

    push(
        "media.encode_ms_per_share",
        per_op("media.encode", 1e6),
        "ms",
    );
    push(
        "media.decode_ms_per_view",
        per_op("media.decode", 1e6),
        "ms",
    );
    push(
        "media.packetize_us_per_share",
        per_op("media.packetize", 1e3),
        "us",
    );
    push(
        "media.cache_hit_share",
        ratio(
            d(|c| c.media_hits),
            d(|c| c.media_hits) + d(|c| c.media_misses),
        ),
        "ratio",
    );
    push(
        "media.stream_bytes_per_share",
        per_op("media.stream_bytes", 1.0),
        "B",
    );
    push("media.allocs_per_view", allocs_per("media.decode"), "count");

    push(
        "sempubsub.match_us_per_msg",
        per_op("sempubsub.match", 1e3),
        "us",
    );
    push(
        "sempubsub.interpret_us_per_msg",
        per_op("sempubsub.interpret", 1e3),
        "us",
    );
    push(
        "sempubsub.publish_us_per_msg",
        per_op("sempubsub.publish", 1e3),
        "us",
    );
    push(
        "sempubsub.accept_share",
        ratio(d(|c| c.bus_accepted), d(|c| c.bus_received)),
        "ratio",
    );
    push(
        "sempubsub.allocs_per_msg",
        allocs_per("sempubsub.interpret"),
        "count",
    );

    push(
        "broker.process_us_per_msg",
        per_op("broker.process", 1e3),
        "us",
    );
    push(
        "broker.forwarded",
        d(|c| c.broker_forwarded) as f64,
        "count",
    );
    push(
        "broker.suppressed_share",
        ratio(
            d(|c| c.broker_suppressed),
            d(|c| c.broker_suppressed) + d(|c| c.broker_forwarded),
        ),
        "ratio",
    );
    push(
        "broker.dedup_dropped",
        d(|c| c.broker_dedup) as f64,
        "count",
    );
    push("broker.table_size", c1.broker_table as f64, "count");
    push(
        "broker.settle_sim_ms_per_round",
        d(|c| c.settle_us) as f64 / 1e3 / rounds,
        SIM_MS,
    );

    push("dtn.stored_bundles", d(|c| c.dtn_transfers) as f64, "count");
    push("dtn.stored_bytes_hwm", c1.dtn_hwm as f64, "B");
    push("dtn.transfers", d(|c| c.dtn_transfers) as f64, "count");
    push("dtn.refused", d(|c| c.dtn_refused) as f64, "count");
    push(
        "dtn.drain_msgs_per_s",
        ratio(op("dtn.drain").n * 1_000_000_000, op("dtn.drain").ns),
        "1/s",
    );
    let drains: Vec<f64> = c1.drain_us[c0.drain_us.len()..]
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    push("dtn.drain_sim_ms_p50", measure::median(&drains), SIM_MS);

    push("qdisc.ns_per_pkt", per_op("qdisc.pkt", 1.0), "ns");
    push("qdisc.drops", d(|c| c.qdisc_drops) as f64, "count");
    push("qdisc.ecn_marks", d(|c| c.qdisc_marks) as f64, "count");
    push("qdisc.backlog_hwm_bytes", c1.qdisc_backlog_hwm as f64, "B");

    push("htb.ns_per_pkt", per_op("htb.pkt", 1.0), "ns");
    push(
        "htb.pkts",
        op("htb.pkt").n as f64 / replayed * rounds,
        "count",
    );
    push("htb.drops", d(|c| c.htb_drops) as f64, "count");
    push("htb.ecn_marks", d(|c| c.htb_marks) as f64, "count");
    push(
        "htb.borrowed_mbit",
        d(|c| c.htb_borrowed_bits) as f64 / 1e6,
        "Mbit",
    );
    push(
        "htb.root_util",
        ratio(d(|c| c.htb_bits), d(|c| c.htb_capacity_bits)),
        "ratio",
    );
    push("htb.allocs_per_pkt", allocs_per("htb.pkt"), "count");

    push(
        "simnet.ns_per_delivery",
        per_op("simnet.delivery", 1.0),
        "ns",
    );
    push("simnet.delivered", d(|c| c.net_delivered) as f64, "count");
    push("simnet.dropped", d(|c| c.net_dropped) as f64, "count");
    push("simnet.bytes_delivered", d(|c| c.net_bytes) as f64, "B");
    push(
        "simnet.allocs_per_delivery",
        allocs_per("simnet.delivery"),
        "count",
    );

    push("snmp.get_us_per_roundtrip", per_op("snmp.get", 1e3), "us");
    push("snmp.ber_ns_per_pdu", per_op("snmp.ber", 1.0), "ns");
    push("snmp.traps_sent", d(|c| c.traps_sent) as f64, "count");

    push(
        "wireless.assess_ns_per_client",
        per_op("wireless.assess", 1.0),
        "ns",
    );
    push(
        "wireless.downlink_deliveries",
        (0..3).map(|i| c1.downlink[i] - c0.downlink[i]).sum::<u64>() as f64,
        "count",
    );
    for (i, label) in ["text_only", "text_and_sketch", "full_image"]
        .iter()
        .enumerate()
    {
        push(
            &format!("wireless.downlink_{label}"),
            (c1.downlink[i] - c0.downlink[i]) as f64,
            "count",
        );
    }

    let share_ms: Vec<f64> = ["share_image", "share_chat"]
        .iter()
        .flat_map(|n| tracer.durations_ms(n))
        .collect();
    push("core.share_call_ms_p50", measure::median(&share_ms), "ms");
    push(
        "core.pump_call_ms_p50",
        measure::median(&tracer.durations_ms("pump")),
        "ms",
    );
    push(
        "core.adapt_us_per_decision",
        ratio(tracer.total_ns("adapt_all"), d(|c| c.decisions)) / 1e3,
        "us",
    );
    push("core.engine_decide_ns", per_op("core.decide", 1.0), "ns");
    push("core.plan_alerts", d(|c| c.plan_alerts) as f64, "count");
    // Since set-up, warm-up included: adaptation settles within the
    // first rounds, and the point is to show that it engaged at all.
    push("core.budget_changes", c1.budget_changes as f64, "count");
    let mut walls = plain.wall_ms.clone();
    walls.extend(&traced.wall_ms);
    push(
        "core.round_wall_ms_p95",
        measure::tail(&walls, 95.0).0,
        "ms",
    );
    push("core.unattributed_ms_per_round", unattributed, "ms");
    push(
        "core.harness_ms_per_round",
        harness_ns as f64 / 1e6 / rounds,
        "ms",
    );
    let (p, t) = (
        measure::median(&plain.wall_ms),
        measure::median(&traced.wall_ms),
    );
    push(
        "core.trace_overhead_share",
        if p == 0.0 { 0.0 } else { (t - p) / p },
        "ratio",
    );

    push("fail_share", oracle.fail_share(), "ratio");
    let psnr_n = plain.psnr_n + traced.psnr_n;
    push(
        "psnr_db_mean",
        if psnr_n == 0 {
            0.0
        } else {
            (plain.psnr_sum + traced.psnr_sum) / psnr_n as f64
        },
        "dB",
    );
    m
}
