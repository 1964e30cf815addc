//! The four workloads and what they share. Each drives the real
//! `CollaborationSession` through its public API only; a seed changes
//! the *content* of a workload (scenes, topics, texts, who publishes),
//! never its *mix* (how many viewers sit on which tier, how many
//! clients per domain), so runs with different seeds cost the same.

mod event_storm;
mod image_fanout;
mod partition_heal;
mod shaped_lastmile;

use crate::measure::{Layer, Tracer};
use crate::oracle::{self, Oracle};
use crate::replay::{RoundRec, Shape};
use cqos_core::apps::ViewedImage;
use cqos_core::policy::AdaptationAction;
use cqos_core::{CollaborationSession, InferenceEngine, PolicyDb, QosContract, SessionConfig};
use media::image::Scene;
use rand::rngs::StdRng;
use rand::Rng;
use sempubsub::{AttrValue, Profile};
use std::collections::HashMap;
use std::time::Instant;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = [
    "image_fanout",
    "event_storm",
    "shaped_lastmile",
    "partition_heal",
];

/// Rounds run before timing starts, so caches are warm and lazy set-up
/// is done.
pub const WARMUP_ROUNDS: u64 = 5;

/// Round counts per workload. The deterministic metrics (sim time,
/// goodput, wire bytes, PSNR) are computed over exactly `fixed` timed
/// rounds, so they do not depend on host speed; wall-clock metrics
/// cover every round the time box allows (at least `fixed`).
/// `fixed` is sized to fill a third to a half of the 20 s box on the
/// 2-core reference host; `smoke` is the whole timed phase of a `--smoke` run.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub fixed: u64,
    pub smoke: u64,
}

pub fn sizing(name: &str) -> Sizing {
    match name {
        "image_fanout" => Sizing {
            fixed: 130,
            smoke: 6,
        },
        "event_storm" => Sizing {
            fixed: 200,
            smoke: 4,
        },
        "shaped_lastmile" => Sizing {
            fixed: 14,
            smoke: 3,
        },
        "partition_heal" => Sizing {
            fixed: 600,
            smoke: 4,
        },
        other => panic!("unknown workload {other}"),
    }
}

/// What one round did, as the harness needs it.
#[derive(Debug, Default)]
pub struct RoundReport {
    /// Wall time from the first share call to the pump that returned
    /// the last expected delivery (oracle checks excluded).
    pub wall_ns: u64,
    /// Correct deliveries.
    pub deliveries: u64,
    /// Accepted application bytes (no headers, no rejected copies).
    pub app_bytes: u64,
    /// `(simulated µs from share to the slice that returned it, count)`.
    pub latencies: Vec<(u64, u64)>,
    /// Sum and count of per-view PSNR against the pristine scene.
    pub psnr_sum: f64,
    pub psnr_n: u64,
}

/// Per-round context handed to a workload.
pub struct Ctx<'a> {
    pub tracer: &'a mut Tracer,
    /// The span of the whole round, on traced rounds.
    pub round_span: Option<u32>,
    pub oracle: &'a mut Oracle,
    /// Filled in on traced rounds: the inputs the replays re-drive.
    pub rec: Option<&'a mut RoundRec>,
}

impl Ctx<'_> {
    /// Run one session call inside a `core` span; remembers the first
    /// span of each name per round as the parent of that round's
    /// replay spans.
    pub fn call<R>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> R) -> R {
        let (out, idx) = self
            .tracer
            .span(name, Layer::Core, round as u32, self.round_span, f);
        if let (Some(rec), Some(idx)) = (self.rec.as_deref_mut(), idx) {
            rec.calls.entry(name).or_insert(idx);
        }
        out
    }
}

/// Cumulative counters read from the session's public stats handles.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub media_hits: u64,
    pub media_misses: u64,
    pub bus_accepted: u64,
    pub bus_received: u64,
    pub broker_forwarded: u64,
    pub broker_suppressed: u64,
    pub broker_dedup: u64,
    pub broker_table: u64,
    pub dtn_hwm: u64,
    pub dtn_transfers: u64,
    pub dtn_refused: u64,
    pub qdisc_drops: u64,
    pub qdisc_marks: u64,
    pub htb_bits: u64,
    pub htb_drops: u64,
    pub htb_marks: u64,
    pub htb_borrowed_bits: u64,
    pub net_delivered: u64,
    pub net_dropped: u64,
    pub net_bytes: u64,
    pub traps_sent: u64,
    pub plan_alerts: u64,
    pub budget_changes: u64,
    pub decisions: u64,
    pub downlink: [u64; 3],
    /// Highest qdisc backlog seen at a sampling point, bytes.
    pub qdisc_backlog_hwm: u64,
    /// Simulated µs spent settling the overlay beyond the slice asked
    /// for, and simulated drain times (heal → last drained delivery).
    pub settle_us: u64,
    pub drain_us: Vec<u64>,
    /// Bits the tree's root could have moved while deliveries were in
    /// flight (for `htb.root_util`).
    pub htb_capacity_bits: u64,
}

pub trait Workload {
    fn session(&self) -> &CollaborationSession;
    /// Run round `round` (warm-up rounds included in the numbering).
    fn round(&mut self, round: u64, ctx: &mut Ctx) -> RoundReport;
    /// Cumulative layer counters, from public stats handles.
    fn counts(&self) -> Counts;
    /// The static inputs the layer replays need.
    fn shape(&self) -> Shape<'_>;
}

/// Build a workload; everything random in it derives from `seed`.
pub fn build(name: &str, seed: u64, smoke: bool) -> Box<dyn Workload> {
    match name {
        "image_fanout" => Box::new(image_fanout::ImageFanout::new(seed, smoke)),
        "event_storm" => Box::new(event_storm::EventStorm::new(seed, smoke)),
        "shaped_lastmile" => Box::new(shaped_lastmile::ShapedLastmile::new(seed, smoke)),
        "partition_heal" => Box::new(partition_heal::PartitionHeal::new(seed, smoke)),
        other => panic!("unknown workload {other}"),
    }
}

// ------------------------------------------------------------ shared

/// The 8-tier plan catalog (assured / ceiling, bits/s) — the ladder
/// `isp_shaping` and `quality_curve` use.
pub const TIERS: [(&str, u64, u64); 8] = [
    ("copper", 512_000, 1_000_000),
    ("bronze", 1_000_000, 2_000_000),
    ("silver", 1_500_000, 3_000_000),
    ("gold", 2_000_000, 4_000_000),
    ("platinum", 3_000_000, 6_000_000),
    ("biz-s", 4_000_000, 8_000_000),
    ("biz-m", 5_000_000, 10_000_000),
    ("biz-l", 6_000_000, 12_000_000),
];

/// The selector every image share uses.
pub const IMAGE_SELECTOR: &str = "interested_in contains 'image'";

/// An engine that never constrains (publishers, chat-only clients).
pub fn plain_engine() -> InferenceEngine {
    InferenceEngine::new(PolicyDb::new(), QosContract::default())
}

/// A profile whose `interested_in` lists `topics`.
pub fn topic_profile(name: &str, topics: &[String]) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(topics.iter().map(|t| AttrValue::str(t)).collect()),
    );
    p
}

pub fn topic(i: usize) -> String {
    format!("t{i:02}")
}

/// `interested_in contains 'a' or interested_in contains 'b'`.
pub fn or_selector(a: usize, b: usize) -> String {
    format!(
        "interested_in contains '{}' or interested_in contains '{}'",
        topic(a),
        topic(b)
    )
}

/// The graded packet-budget ladder of `quality_curve`: what an operator
/// wanting graceful image degradation configures.
pub fn ladder_policies() -> PolicyDb {
    let mut db = PolicyDb::new();
    let bands: [(&str, &str, u32); 6] = [
        (
            "cg-light",
            "congestion_pct >= 5 and congestion_pct < 15",
            12,
        ),
        ("cg-mild", "congestion_pct >= 15 and congestion_pct < 30", 8),
        (
            "cg-heavy",
            "congestion_pct >= 30 and congestion_pct < 60",
            4,
        ),
        ("cg-saturated", "congestion_pct >= 60", 2),
        ("loss-mild", "loss_pct >= 2 and loss_pct < 10", 8),
        ("loss-heavy", "loss_pct >= 10", 2),
    ];
    for (i, (name, cond, packets)) in bands.iter().enumerate() {
        db.add_rule(
            name,
            i as i32,
            cond,
            AdaptationAction::LimitPackets(*packets),
        )
        .expect("static rule parses");
    }
    db
}

/// Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
    v
}

/// A chat line: the round and index make it unique, the seeded filler
/// is always 28 letters, so every seed moves the same bytes.
pub fn chat_text(rng: &mut StdRng, round: u64, k: usize) -> String {
    let mut s = format!("r{round} m{k} ");
    s.extend((0..28).map(|_| (b'a' + rng.random_range(0..26u8)) as char));
    s
}

/// Every unordered pair of `0..n`.
pub fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .collect()
}

/// Deals a list in seeded order and reshuffles at every wrap: each
/// pass hands out every item once, so every seed runs the same mix,
/// while the order differs and never repeats.
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>) -> Deck<T> {
        let next = items.len();
        Deck { items, next }
    }

    pub fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, rng.random_range(0..=i));
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// The two topic slots (of `window`) the `j`-th client of a domain
/// subscribes to: every slot ends up with the same number of
/// subscribers (to within one), whatever the seed.
pub fn balanced_slots(j: usize, window: usize) -> (usize, usize) {
    let a = j % window;
    (a, (a + 1 + (j / window) % (window - 1)) % window)
}

/// Wall clock of a round's timed section.
pub struct RoundClock(Instant);

impl RoundClock {
    pub fn start() -> RoundClock {
        RoundClock(Instant::now())
    }

    pub fn stop(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The oracle's check of one returned view: right object, the packet
/// count the viewer's budget allows, and the right pixels — rebuilt with
/// the frozen reference codec in round 0, and equal to the first view of
/// that scene at that budget afterwards (`hashes` remembers it).
pub fn view_is_correct(
    hashes: &mut HashMap<(usize, u32), u64>,
    cfg: &SessionConfig,
    (scene_idx, scene): (usize, &Scene),
    (round, object_id, want_packets): (u64, u64, u32),
    view: &ViewedImage,
) -> bool {
    let want_hash = *hashes.entry((scene_idx, want_packets)).or_insert_with(|| {
        if round == 0 {
            oracle::image_hash(&oracle::reference_view(scene, cfg, want_packets))
        } else {
            oracle::image_hash(&view.image)
        }
    });
    view.object_id == object_id
        && view.packets_accepted == want_packets
        && oracle::image_hash(&view.image) == want_hash
}

/// Chat lines logged across all clients and not yet consumed.
pub fn chat_logged(s: &CollaborationSession) -> u64 {
    (0..s.client_count())
        .map(|c| s.client(c).chat.log.len() as u64)
        .sum()
}

/// Check every client's chat log against the chats the oracle expects
/// it to hold (`expected[c]` indexes `chats`: publisher, selector,
/// text), then consume the logs as the application would. Returns the
/// lines found correct and the application bytes logged.
pub fn check_chat_logs(
    s: &mut CollaborationSession,
    profiles: &[Profile],
    chats: &[(usize, String, String)],
    expected: &[Vec<usize>],
    oracle: &mut Oracle,
) -> (u64, u64) {
    let (mut good, mut bytes) = (0, 0);
    for (c, lines) in expected.iter().enumerate() {
        let want: Vec<(&str, &str)> = lines
            .iter()
            .map(|&k| (profiles[chats[k].0].name.as_str(), chats[k].2.as_str()))
            .collect();
        let log = &mut s.client_mut(c).chat.log;
        if want.is_empty() && log.is_empty() {
            continue;
        }
        good += oracle::check_chat_log(log, &want, oracle, &profiles[c].name);
        bytes += log
            .iter()
            .map(|(a, t)| (a.len() + t.len()) as u64)
            .sum::<u64>();
        log.clear();
    }
    (good, bytes)
}

/// Messages every endpoint has interpreted so far, from `BusStats`.
pub fn bus_received(s: &CollaborationSession) -> Vec<u64> {
    (0..s.client_count())
        .map(|c| {
            let b = s.client(c).bus.stats();
            b.accepted + b.transformed + b.rejected + b.malformed + b.bad_selector
        })
        .collect()
}

/// Fold the session-wide counters every workload shares into `c`.
pub fn common_counts(s: &CollaborationSession, c: &mut Counts) {
    let media = s.media_cache_stats();
    c.media_hits = media.hits();
    c.media_misses = media.misses();
    for id in 0..s.client_count() {
        let b = s.client(id).bus.stats();
        c.bus_accepted += b.accepted + b.transformed;
        c.bus_received += b.accepted + b.transformed + b.rejected + b.malformed + b.bad_selector;
    }
    if let Some(ov) = s.overlay() {
        for i in 0..ov.broker_count() {
            let b = ov.stats(i);
            c.broker_forwarded += b.forwarded();
            c.broker_suppressed += b.suppressed();
            c.broker_dedup += b.dedup_dropped();
            c.broker_table += b.table_size();
            if let Some(st) = ov.store_stats(i) {
                c.dtn_hwm = c.dtn_hwm.max(st.peak_bytes());
                c.dtn_transfers += st.custody_transfers();
                c.dtn_refused += st.custody_refused();
            }
        }
    }
    let net = s.net.stats_handle();
    c.net_delivered = net.delivered();
    c.net_dropped = net.dropped();
    c.net_bytes = net.bytes_delivered();
}
