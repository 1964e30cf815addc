//! `shaped_lastmile` — flat session whose publisher uplink sits behind
//! a shaping tree (root → 4 sites → 16 APs → one subscriber leaf per
//! client on the 8-tier plan catalog). A small colour scene is
//! re-shared every round (a `MediaCache` hit) and reaches every leaf;
//! every fourth subscriber views it. Then the leaf counters are folded
//! into receiver reports and every subscriber re-adapts over SNMP, as
//! `quality_curve` does for one viewer.
//!
//! The uplink is not the bottleneck (2.5 Gbit/s, as in `isp_shaping`):
//! each leaf is held back by its own plan ceiling, so at most instants
//! few leaves are eligible and the tree's per-packet scans are long.
//!
//! Why: the only workload with a tree mounted — `htb`'s per-packet path
//! plus the `snmp`/`core` adaptation loop carry it, `media` takes the
//! cache-hit and prefix-cut path instead of encoding, and PSNR against
//! plan tier is the paper's own outcome measure.

use super::{
    bus_received, common_counts, ladder_policies, plain_engine, topic_profile, view_is_correct,
    Counts, Ctx, RoundClock, RoundReport, Workload, IMAGE_SELECTOR, TIERS,
};
use crate::oracle::{self, CeilingWatch, Conservation};
use crate::replay::{MsgRec, Shape};
use cqos_core::{CollaborationSession, QosContract, SessionConfig};
use htb::{RatePlan, TreeSpec};
use media::image::{synthetic_scene, Scene};
use media::psnr_color;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sempubsub::Profile;
use simnet::rtp::ReceiverReport;
use simnet::{LinkSpec, NodeId, Ticks};
use snmp::transport::TrapSink;
use std::collections::HashMap;
use sysmon::SimHost;

const SITES: usize = 4;
const APS_PER_SITE: usize = 4;
/// The shaped uplink, and the rate of every access link: far above
/// what a round offers, so plan ceilings do the shaping.
const UPLINK: u64 = 2_500_000_000;
/// One subscriber in `VIEW_EVERY` is interested in images; the rest
/// receive the packets (the tree shapes them all) and reject them.
const VIEW_EVERY: usize = 8;
/// Scenes cycled; fewer than the warm-up rounds, so every timed share
/// hits the cache.
const POOL: usize = 4;
const SLICE: Ticks = Ticks::from_millis(50);
/// The plan window: two pump slices.
const WINDOW_SECS: f64 = 0.1;
const DEADLINE: Ticks = Ticks::from_secs(5);

pub struct ShapedLastmile {
    s: CollaborationSession,
    cfg: SessionConfig,
    publisher: usize,
    subscribers: Vec<usize>,
    profiles: Vec<Profile>,
    domains: Vec<usize>,
    scenes: Vec<Scene>,
    spec: TreeSpec,
    stats: htb::TreeStatsHandle,
    /// Leaf of each subscriber, aligned with `subscribers`.
    leaves: Vec<htb::NodeIdx>,
    watch: CeilingWatch,
    sink_node: NodeId,
    sink: TrapSink,
    view_hashes: HashMap<(usize, u32), u64>,
    conservation: Conservation,
    plan_alerts: u64,
    traps: u64,
    budget_changes: u64,
    decisions: u64,
    capacity_bits: u64,
}

impl ShapedLastmile {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a9ed);
        let count = if smoke { 32 } else { 768 };
        let cfg = SessionConfig {
            seed,
            color_transform: true,
            full_stream_bpp: Some(6.0),
            link: LinkSpec::lan().with_bandwidth_bps(UPLINK),
            workers: 1,
            ..SessionConfig::default()
        };
        let mut s = CollaborationSession::new(cfg.clone());
        let image = ["image".to_string()];
        let other = ["chat".to_string()];
        let mut profiles = vec![topic_profile("publisher", &image)];
        let publisher = s
            .add_wired_client(
                profiles[0].clone(),
                plain_engine(),
                SimHost::idle("publisher"),
            )
            .expect("publisher joins");
        let mut subscribers = Vec::with_capacity(count);
        for i in 0..count {
            let name = format!("sub{i}");
            // One viewer per block of `VIEW_EVERY` subscribers, its
            // position rotating so that viewers sit on every plan tier.
            let views = i % VIEW_EVERY == (i / VIEW_EVERY) % VIEW_EVERY;
            let topics = if views { &image } else { &other };
            let profile = topic_profile(&name, topics);
            profiles.push(profile.clone());
            subscribers.push(
                s.add_adaptive_client(
                    profile,
                    ladder_policies(),
                    QosContract::default(),
                    SimHost::idle(&name),
                )
                .expect("subscriber joins"),
            );
        }

        // One image burst must never be AQM-dropped mid-prefix, so
        // CoDel is lenient: this workload measures shaping and the
        // adaptation loop, not the AQM.
        let mut spec = TreeSpec::new(UPLINK)
            .with_codel(2_000_000, 4_000_000)
            .with_burst_bytes(1_514);
        let mut aps = Vec::new();
        for site in 0..SITES {
            let node = spec.add_site(&format!("site{site}"), UPLINK / 4, UPLINK / 2);
            for ap in 0..APS_PER_SITE {
                aps.push(spec.add_ap(node, &format!("ap{site}.{ap}"), UPLINK / 16, UPLINK / 4));
            }
        }
        // Plans cycle through the catalog, as in `isp_shaping`. The
        // tree's cost depends on where each tier sits, so placement is
        // part of the mix and does not change with the seed.
        for (i, &v) in subscribers.iter().enumerate() {
            let (name, assured, ceil) = TIERS[i % TIERS.len()];
            let plan = RatePlan::new(name, assured, ceil);
            spec.add_subscriber(
                aps[i % aps.len()],
                &format!("sub{i}"),
                &plan,
                s.client(v).node.0,
            );
        }
        let by_dst: HashMap<u32, htb::NodeIdx> = spec
            .subscriber_nodes()
            .into_iter()
            .map(|(leaf, dst)| (dst, leaf))
            .collect();
        let leaves: Vec<htb::NodeIdx> = subscribers
            .iter()
            .map(|&v| by_dst[&s.client(v).node.0])
            .collect();
        let stats = s.attach_tree(publisher, spec.clone());

        let sink_node = s.add_echo_node("noc").expect("sink node joins");
        let sink = TrapSink::bind(&mut s.net, sink_node).expect("trap port is free");
        let scenes = (0..POOL)
            .map(|_| synthetic_scene(64, 64, 3, 5, rng.random()))
            .collect();
        let watch = CeilingWatch::new(stats.clone(), leaves.clone(), s.net.now().as_micros());
        let conservation = Conservation::new(s.net.stats_handle());
        let domains = vec![0; profiles.len()];
        ShapedLastmile {
            s,
            cfg,
            publisher,
            subscribers,
            profiles,
            domains,
            scenes,
            spec,
            stats,
            leaves,
            watch,
            sink_node,
            sink,
            view_hashes: HashMap::new(),
            conservation,
            plan_alerts: 0,
            traps: 0,
            budget_changes: 0,
            decisions: 0,
            capacity_bits: 0,
        }
    }

    fn budgets(&self) -> Vec<u32> {
        self.subscribers
            .iter()
            .map(|&v| self.s.client(v).viewer.packet_budget())
            .collect()
    }
}

impl Workload for ShapedLastmile {
    fn session(&self) -> &CollaborationSession {
        &self.s
    }

    fn round(&mut self, round: u64, ctx: &mut Ctx) -> RoundReport {
        let idx = (round % POOL as u64) as usize;
        let scene = &self.scenes[idx];
        let budgets = self.budgets();
        let content = oracle::image_content(scene);
        let expected: Vec<usize> = oracle::recipients(&self.profiles, IMAGE_SELECTOR, &content)
            .into_iter()
            .filter(|&c| c != self.publisher && self.s.client(c).viewer.packet_budget() > 0)
            .collect();
        ctx.oracle.expected += expected.len() as u64;
        let received_before = ctx.rec.is_some().then(|| bus_received(&self.s));
        let misses_before = self.s.media_cache_stats().misses();
        let leaf_before: Vec<(u64, u64)> = self
            .leaves
            .iter()
            .map(|&l| (self.stats.bits_sent(l), self.stats.drops(l)))
            .collect();
        self.watch.reset_windows();

        let clock = RoundClock::start();
        let t0 = self.s.net.now();
        let s = &mut self.s;
        let object_id = ctx
            .call("share_image", round, || {
                s.share_image(self.publisher, scene, IMAGE_SELECTOR)
            })
            .expect("share succeeds");
        let mut views = Vec::new();
        let mut report = RoundReport::default();
        while views.len() < expected.len() && s.net.now() - t0 < DEADLINE {
            let got = ctx.call("pump", round, || s.pump(SLICE));
            self.watch.sample(s.net.now().as_micros(), ctx.oracle);
            if !got.is_empty() {
                report
                    .latencies
                    .push(((s.net.now() - t0).as_micros(), got.len() as u64));
                views.extend(got);
            }
        }
        self.capacity_bits += UPLINK * (s.net.now() - t0).as_micros() / 1_000_000;

        // Close the loop: each leaf's busiest plan window becomes the
        // congestion echo, its AQM drops the loss fraction.
        let msgs = 1 + self.cfg.packets_per_image as u64;
        ctx.call("ingest_reports", round, || {
            for (i, &v) in self.subscribers.iter().enumerate() {
                let leaf = self.leaves[i];
                let ceil = self.stats.ceil_bps(leaf) as f64;
                let dropped = (self.stats.drops(leaf) - leaf_before[i].1) as f64;
                let report = ReceiverReport {
                    fraction_ecn_ce: (self.watch.window_bits[i] as f64 / (ceil * WINDOW_SECS))
                        .min(1.0),
                    fraction_lost: (dropped / msgs as f64).min(1.0),
                    ..ReceiverReport::default()
                };
                s.ingest_rtp_report(v, &report);
            }
        });
        let decisions = ctx.call("adapt_all", round, || s.adapt_all());
        let alerts = ctx.call("plan_alerts", round, || {
            s.service_plan_alerts(self.sink_node)
        });
        report.wall_ns = clock.stop();

        // ---- oracle, outside the timed section
        self.plan_alerts += alerts as u64;
        // Let the traps land, then resynchronise every watch with the
        // simulated time adaptation consumed.
        self.s.pump(Ticks::from_millis(1));
        self.traps += self.sink.service(&mut self.s.net) as u64;
        self.watch.sample(self.s.net.now().as_micros(), ctx.oracle);
        self.decisions += decisions.len() as u64;
        self.budget_changes += self
            .budgets()
            .iter()
            .zip(&budgets)
            .filter(|(a, b)| a != b)
            .count() as u64;

        let mut seen = vec![false; self.profiles.len()];
        for (client, view) in &views {
            let Some(slot) = self.subscribers.iter().position(|v| v == client) else {
                ctx.oracle
                    .violation(|| format!("view delivered to non-subscriber client {client}"));
                continue;
            };
            let want_packets = budgets[slot].min(view.total_packets as u32);
            let ok = !std::mem::replace(&mut seen[*client], true)
                && expected.contains(client)
                && view_is_correct(
                    &mut self.view_hashes,
                    &self.cfg,
                    (idx, scene),
                    (round, object_id, want_packets),
                    view,
                );
            if !ok {
                ctx.oracle.violation(|| {
                    format!("round {round}: wrong view at client {client} ({want_packets} packets)")
                });
                continue;
            }
            report.deliveries += 1;
            report.app_bytes += view.received_bytes as u64;
            report.psnr_sum += psnr_color(&scene.image, &view.image);
            report.psnr_n += 1;
        }
        ctx.oracle.delivered += report.deliveries;
        for &v in &self.subscribers {
            self.s.client_mut(v).viewer.viewed.clear();
        }
        // One copy of each message per viewer, a GET and its response
        // per adapting client, and one copy per trap.
        let n = self.subscribers.len() as u64;
        self.conservation
            .expect_exact(msgs * n + 2 * (n + 1) + alerts as u64, ctx.oracle);

        if let (Some(rec), Some(before)) = (ctx.rec.as_deref_mut(), received_before) {
            rec.msgs.push(MsgRec::Image {
                publisher: self.publisher,
                scene: idx,
                object_id,
                cache_hit: self.s.media_cache_stats().misses() == misses_before,
            });
            rec.views = views
                .iter()
                .map(|(_, v)| (idx, v.packets_accepted))
                .collect();
            rec.received = bus_received(&self.s)
                .iter()
                .zip(&before)
                .map(|(a, b)| (a - b) as u32)
                .collect();
            rec.leaf_bits = self
                .leaves
                .iter()
                .zip(&leaf_before)
                .map(|(&l, b)| self.stats.bits_sent(l) - b.0)
                .collect();
            rec.decisions = decisions.len() as u64;
            rec.reports = self
                .subscribers
                .iter()
                .map(|&v| {
                    let c = self.s.client(v);
                    (c.rtp_loss.unwrap_or(0.0), c.rtp_congestion.unwrap_or(0.0))
                })
                .collect();
        }
        report
    }

    fn counts(&self) -> Counts {
        let mut c = Counts {
            plan_alerts: self.plan_alerts,
            traps_sent: self.traps,
            budget_changes: self.budget_changes,
            decisions: self.decisions,
            htb_capacity_bits: self.capacity_bits,
            ..Counts::default()
        };
        common_counts(&self.s, &mut c);
        c.htb_bits = self.stats.bits_sent(htb::ROOT);
        c.htb_drops = self.stats.drops(htb::ROOT);
        c.htb_marks = self.stats.ecn_marks(htb::ROOT);
        c.htb_borrowed_bits = (0..self.stats.node_count())
            .map(|n| self.stats.borrowed_bits(n))
            .sum();
        c
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            cfg: &self.cfg,
            profiles: &self.profiles,
            domains: &self.domains,
            scenes: &self.scenes,
            wireless: &[],
            tree: Some(&self.spec),
            qdisc: None,
            adaptive: true,
        }
    }
}
