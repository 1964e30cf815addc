//! `image_fanout` — flat LAN, one publisher, eight adaptive viewers on
//! four fixed packet budgets, and a base station with six thin
//! wireless clients. Scenes cycle through a seeded pool larger than
//! the session's `MediaCache`, so every share is a cold encode.
//!
//! Why: `media` does nearly all the work (one encode, eight prefix
//! decodes); `htb`, `broker`, `dtn` and `qdisc` do none. A media gain
//! shows here and must not show on `event_storm`.

use super::{
    bus_received, common_counts, permutation, plain_engine, topic_profile, view_is_correct, Counts,
    Ctx, RoundClock, RoundReport, Workload, IMAGE_SELECTOR,
};
use crate::oracle::{self, Conservation};
use crate::replay::{MsgRec, Shape};
use cqos_core::{CollaborationSession, PolicyDb, QosContract, SessionConfig};
use media::image::{synthetic_scene, Scene};
use media::psnr_color;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sempubsub::Profile;
use simnet::Ticks;
use std::collections::HashMap;
use sysmon::{LoadProfile, SimHost};
use wireless::{Modality, ModalityThresholds, PathLossModel};

const VIEWERS: usize = 8;
/// More scenes than the media cache holds (32), cycled in order, so the
/// least-recently-used entry is always the one needed next.
const POOL: usize = 64;
const SLICE: Ticks = Ticks::from_millis(5);
/// Simulated time after which a missing view is a failure.
const DEADLINE: Ticks = Ticks::from_secs(2);
/// Host CPU loads, in join order, that put the viewers on the paper's
/// CPU-load policy bands: packet budgets 16, 8, 4, 2, 16, 8, 4, 16.
/// Fan-out serves members in join order, so the order is part of the
/// mix and does not change with the seed.
const VIEWER_LOADS: [f64; VIEWERS] = [20.0, 50.0, 65.0, 80.0, 20.0, 50.0, 65.0, 20.0];
/// Wireless clients, all 30 m out: one transmits at twenty times the
/// power of the rest, which clears the full-image SIR threshold and
/// leaves the other five on text only (every join is admitted).
const WIRELESS_MW: [f64; 6] = [2_000.0, 100.0, 100.0, 100.0, 100.0, 100.0];
const WIRELESS_M: f64 = 30.0;

pub struct ImageFanout {
    s: CollaborationSession,
    cfg: SessionConfig,
    publisher: usize,
    viewers: Vec<usize>,
    budgets: Vec<u32>,
    profiles: Vec<Profile>,
    domains: Vec<usize>,
    wireless: Vec<(Profile, f64, f64)>,
    served_wireless: u64,
    scenes: Vec<Scene>,
    /// First hash seen per (scene, packets): later views must agree.
    view_hashes: HashMap<(usize, u32), u64>,
    conservation: Conservation,
    downlink: [u64; 3],
}

impl ImageFanout {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1f0a);
        let cfg = SessionConfig {
            seed,
            color_transform: true,
            full_stream_bpp: Some(6.0),
            workers: 1,
            ..SessionConfig::default()
        };
        let mut s = CollaborationSession::new(cfg.clone());
        let image = ["image".to_string()];
        let mut profiles = vec![topic_profile("publisher", &image)];
        let publisher = s
            .add_wired_client(
                profiles[0].clone(),
                plain_engine(),
                SimHost::idle("publisher"),
            )
            .expect("publisher joins");
        let mut viewers = Vec::new();
        for (i, &load) in VIEWER_LOADS.iter().enumerate() {
            let name = format!("viewer-{i}");
            let host = SimHost::new(
                &name,
                LoadProfile::Constant(load),
                LoadProfile::Constant(2.0),
                LoadProfile::Constant(131_072.0),
            );
            let profile = topic_profile(&name, &image);
            profiles.push(profile.clone());
            viewers.push(
                s.add_adaptive_client(
                    profile,
                    PolicyDb::paper_cpu_load_policy(),
                    QosContract::default(),
                    host,
                )
                .expect("viewer joins"),
            );
        }
        s.attach_base_station(PathLossModel::default(), ModalityThresholds::default())
            .expect("base station attaches");
        let mut wireless = Vec::new();
        for (i, &slot) in permutation(&mut rng, WIRELESS_MW.len()).iter().enumerate() {
            let profile = topic_profile(&format!("thin-{i}"), &image);
            s.wireless_join_with_profile(profile.clone(), WIRELESS_M, WIRELESS_MW[slot])
                .expect("wireless client joins");
            wireless.push((profile, WIRELESS_M, WIRELESS_MW[slot]));
        }
        // One adaptation pass puts each viewer on its budget; the
        // loop itself never adapts (no SNMP in the timed path).
        s.adapt_all();
        let budgets: Vec<u32> = viewers
            .iter()
            .map(|&v| s.client(v).viewer.packet_budget())
            .collect();
        let served_wireless = s
            .base_station
            .as_ref()
            .expect("attached above")
            .station
            .assess_all()
            .iter()
            .filter(|a| a.modality > Modality::None)
            .count() as u64;

        let side = if smoke { 64 } else { 256 };
        let scenes = (0..POOL)
            .map(|_| synthetic_scene(side, side, 3, 5, rng.random()))
            .collect();
        let conservation = Conservation::new(s.net.stats_handle());
        let domains = vec![0; profiles.len()];
        ImageFanout {
            s,
            cfg,
            publisher,
            viewers,
            budgets,
            profiles,
            domains,
            wireless,
            served_wireless,
            scenes,
            view_hashes: HashMap::new(),
            conservation,
            downlink: [0; 3],
        }
    }
}

impl Workload for ImageFanout {
    fn session(&self) -> &CollaborationSession {
        &self.s
    }

    fn round(&mut self, round: u64, ctx: &mut Ctx) -> RoundReport {
        let idx = (round % POOL as u64) as usize;
        let scene = &self.scenes[idx];
        let content = oracle::image_content(scene);
        // Expected viewers, by the tree-walk evaluator (publishers do
        // not hear themselves).
        let expected: Vec<usize> = oracle::recipients(&self.profiles, IMAGE_SELECTOR, &content)
            .into_iter()
            .filter(|&c| c != self.publisher && self.s.client(c).viewer.packet_budget() > 0)
            .collect();
        ctx.oracle.expected += expected.len() as u64;
        let received_before = ctx.rec.is_some().then(|| bus_received(&self.s));
        let misses_before = self.s.media_cache_stats().misses();

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
            if !got.is_empty() {
                report
                    .latencies
                    .push(((s.net.now() - t0).as_micros(), got.len() as u64));
                views.extend(got);
            }
        }
        report.wall_ns = clock.stop();

        // ---- oracle, outside the timed section
        // The base station is served after the viewers; one more slice
        // lets its copies of the last packets land.
        let late = self.s.pump(SLICE);
        ctx.oracle.check(late.is_empty(), || {
            format!(
                "round {round}: {} views after the last expected one",
                late.len()
            )
        });
        let mut seen = vec![false; self.profiles.len()];
        for (client, view) in &views {
            let Some(slot) = self.viewers.iter().position(|v| v == client) else {
                ctx.oracle
                    .violation(|| format!("view delivered to non-viewer client {client}"));
                continue;
            };
            let want_packets = self.budgets[slot].min(view.total_packets as u32);
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
        for &v in &self.viewers {
            self.s.client_mut(v).viewer.viewed.clear();
        }
        // The base station relays every message to each served thin client.
        let msgs = 1 + self.cfg.packets_per_image as u64;
        let bs = self.s.base_station.as_mut().expect("attached in new");
        let relayed = bs.downlink_log.len() as u64;
        ctx.oracle
            .check(relayed == msgs * self.served_wireless, || {
                format!("base station relayed {relayed} events, expected {msgs} x served clients")
            });
        for d in bs.downlink_log.drain(..) {
            self.downlink[d.modality as usize - 1] += 1;
        }
        // Each message is copied to every group member but the sender:
        // the viewers and the base station.
        self.conservation
            .expect_exact(msgs * (VIEWERS as u64 + 1), ctx.oracle);

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
        }
        report
    }

    fn counts(&self) -> Counts {
        let mut c = Counts {
            downlink: self.downlink,
            ..Counts::default()
        };
        common_counts(&self.s, &mut c);
        c
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            cfg: &self.cfg,
            profiles: &self.profiles,
            domains: &self.domains,
            scenes: &self.scenes,
            wireless: &self.wireless,
            tree: None,
            qdisc: None,
            adaptive: false,
        }
    }
}
