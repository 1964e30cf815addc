//! `partition_heal` — three broker domains with custody stores and a
//! flat qdisc on both inter-broker links. Each cycle cuts link (1,2),
//! publishes 32 chat lines and one small colour image into the
//! partition, pumps 150 ms, heals, and pumps until the far side has
//! everything.
//!
//! Why: the same `broker` + `simnet` layers as `event_storm` used the
//! other way round — custody writes, then in-order drain reads through
//! `dtn`, over the flat egress plane instead of the tree. A forwarding
//! gain that costs store or drain, or an egress unification that costs
//! the flat path, shows here.

use super::event_storm::{chain_copies, DOMAINS};
use super::{
    all_pairs, balanced_slots, bus_received, chat_logged, chat_text, check_chat_logs,
    common_counts, or_selector, permutation, plain_engine, topic, topic_profile, view_is_correct,
    Counts, Ctx, Deck, RoundClock, RoundReport, Workload, IMAGE_SELECTOR,
};
use crate::oracle::{self, Conservation};
use crate::replay::{MsgRec, Shape};
use cqos_core::{CollaborationSession, SessionConfig};
use dtn::StoreConfig;
use media::image::{synthetic_scene, Scene};
use media::psnr_color;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sempubsub::Profile;
use simnet::qdisc::{QdiscConfig, StatsHandle};
use simnet::{LinkId, Ticks};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use sysmon::SimHost;

const TOPICS: usize = 8;
const CHATS: usize = 32;
const POOL: usize = 4;
const VIEW_EVERY: usize = 32;
/// Rate of the flat plane on each inter-broker link.
const TRUNK_BPS: u64 = 20_000_000;
const PARTITIONED: Ticks = Ticks::from_millis(150);
const SLICE: Ticks = Ticks::from_millis(20);
const DEADLINE: Ticks = Ticks::from_secs(3);

pub struct PartitionHeal {
    s: CollaborationSession,
    cfg: SessionConfig,
    rng: StdRng,
    profiles: Vec<Profile>,
    domains: Vec<usize>,
    /// Topic name of each slot, and the decks chats draw their topic
    /// pair and publisher from: a seed changes names and order, never
    /// the mix.
    labels: Vec<usize>,
    pairs: Deck<(usize, usize)>,
    publishers: Deck<usize>,
    scenes: Vec<Scene>,
    qdisc_cfg: QdiscConfig,
    trunks: Vec<(LinkId, StatsHandle)>,
    cut: LinkId,
    recipients: HashMap<String, Vec<usize>>,
    view_hashes: HashMap<(usize, u32), u64>,
    conservation: Conservation,
    backlog_hwm: u64,
    settle_us: u64,
    drain_us: Vec<u64>,
}

impl PartitionHeal {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a27);
        let clients = if smoke { 24 } else { 96 };
        let cfg = SessionConfig {
            seed,
            domains: Some(DOMAINS),
            custody: Some(StoreConfig {
                max_bytes: 4 << 20,
                max_bundles: 16_384,
                lifetime: Ticks::from_secs(60),
                retry_after: Ticks::from_millis(10),
                ..StoreConfig::default()
            }),
            color_transform: true,
            full_stream_bpp: Some(6.0),
            workers: 1,
            ..SessionConfig::default()
        };
        let mut s = CollaborationSession::new(cfg.clone());
        let labels = permutation(&mut rng, TOPICS);
        let (mut profiles, mut domains) = (Vec::new(), Vec::new());
        for i in 0..clients {
            let (a, b) = balanced_slots(i / DOMAINS, TOPICS);
            let mut topics = vec![topic(labels[a]), topic(labels[b])];
            // One client per domain also views images.
            if i % VIEW_EVERY == 0 {
                topics.push("image".to_string());
            }
            let name = format!("c{i}");
            let profile = topic_profile(&name, &topics);
            s.add_wired_client(profile.clone(), plain_engine(), SimHost::idle(&name))
                .expect("client joins");
            profiles.push(profile);
            domains.push(i % DOMAINS);
        }
        let qdisc_cfg = QdiscConfig::for_rate(TRUNK_BPS);
        let trunks: Vec<(LinkId, StatsHandle)> = [(0, 1), (1, 2)]
            .into_iter()
            .map(|(a, b)| {
                let link = s.inter_broker_link(a, b).expect("chain link");
                let handle = s
                    .attach_broker_qdisc(a, b, qdisc_cfg.clone())
                    .expect("chain link");
                (link, handle)
            })
            .collect();
        let cut = trunks[1].0;
        let scenes = (0..POOL)
            .map(|_| synthetic_scene(64, 64, 3, 5, rng.random()))
            .collect();
        let conservation = Conservation::new(s.net.stats_handle());
        let pairs = Deck::new(all_pairs(TOPICS));
        let publishers = Deck::new((0..clients).collect());
        PartitionHeal {
            s,
            cfg,
            rng,
            profiles,
            domains,
            labels,
            pairs,
            publishers,
            scenes,
            qdisc_cfg,
            trunks,
            cut,
            recipients: HashMap::new(),
            view_hashes: HashMap::new(),
            conservation,
            backlog_hwm: 0,
            settle_us: 0,
            drain_us: Vec::new(),
        }
    }

    /// Per trunk and class: packets enqueued and bytes dequeued so far.
    fn trunk_counters(&self) -> Vec<[(u64, u64); simnet::qdisc::CLASS_COUNT]> {
        self.trunks
            .iter()
            .map(|(link, _)| {
                let stats = self.s.net.qdisc_stats(*link).expect("qdisc mounted");
                stats.classes.map(|c| (c.enqueued, c.bytes_dequeued))
            })
            .collect()
    }
}

impl Workload for PartitionHeal {
    fn session(&self) -> &CollaborationSession {
        &self.s
    }

    fn round(&mut self, round: u64, ctx: &mut Ctx) -> RoundReport {
        let n = self.profiles.len();
        let no_content = BTreeMap::new();
        let mut members = vec![0u64; DOMAINS];
        for &d in &self.domains {
            members[d] += 1;
        }
        let mut copies = 0u64;
        let mut add_copies = |publisher: usize, to: &[usize], domains: &[usize]| {
            let mut reached = [false; DOMAINS];
            for &c in to.iter().filter(|&&c| c != publisher) {
                reached[domains[c]] = true;
            }
            copies += chain_copies(domains[publisher], &reached, &members);
        };

        let mut chats = Vec::with_capacity(CHATS);
        let mut expected: Vec<Vec<usize>> = vec![Vec::new(); n];
        for k in 0..CHATS {
            let publisher = self.publishers.draw(&mut self.rng);
            let (a, b) = self.pairs.draw(&mut self.rng);
            let selector = or_selector(self.labels[a], self.labels[b]);
            let text = chat_text(&mut self.rng, round, k);
            let profiles = &self.profiles;
            let to = self
                .recipients
                .entry(selector.clone())
                .or_insert_with(|| oracle::recipients(profiles, &selector, &no_content));
            for &c in to.iter().filter(|&&c| c != publisher) {
                expected[c].push(k);
            }
            add_copies(publisher, to, &self.domains);
            chats.push((publisher, selector, text));
        }
        let idx = (round % POOL as u64) as usize;
        let scene = &self.scenes[idx];
        let image_publisher = self.publishers.draw(&mut self.rng);
        let matching = oracle::recipients(
            &self.profiles,
            IMAGE_SELECTOR,
            &oracle::image_content(scene),
        );
        let msgs = 1 + self.cfg.packets_per_image as u64;
        for _ in 0..msgs {
            add_copies(image_publisher, &matching, &self.domains);
        }
        let viewers: Vec<usize> = matching
            .into_iter()
            .filter(|&c| c != image_publisher && self.s.client(c).viewer.packet_budget() > 0)
            .collect();
        let expected_lines: u64 = expected.iter().map(|e| e.len() as u64).sum();
        ctx.oracle.expected += expected_lines + viewers.len() as u64;
        let received_before = ctx.rec.is_some().then(|| bus_received(&self.s));
        let misses_before = self.s.media_cache_stats().misses();
        let trunks_before = ctx.rec.is_some().then(|| self.trunk_counters());
        let stored_before: u64 = (0..DOMAINS)
            .map(|b| {
                self.s
                    .store_stats(b)
                    .expect("custody on")
                    .custody_transfers()
            })
            .sum();
        let dropped_before = self.s.net.stats_handle().dropped();

        let clock = RoundClock::start();
        let t0 = self.s.net.now();
        let cut = self.cut;
        let s = &mut self.s;
        ctx.call("cut", round, || {
            s.net.topology_mut().set_link_up(cut, false)
        });
        for (publisher, selector, text) in &chats {
            ctx.call("share_chat", round, || {
                s.share_chat(*publisher, text, selector)
            })
            .expect("chat publishes");
        }
        let object_id = ctx
            .call("share_image", round, || {
                s.share_image(image_publisher, scene, IMAGE_SELECTOR)
            })
            .expect("share succeeds");

        let mut report = RoundReport::default();
        let mut views = Vec::new();
        let (mut logged, mut t_heal, mut t_last) = (0u64, None, t0);
        let mut slice = PARTITIONED;
        loop {
            let before = self.s.net.now();
            let s = &mut self.s;
            let got = ctx.call("pump", round, || s.pump(slice));
            let now = self.s.net.now();
            self.settle_us += (now - before - slice).as_micros();
            for (_, handle) in &self.trunks {
                let backlog = handle.backlog_bytes.load(Ordering::Relaxed);
                self.backlog_hwm = self.backlog_hwm.max(backlog);
            }
            let lines = chat_logged(&self.s);
            let fresh = lines - logged + got.len() as u64;
            if fresh > 0 {
                report.latencies.push(((now - t0).as_micros(), fresh));
                logged = lines;
                views.extend(got);
                t_last = now;
            }
            if t_heal.is_none() {
                // The partitioned phase is over: heal and drain.
                let s = &mut self.s;
                ctx.call("heal", round, || {
                    s.net.topology_mut().set_link_up(cut, true)
                });
                t_heal = Some(now);
                slice = SLICE;
            }
            let done = logged == expected_lines && views.len() == viewers.len();
            if done || now - t0 >= DEADLINE {
                break;
            }
        }
        report.wall_ns = clock.stop();
        self.drain_us
            .push((t_last - t_heal.expect("healed in the loop")).as_micros());

        // ---- oracle, outside the timed section
        let (lines, bytes) =
            check_chat_logs(&mut self.s, &self.profiles, &chats, &expected, ctx.oracle);
        report.deliveries += lines;
        report.app_bytes += bytes;
        let mut seen = vec![false; n];
        for (client, view) in &views {
            let want_packets = self
                .s
                .client(*client)
                .viewer
                .packet_budget()
                .min(view.total_packets as u32);
            let ok = !std::mem::replace(&mut seen[*client], true)
                && viewers.contains(client)
                && view_is_correct(
                    &mut self.view_hashes,
                    &self.cfg,
                    (idx, scene),
                    (round, object_id, want_packets),
                    view,
                );
            if !ok {
                ctx.oracle
                    .violation(|| format!("cycle {round}: wrong view at client {client}"));
                continue;
            }
            report.deliveries += 1;
            report.app_bytes += view.received_bytes as u64;
            report.psnr_sum += psnr_color(&scene.image, &view.image);
            report.psnr_n += 1;
        }
        ctx.oracle.delivered += report.deliveries;
        for c in 0..n {
            self.s.client_mut(c).viewer.viewed.clear();
        }
        // Custody frames ride on top of the data copies, and nothing
        // may be dropped: the stores hold what the cut link cannot take.
        self.conservation.expect_at_least(copies, ctx.oracle);
        let dropped = self.s.net.stats_handle().dropped() - dropped_before;
        ctx.oracle.check(dropped == 0, || {
            format!("cycle {round}: {dropped} copies dropped")
        });
        for b in 0..DOMAINS {
            let left = self.s.store_stats(b).expect("custody on").stored_bundles();
            ctx.oracle.check(left == 0, || {
                format!("broker {b} still holds {left} bundles")
            });
        }

        if let (Some(rec), Some(before), Some(trunks)) =
            (ctx.rec.as_deref_mut(), received_before, trunks_before)
        {
            rec.msgs = chats
                .into_iter()
                .map(|(publisher, selector, text)| MsgRec::Chat {
                    publisher,
                    selector,
                    text,
                })
                .collect();
            rec.msgs.push(MsgRec::Image {
                publisher: image_publisher,
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
            rec.qdisc_pkts = self
                .trunk_counters()
                .iter()
                .zip(&trunks)
                .map(|(now, was)| {
                    std::array::from_fn(|c| (now[c].0 - was[c].0, now[c].1 - was[c].1))
                })
                .collect();
            rec.bundles = (0..DOMAINS)
                .map(|b| {
                    self.s
                        .store_stats(b)
                        .expect("custody on")
                        .custody_transfers()
                })
                .sum::<u64>()
                - stored_before;
        }
        report
    }

    fn counts(&self) -> Counts {
        let mut c = Counts {
            qdisc_backlog_hwm: self.backlog_hwm,
            settle_us: self.settle_us,
            drain_us: self.drain_us.clone(),
            ..Counts::default()
        };
        common_counts(&self.s, &mut c);
        for (_, handle) in &self.trunks {
            c.qdisc_drops += handle.drops.load(Ordering::Relaxed);
            c.qdisc_marks += handle.ecn_marks.load(Ordering::Relaxed);
        }
        c
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            cfg: &self.cfg,
            profiles: &self.profiles,
            domains: &self.domains,
            scenes: &self.scenes,
            wireless: &[],
            tree: None,
            qdisc: Some(&self.qdisc_cfg),
            adaptive: false,
        }
    }
}
