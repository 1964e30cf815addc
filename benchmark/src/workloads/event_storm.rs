//! `event_storm` — three broker domains, 1 200 clients each subscribed
//! to two of 24 topics, sixteen chat lines per round addressed by
//! two-term `or` selectors drawn from the topic pool.
//!
//! Why: the smallest messages and the widest fan-out, so per-message
//! cost in `sempubsub` (compile, match, interpret), `broker` (covering,
//! suppression) and `simnet` (event scheduling) dominates while `media`
//! is idle. Topics are local to domains (each domain draws from a
//! 12-topic window, neighbours overlapping by half), so the overlay
//! both forwards and suppresses.

use super::{
    all_pairs, balanced_slots, bus_received, chat_logged, chat_text, check_chat_logs,
    common_counts, or_selector, permutation, plain_engine, topic, topic_profile, Counts, Ctx, Deck,
    RoundClock, RoundReport, Workload,
};
use crate::oracle::{self, Conservation};
use crate::replay::{MsgRec, Shape};
use cqos_core::{CollaborationSession, SessionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempubsub::Profile;
use simnet::Ticks;
use std::collections::{BTreeMap, HashMap};
use sysmon::SimHost;

pub const DOMAINS: usize = 3;
const TOPICS: usize = 24;
/// Topics a domain's clients choose from: `[6d, 6d + 12)`.
const WINDOW: usize = 12;
const CHATS: usize = 16;
/// Eight 10 ms broker-service intervals per pump: enough for the
/// three-broker chain to finish forwarding before the overlay settles.
/// (At 40 ms about one round in forty runs into a second 50 ms settle
/// quantum, and whether that is more than 1 % of deliveries — so the
/// 99th percentile — depends on the seed.)
const SLICE: Ticks = Ticks::from_millis(80);
const DEADLINE: Ticks = Ticks::from_secs(2);

pub struct EventStorm {
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
    /// Recipients per selector, from the tree-walk evaluator.
    recipients: HashMap<String, Vec<usize>>,
    conservation: Conservation,
    settle_us: u64,
}

impl EventStorm {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe5);
        let clients = if smoke { 60 } else { 1_200 };
        let cfg = SessionConfig {
            seed,
            domains: Some(DOMAINS),
            workers: 1,
            ..SessionConfig::default()
        };
        let mut s = CollaborationSession::new(cfg.clone());
        let labels = permutation(&mut rng, TOPICS);
        let (mut profiles, mut domains) = (Vec::new(), Vec::new());
        for i in 0..clients {
            let d = i % DOMAINS;
            let (a, b) = balanced_slots(i / DOMAINS, WINDOW);
            let name = format!("c{i}");
            let profile =
                topic_profile(&name, &[topic(labels[6 * d + a]), topic(labels[6 * d + b])]);
            s.add_wired_client(profile.clone(), plain_engine(), SimHost::idle(&name))
                .expect("client joins");
            profiles.push(profile);
            domains.push(d);
        }
        let conservation = Conservation::new(s.net.stats_handle());
        let pairs = Deck::new(all_pairs(TOPICS));
        let publishers = Deck::new((0..clients).collect());
        EventStorm {
            s,
            cfg,
            rng,
            profiles,
            domains,
            labels,
            pairs,
            publishers,
            recipients: HashMap::new(),
            conservation,
            settle_us: 0,
        }
    }
}

/// Packet copies one published message makes on a broker chain: the
/// local multicast, one unicast per chain hop towards the farthest
/// matching domain on each side, and a multicast into every other
/// matching domain.
pub fn chain_copies(home: usize, reached: &[bool], members: &[u64]) -> u64 {
    // The home group holds the domain's clients plus its broker.
    let mut copies = members[home];
    let right = (home + 1..reached.len()).rev().find(|&d| reached[d]);
    let left = (0..home).find(|&d| reached[d]);
    copies += right.map_or(0, |d| (d - home) as u64) + left.map_or(0, |d| (home - d) as u64);
    for (d, &hit) in reached.iter().enumerate() {
        if hit && d != home {
            copies += members[d];
        }
    }
    copies
}

impl Workload for EventStorm {
    fn session(&self) -> &CollaborationSession {
        &self.s
    }

    fn round(&mut self, round: u64, ctx: &mut Ctx) -> RoundReport {
        let n = self.profiles.len();
        let no_content = BTreeMap::new();
        // Draw the round's chats and work out who must log each.
        let mut chats = Vec::with_capacity(CHATS);
        let mut expected: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut members = vec![0u64; DOMAINS];
        for &d in &self.domains {
            members[d] += 1;
        }
        let mut copies = 0u64;
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
            let mut reached = [false; DOMAINS];
            for &c in to.iter().filter(|&&c| c != publisher) {
                expected[c].push(k);
                reached[self.domains[c]] = true;
            }
            copies += chain_copies(self.domains[publisher], &reached, &members);
            chats.push((publisher, selector, text));
        }
        let expected_total: u64 = expected.iter().map(|e| e.len() as u64).sum();
        ctx.oracle.expected += expected_total;
        let received_before = ctx.rec.is_some().then(|| bus_received(&self.s));

        let clock = RoundClock::start();
        let t0 = self.s.net.now();
        for (publisher, selector, text) in &chats {
            let s = &mut self.s;
            ctx.call("share_chat", round, || {
                s.share_chat(*publisher, text, selector)
            })
            .expect("chat publishes");
        }
        let mut report = RoundReport::default();
        let mut logged = 0;
        while logged < expected_total && self.s.net.now() - t0 < DEADLINE {
            let before = self.s.net.now();
            let s = &mut self.s;
            ctx.call("pump", round, || s.pump(SLICE));
            self.settle_us += (self.s.net.now() - before - SLICE).as_micros();
            let now = chat_logged(&self.s);
            if now > logged {
                report
                    .latencies
                    .push(((self.s.net.now() - t0).as_micros(), now - logged));
                logged = now;
            }
        }
        report.wall_ns = clock.stop();

        // ---- oracle, outside the timed section
        let (lines, bytes) =
            check_chat_logs(&mut self.s, &self.profiles, &chats, &expected, ctx.oracle);
        report.deliveries += lines;
        report.app_bytes += bytes;
        ctx.oracle.delivered += report.deliveries;
        self.conservation.expect_exact(copies, ctx.oracle);

        if let (Some(rec), Some(before)) = (ctx.rec.as_deref_mut(), received_before) {
            rec.msgs = chats
                .into_iter()
                .map(|(publisher, selector, text)| MsgRec::Chat {
                    publisher,
                    selector,
                    text,
                })
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
            settle_us: self.settle_us,
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
            scenes: &[],
            wireless: &[],
            tree: None,
            qdisc: None,
            adaptive: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::chain_copies;

    #[test]
    fn chain_copies_counts_hops_and_domain_multicasts() {
        let members = [400, 400, 400];
        // Home only: the local multicast.
        assert_eq!(chain_copies(0, &[true, false, false], &members), 400);
        // 0 -> 2 passes through 1 without delivering there.
        assert_eq!(
            chain_copies(0, &[false, false, true], &members),
            400 + 2 + 400
        );
        // From the middle, one hop each way.
        assert_eq!(
            chain_copies(1, &[true, false, true], &members),
            400 + 2 + 800
        );
    }
}
