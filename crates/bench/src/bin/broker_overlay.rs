//! Broker overlay cost/benefit: flat semantic multicast versus the
//! 3-domain brokered chain on an identical chat workload with
//! domain-local interests. Flat multicast floods every message to
//! every endpoint and relies on endpoint-side rejection; the overlay
//! suppresses non-matching traffic at the domain boundary, so wire
//! bytes delivered shrink while the accepted set stays identical.

use bench::{fmt, header, row};
use cqos_core::contract::QosContract;
use cqos_core::inference::InferenceEngine;
use cqos_core::policy::PolicyDb;
use cqos_core::session::{CollaborationSession, SessionConfig};
use sempubsub::{AttrValue, Profile};
use simnet::Ticks;
use sysmon::SimHost;

const DOMAINS: usize = 3;
const MSGS_PER_PUBLISHER: usize = 8;

struct Outcome {
    accepted: u64,
    rejected: u64,
    suppressed: u64,
    bytes_delivered: u64,
    broker_suppression: Option<f64>,
}

fn run(per_domain: usize, domains: Option<usize>) -> Outcome {
    let cfg = SessionConfig {
        seed: 0x006F_7665_726C_6179, // "overlay"
        domains,
        ..SessionConfig::default()
    };
    let mut session = CollaborationSession::new(cfg);
    let total = DOMAINS * per_domain;
    let mut ids = Vec::new();
    for i in 0..total {
        // Round-robin placement in brokered mode puts client i in
        // domain i % DOMAINS; mirror that interest split in flat mode
        // so both runs see the same client population.
        let dom = i % DOMAINS;
        let mut profile = Profile::new(&format!("client-{i}"));
        profile.set(
            "interested_in",
            AttrValue::List(vec![
                AttrValue::str(&format!("d{dom}")),
                AttrValue::str("all"),
            ]),
        );
        let id = session
            .add_wired_client(
                profile,
                InferenceEngine::new(PolicyDb::new(), QosContract::default()),
                SimHost::idle(&format!("client-{i}")),
            )
            .expect("add client");
        ids.push(id);
    }
    // The first client of each domain publishes domain-local chatter
    // plus one session-wide broadcast.
    for (dom, &publisher) in ids.iter().enumerate().take(DOMAINS) {
        for m in 0..MSGS_PER_PUBLISHER {
            session
                .share_chat(
                    publisher,
                    &format!("d{dom} update {m}"),
                    &format!("interested_in contains 'd{dom}'"),
                )
                .expect("share");
        }
        session
            .share_chat(
                publisher,
                &format!("hello from d{dom}"),
                "interested_in contains 'all'",
            )
            .expect("share");
    }
    session.pump(Ticks::from_millis(400));
    let (mut accepted, mut rejected, mut suppressed) = (0u64, 0u64, 0u64);
    for &id in &ids {
        let st = session.client(id).bus.stats();
        accepted += st.accepted;
        rejected += st.rejected;
        suppressed += st.suppressed;
    }
    let broker_suppression = domains.map(|n| {
        let (mut fwd, mut sup) = (0u64, 0u64);
        for b in 0..n {
            let h = session.overlay().expect("brokered").stats(b);
            fwd += h.forwarded();
            sup += h.suppressed();
        }
        sup as f64 / (sup + fwd).max(1) as f64
    });
    Outcome {
        accepted,
        rejected,
        suppressed,
        bytes_delivered: session.net.stats().bytes_delivered,
        broker_suppression,
    }
}

fn main() {
    println!("broker overlay — flat multicast vs 3-domain brokered chain");
    println!(
        "workload: per domain, 1 publisher x {MSGS_PER_PUBLISHER} local chats + 1 broadcast\n"
    );
    let widths = [8, 10, 9, 9, 11, 11, 10];
    header(
        &[
            "clients",
            "mode",
            "accepted",
            "rejected",
            "suppressed",
            "wire B",
            "sup ratio",
        ],
        &widths,
    );
    for per_domain in [1usize, 2, 4, 8] {
        let flat = run(per_domain, None);
        let brokered = run(per_domain, Some(DOMAINS));
        assert_eq!(
            flat.accepted, brokered.accepted,
            "overlay must not change the delivered set"
        );
        let total = DOMAINS * per_domain;
        for (label, o) in [("flat", &flat), ("brokered", &brokered)] {
            row(
                &[
                    if label == "flat" {
                        total.to_string()
                    } else {
                        String::new()
                    },
                    label.to_string(),
                    o.accepted.to_string(),
                    o.rejected.to_string(),
                    o.suppressed.to_string(),
                    o.bytes_delivered.to_string(),
                    o.broker_suppression.map(fmt).unwrap_or_default(),
                ],
                &widths,
            );
        }
        let saved = 1.0 - brokered.bytes_delivered as f64 / flat.bytes_delivered.max(1) as f64;
        println!(
            "  -> overlay delivers {:.0}% fewer wire bytes at identical accepted sets",
            saved * 100.0
        );
    }
    println!("\nSIENA-style covering keeps routing tables small while domain-local");
    println!("traffic never crosses a broker whose subtree holds no matching profile");
}
