//! Federated collaboration domains: three sites — a field hospital, a
//! regional command post, and a remote specialist clinic — joined by a
//! chain of semantic brokers instead of one flat multicast group.
//! Each broker aggregates its domain's interest profiles (selector
//! covering) and advertises the merged table to its neighbors, so
//! site-local chatter never crosses the WAN while cross-site imagery
//! still reaches exactly the interested endpoints.
//!
//! Act two cuts the WAN link to the clinic mid-collaboration: with
//! the custody store enabled, the surgeon's follow-up notes park at
//! the partition edge instead of vanishing, and drain to the
//! radiologist — exactly once, in order — when the link heals.
//!
//! ```sh
//! cargo run --example federated_domains
//! ```

use collabqos::prelude::*;

fn member(topics: &[&str], name: &str) -> Profile {
    let mut p = Profile::new(name);
    p.set(
        "interested_in",
        AttrValue::List(topics.iter().map(|t| AttrValue::str(t)).collect()),
    );
    p
}

fn main() {
    // Three domains on a broker chain: 0 (hospital) - 1 (command) - 2
    // (clinic). Clients are attached to an explicit domain.
    let mut session = CollaborationSession::new(SessionConfig {
        domains: Some(3),
        // Every broker carries a bounded custody store, so a WAN
        // outage parks cross-site traffic instead of dropping it.
        custody: Some(StoreConfig {
            retry_after: Ticks::from_millis(10),
            ..StoreConfig::default()
        }),
        ..SessionConfig::default()
    });
    let engine = || InferenceEngine::new(PolicyDb::new(), QosContract::default());

    let mut add = |domain: usize, topics: &[&str], name: &str| {
        session
            .add_wired_client_in_domain(member(topics, name), engine(), SimHost::idle(name), domain)
            .unwrap()
    };
    let surgeon = add(0, &["triage", "imagery"], "hospital-surgeon");
    let _nurse = add(0, &["triage"], "hospital-nurse");
    let _logistics = add(1, &["supplies"], "command-logistics");
    let _watch = add(1, &["supplies", "triage"], "command-watch-officer");
    let radiologist = add(2, &["imagery"], "clinic-radiologist");

    // Site-local chatter: triage updates stay inside the hospital
    // unless someone beyond broker 0 subscribed (the watch officer
    // did), and supply notes never leave the command domain toward
    // the clinic.
    for i in 0..6 {
        session
            .share_chat(
                surgeon,
                &format!("triage update {i}"),
                "interested_in contains 'triage'",
            )
            .unwrap();
        session
            .share_chat(
                _logistics,
                &format!("supply note {i}"),
                "interested_in contains 'supplies'",
            )
            .unwrap();
    }

    // Cross-site imagery: a scan shared by the surgeon crosses two
    // broker hops to the radiologist — and only because broker 2
    // advertised a covering selector for 'imagery'.
    let scan = synthetic_scene(64, 64, 1, 3, 11);
    session
        .share_image(surgeon, &scan, "interested_in contains 'imagery'")
        .unwrap();

    let completed = session.pump(Ticks::from_millis(400));
    println!("federated domains: hospital - command post - specialist clinic\n");
    println!(
        "scan delivered to radiologist: {}",
        completed.iter().any(|(c, _)| *c == radiologist)
    );

    for b in 0..3 {
        let stats = session.overlay().unwrap().stats(b);
        println!(
            "broker {b}: table={} forwarded={} suppressed={} adverts merged={}",
            stats.table_size(),
            stats.forwarded(),
            stats.suppressed(),
            stats.adverts_merged(),
        );
    }
    let (sup, fwd) = (0..3).fold((0, 0), |(s, f), b| {
        let h = session.overlay().unwrap().stats(b);
        (s + h.suppressed(), f + h.forwarded())
    });
    println!(
        "\noverlay suppressed {sup} of {} candidate copies ({:.0}%) at domain boundaries",
        sup + fwd,
        100.0 * sup as f64 / (sup + fwd).max(1) as f64
    );
    println!("flat multicast would have flooded every message to all five sites");

    // Act two: the WAN link to the clinic goes down mid-consult. The
    // surgeon keeps annotating the scan; with the link dead, broker 1
    // (the partition edge) takes custody of each note and parks it in
    // its bounded store rather than dropping it at the boundary.
    let wan = session.inter_broker_link(1, 2).unwrap();
    session.net.topology_mut().set_link_up(wan, false);
    for i in 0..4 {
        session
            .share_chat(
                surgeon,
                &format!("scan note {i}: see slice {}", 12 + i),
                "interested_in contains 'imagery'",
            )
            .unwrap();
    }
    session.pump(Ticks::from_millis(150));
    let parked = session.store_stats(1).unwrap();
    println!(
        "\nWAN outage (command post <-> clinic): {} notes parked at broker 1 \
         ({} bytes in custody), radiologist received {}",
        parked.stored_bundles(),
        parked.stored_bytes(),
        session.client(radiologist).chat.log.len(),
    );

    // Heal: the store drains through the normal selector-covering
    // path with duplicate suppression — exactly once, in order.
    session.net.topology_mut().set_link_up(wan, true);
    session.pump(Ticks::from_millis(300));
    let drained = session.store_stats(1).unwrap();
    println!(
        "link healed: broker 1 store drained to {} bundles after {} custody \
         transfers; radiologist's log:",
        drained.stored_bundles(),
        drained.custody_transfers(),
    );
    for (_, line) in &session.client(radiologist).chat.log {
        println!("  {line}");
    }
}
