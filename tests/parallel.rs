//! Parallel-path coverage: the sharded session engine must be
//! bit-identical to the serial path for every figure series, and the
//! Lamport lock arbitration must grant in `happened_before` total order
//! no matter how contending requests interleave across threads. The
//! things a session shares across clients — one decoded frame per
//! message buffer, one compiled program per selector, one decoded view
//! per image prefix — are pinned here too: their lifetime, and that
//! sharding cannot be seen in them.

use collabqos::core::concurrency::LockManager;
use collabqos::core::experiments::{run_fig6, run_fig7, run_parallel_scaling};
use collabqos::core::session::ClientId;
use collabqos::core::shard;
use collabqos::prelude::*;
use collabqos::sempubsub::bus::BusStats;
use std::sync::{Arc, Barrier, Mutex};

// ------------------------------------------------ lock-order stress

/// Eight threads slam the same object with pre-assigned `(lamport,
/// client)` stamps while a holder pins the lock; once contention
/// settles, grants must follow the `happened_before` total order
/// exactly — the property the sharded engine's determinism rests on.
#[test]
fn lock_manager_grants_in_lamport_order_under_contention() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 16;
    let manager = Arc::new(Mutex::new(LockManager::new()));
    let object = 7u64;

    // Pin the lock so every contending request queues.
    manager.lock().unwrap().request(object, "holder", 0);

    let barrier = Arc::new(Barrier::new(THREADS));
    let mut expected = Vec::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let manager = Arc::clone(&manager);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for k in 0..PER_THREAD {
                    // Distinct `(lamport, client)` stamps, interleaved
                    // across threads so arrival order != Lamport order
                    // (one distinct client per request, as every
                    // replica's manager sees all clients' Lock events).
                    let lamport = 1 + (k * THREADS + t) as u64;
                    let client = format!("client-{t}-{k}");
                    manager.lock().unwrap().request(object, &client, lamport);
                }
            });
            for k in 0..PER_THREAD {
                let lamport = 1 + (k * THREADS + t) as u64;
                expected.push((lamport, format!("client-{t}-{k}"), ()));
            }
        }
    });

    // Drain the queue: each grant is observed via the history log.
    let mut guard = manager.lock().unwrap();
    let mut current = "holder".to_string();
    while let Ok(Some(next)) = guard.release(object, &current) {
        current = next;
    }
    let granted: Vec<(u64, String)> = guard.history()[1..]
        .iter()
        .map(|(_, client, lamport)| (*lamport, client.clone()))
        .collect();
    assert_eq!(granted.len(), THREADS * PER_THREAD, "every request granted");

    // The reference order is the shard merge helper's `(lamport,
    // client)` total order — grants must match it exactly.
    let expected: Vec<(u64, String)> = shard::merge_causal(expected)
        .into_iter()
        .map(|(l, c, _)| (l, c))
        .collect();
    assert_eq!(granted, expected, "grants follow happened_before order");
}

// ------------------------------------------------ figure determinism

fn viewer_cfg(seed: u64, workers: usize) -> SessionConfig {
    SessionConfig {
        seed,
        workers,
        ..SessionConfig::default()
    }
}

#[test]
fn fig6_series_identical_across_worker_counts() {
    let serial = run_fig6(viewer_cfg(7, 1));
    assert_eq!(run_fig6(viewer_cfg(7, 4)), serial);
}

#[test]
fn fig7_series_identical_across_worker_counts() {
    let serial = run_fig7(viewer_cfg(42, 1));
    for workers in [2, 4, 8] {
        assert_eq!(
            run_fig7(viewer_cfg(42, workers)),
            serial,
            "workers = {workers}"
        );
    }
}

/// The rows, and the view store's counts with them: viewers on worker
/// threads ask the session's one store, the first to ask for a prefix
/// decodes it and the rest share that image, whichever thread it was.
#[test]
fn scaling_workload_identical_across_worker_counts() {
    let serial = run_parallel_scaling(8, 2, 1, 11);
    // Every viewer completes every image.
    assert_eq!(serial.rows.len(), 8 * 2, "all deliveries complete");
    // Two images, one prefix each; the other seven viewers share it.
    assert_eq!((serial.view_hits, serial.view_misses), (2 * 7, 2));
    for workers in [2, 4, 8] {
        assert_eq!(
            run_parallel_scaling(8, 2, workers, 11),
            serial,
            "workers = {workers}"
        );
    }
}

// ------------------------------------------------ bus statistics

/// Every applied payload must be accounted for identically at any
/// worker count: 4 workers split the same clients across more shards,
/// never changing what each endpoint accepted or rejected.
#[test]
fn bus_stat_totals_identical_across_worker_counts() {
    use collabqos::prelude::*;

    fn run(workers: usize) -> (u64, u64) {
        let cfg = SessionConfig {
            seed: 61,
            workers,
            ..SessionConfig::default()
        };
        let mut session = CollaborationSession::new(cfg);
        let mut ids = Vec::new();
        for i in 0..8 {
            let mut p = Profile::new(&format!("client{i}"));
            // Odd clients reject the image traffic.
            let topic = if i % 2 == 0 { "image" } else { "text" };
            p.set(
                "interested_in",
                AttrValue::List(vec![AttrValue::str(topic)]),
            );
            ids.push(
                session
                    .add_wired_client(
                        p,
                        InferenceEngine::new(PolicyDb::new(), QosContract::default()),
                        SimHost::idle(&format!("client{i}")),
                    )
                    .unwrap(),
            );
        }
        for round in 0..2u64 {
            let scene = synthetic_scene(32, 32, 1, 3, 61 + round);
            session
                .share_image(ids[0], &scene, "interested_in contains 'image'")
                .unwrap();
            session.pump(Ticks::from_secs(2));
        }
        let stats: Vec<_> = ids
            .iter()
            .map(|&id| session.client(id).bus.stats())
            .collect();
        (
            stats.iter().map(|s| s.accepted + s.transformed).sum(),
            stats
                .iter()
                .map(|s| s.rejected + s.malformed + s.bad_selector)
                .sum(),
        )
    }

    let (d1, x1) = run(1);
    let (d4, x4) = run(4);
    assert!(d1 > 0, "the serial run applied payloads");
    assert!(x1 > 0, "the serial run rejected payloads");
    assert_eq!((d1, x1), (d4, x4), "bus totals diverged across workers");
}

// ------------------------------------------------ shared frames + store
//
// The session decodes each message buffer once and compiles each
// selector string once, whoever receives them; every decision stays
// with the receiving client. These tests pin what the shared things
// cost (one store lookup per buffer however its copies arrive, one
// program per distinct selector) and that sharding cannot be seen in
// them (`workers` 1 / 2 / 4 equal, the store's counters included).

/// A chat-only session of `clients` clients, each subscribed to two of
/// `topics` topics — `event_storm`'s shape, scaled down.
fn topic_session(
    cfg: SessionConfig,
    clients: usize,
    topics: usize,
) -> (CollaborationSession, Vec<ClientId>) {
    let mut session = CollaborationSession::new(cfg);
    let ids = (0..clients)
        .map(|i| {
            let name = format!("client{i}");
            let mut p = Profile::new(&name);
            let subscribed = [i % topics, (i * 7 + 3) % topics].map(|t| format!("t{t}"));
            p.set(
                "topics",
                AttrValue::List(subscribed.iter().map(|t| AttrValue::str(t)).collect()),
            );
            let engine = InferenceEngine::new(PolicyDb::new(), QosContract::default());
            session
                .add_wired_client(p, engine, SimHost::idle(&name))
                .unwrap()
        })
        .collect();
    (session, ids)
}

/// The `k`-th of the `topics · (topics − 1) / 2` two-topic selectors.
fn pair_selector(topics: usize, k: usize) -> String {
    let pairs: Vec<(usize, usize)> = (0..topics)
        .flat_map(|a| (a + 1..topics).map(move |b| (a, b)))
        .collect();
    let (a, b) = pairs[k % pairs.len()];
    format!("topics contains 't{a}' or topics contains 't{b}'")
}

type ChatLog = Vec<(String, String)>;

/// Rounds of chats under cycling selectors from rotating publishers;
/// returns every client's chat log and `BusStats`, and the store's
/// (hits, misses, evictions).
fn run_topic_rounds(
    workers: usize,
    rounds: usize,
    selectors: usize,
) -> (Vec<ChatLog>, Vec<BusStats>, (u64, u64, u64)) {
    let cfg = SessionConfig {
        seed: 23,
        workers,
        domains: Some(3),
        ..SessionConfig::default()
    };
    let (mut s, ids) = topic_session(cfg, 60, 10);
    for round in 0..rounds {
        for k in 0..4 {
            let n = round * 4 + k;
            let publisher = ids[(n * 13) % ids.len()];
            let selector = pair_selector(10, n % selectors);
            s.share_chat(publisher, &format!("line {n}"), &selector)
                .unwrap();
        }
        s.pump(Ticks::from_millis(80));
    }
    let logs = ids.iter().map(|&c| s.client(c).chat.log.clone()).collect();
    let stats = ids.iter().map(|&c| s.client(c).bus.stats()).collect();
    let store = s.selector_store().stats();
    (
        logs,
        stats,
        (store.hits(), store.misses(), store.evictions()),
    )
}

/// Brokered 3 × 20 clients, 40 selectors: chat logs, per-client
/// `BusStats` and the store's counters are the same at any worker
/// count — the store is touched in `pump`'s serial phase only.
#[test]
fn brokered_chat_and_store_counters_identical_across_worker_counts() {
    let serial = run_topic_rounds(1, 30, 40);
    let delivered: usize = serial.0.iter().map(Vec::len).sum();
    assert!(delivered > 1_000, "only {delivered} chat lines delivered");
    assert_eq!(serial.2 .1, 40, "one compilation per distinct selector");
    assert_eq!(serial.2 .2, 0, "nothing evicted");
    for workers in [2, 4] {
        assert_eq!(
            run_topic_rounds(workers, 30, 40),
            serial,
            "workers = {workers}"
        );
    }
}

/// One buffer whose copies reach their receivers in different pumps
/// (fan-out serialised on a slow access link) costs one store lookup:
/// the frame rides the buffer, so it outlives the pump that resolved
/// it. (A per-pump frame table raised `image_fanout`'s allocations by
/// two thirds, PR 17.)
#[test]
fn buffer_spread_over_pumps_costs_one_store_lookup() {
    let cfg = SessionConfig {
        seed: 5,
        link: LinkSpec {
            bandwidth_bps: 1_000_000,
            ..LinkSpec::lan()
        },
        ..SessionConfig::default()
    };
    let (mut s, ids) = topic_session(cfg, 6, 1);
    let selector = "topics contains 't0'";
    let store = s.selector_store().stats();
    let lines = |s: &CollaborationSession| -> usize {
        ids.iter().map(|&c| s.client(c).chat.log.len()).sum()
    };

    s.share_chat(ids[0], "hello", selector).unwrap();
    assert_eq!((store.hits(), store.misses()), (0, 1), "publish compiles");
    let mut pumps_with_arrivals = 0;
    for _ in 0..40 {
        let before = lines(&s);
        s.pump(Ticks::from_micros(600));
        pumps_with_arrivals += usize::from(lines(&s) > before);
    }
    assert_eq!(lines(&s), 5, "every other client got the line");
    assert!(
        pumps_with_arrivals >= 2,
        "copies must arrive in different pumps for this test to mean anything"
    );
    assert_eq!(
        (store.hits(), store.misses()),
        (1, 1),
        "five receptions in {pumps_with_arrivals} pumps, one store lookup"
    );

    for round in 0..1_000 {
        s.share_chat(ids[round % ids.len()], "again", selector)
            .unwrap();
        s.pump(Ticks::from_millis(20));
    }
    assert_eq!(lines(&s), 5 + 5 * 1_000);
    assert_eq!(
        (store.hits(), store.misses()),
        (1 + 2 * 1_000, 1),
        "one publish + one resolve per message, never a recompile"
    );
}

/// A client changing state mid-session is the paper's whole point: the
/// next message is routed by the new profile, and the change costs no
/// compilation — the bus re-snapshots the one profile, O(attributes).
#[test]
fn profile_set_mid_session_reroutes_with_zero_store_misses() {
    let cfg = SessionConfig {
        seed: 9,
        ..SessionConfig::default()
    };
    let (mut s, ids) = topic_session(cfg, 3, 1);
    let (publisher, mover) = (ids[0], ids[1]);
    s.client_mut(mover).bus.profile.set("mode", "image");
    let round = |s: &mut CollaborationSession, tag: &str| {
        s.share_chat(publisher, &format!("{tag} image"), "mode == 'image'")
            .unwrap();
        s.share_chat(publisher, &format!("{tag} text"), "mode == 'text'")
            .unwrap();
        s.pump(Ticks::from_millis(20));
    };
    round(&mut s, "first");
    let store = s.selector_store().stats();
    let misses = store.misses();
    let stats_before = s.client(mover).bus.stats();

    s.client_mut(mover).bus.profile.set("mode", "text");
    round(&mut s, "second");

    let texts: Vec<&str> = s.client(mover).chat.log.iter().map(|(_, t)| &**t).collect();
    assert_eq!(texts, ["first image", "second text"]);
    let stats = s.client(mover).bus.stats();
    assert_eq!(stats.accepted, stats_before.accepted + 1);
    assert_eq!(stats.rejected, stats_before.rejected + 1);
    assert_eq!(
        store.misses(),
        misses,
        "a profile change recompiles nothing"
    );
}

/// `event_storm`'s selector working set over a scaled-down client
/// population: 276 two-topic selectors cycled for 300 rounds. The
/// session holds one program per distinct selector — not one per
/// client per selector — and none is ever evicted or recompiled.
#[test]
fn session_holds_one_program_per_distinct_selector() {
    let cfg = SessionConfig {
        seed: 31,
        domains: Some(3),
        ..SessionConfig::default()
    };
    let (mut s, ids) = topic_session(cfg, 48, 24);
    for round in 0..300 {
        for k in 0..16 {
            let n = round * 16 + k;
            // A stride coprime to 276 walks the whole deck.
            let selector = pair_selector(24, n * 5);
            s.share_chat(ids[(n * 11) % ids.len()], "storm", &selector)
                .unwrap();
        }
        s.pump(Ticks::from_millis(80));
    }
    let store = s.selector_store();
    assert_eq!(store.len(), 276, "programs held == distinct selectors");
    assert_eq!(store.stats().misses(), 276);
    assert_eq!(store.stats().evictions(), 0);
    // Lookups are per buffer (one at publish, one at the first
    // reception), not per reception.
    assert_eq!(store.stats().hits() + store.stats().misses(), 2 * 300 * 16);
    let received: u64 = ids
        .iter()
        .map(|&c| {
            let b = s.client(c).bus.stats();
            b.accepted + b.rejected
        })
        .sum();
    assert!(received > 10 * 300 * 16, "only {received} receptions");
}
