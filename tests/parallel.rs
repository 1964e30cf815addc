//! Parallel-path coverage: the sharded session engine must be
//! bit-identical to the serial path for every figure series, and the
//! Lamport lock arbitration must grant in `happened_before` total order
//! no matter how contending requests interleave across threads.

use collabqos::core::concurrency::LockManager;
use collabqos::core::experiments::{
    run_capacity_curve, run_capacity_curve_with, run_fig10, run_fig10_with, run_fig6,
    run_fig6_with, run_fig7, run_fig7_with, run_parallel_scaling,
};
use collabqos::core::shard;
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

#[test]
fn fig6_series_identical_across_worker_counts() {
    let serial = run_fig6(7);
    assert_eq!(run_fig6_with(7, 4), serial);
}

#[test]
fn fig7_series_identical_across_worker_counts() {
    let serial = run_fig7(42);
    for workers in [2, 4, 8] {
        assert_eq!(run_fig7_with(42, workers), serial, "workers = {workers}");
    }
}

#[test]
fn fig10_series_identical_across_worker_counts() {
    let serial = run_fig10();
    let sharded = run_fig10_with(4);
    assert_eq!(sharded.a_sir_by_count, serial.a_sir_by_count);
    assert_eq!(sharded.drop_on_second_join, serial.drop_on_second_join);
    assert_eq!(sharded.drop_on_third_join, serial.drop_on_third_join);
    assert_eq!(sharded.series, serial.series);
}

#[test]
fn capacity_curve_identical_across_worker_counts() {
    let (serial_curve, serial_admitted) = run_capacity_curve(24);
    for workers in [2, 4] {
        let (curve, admitted) = run_capacity_curve_with(24, workers);
        assert_eq!(curve, serial_curve, "workers = {workers}");
        assert_eq!(admitted, serial_admitted, "workers = {workers}");
    }
}

#[test]
fn scaling_workload_identical_across_worker_counts() {
    let serial = run_parallel_scaling(8, 2, 1, 11);
    // Every viewer completes every image.
    assert_eq!(serial.len(), 8 * 2, "all deliveries complete");
    for workers in [2, 4] {
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
