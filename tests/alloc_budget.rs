//! Allocation budget: what a steady-state reception costs the heap.
//!
//! A counting global allocator counts per thread, so the tests of this
//! binary, which the harness runs on parallel threads, do not see each
//! other's allocations; every session here runs with `workers: 1`, on
//! the test's own thread. Each test warms its session up, then counts
//! the allocations of `pump` alone (publishing and encoding stay
//! outside the window) and divides by what the pump delivered.
//!
//! The bounds are upper bounds — the measured count plus a margin —
//! because the toolchain floats on `stable` and the standard library's
//! growth policies may move a count by a little. An accepted chat line
//! costs exactly the log's own `(author, text)` pair plus its share of
//! the one decode its buffer gets per session (and, brokered, of each
//! broker's routing of it); an image view, its share of the buffer
//! decodes, the pending entry, the reassembled container and the
//! image decode. Measured on this suite's sessions when the bounds were
//! set: 2.57 and 3.33 allocations per flat and brokered chat delivery,
//! 27.6 and 38.8 per flat and brokered image view — where the per-client
//! decode and copies they replace cost 5.14, 6.26, 65.5 and 82.8.

use collabqos::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down has no counter left; its allocations
    // belong to no test.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain `Cell<u64>` with a
// const initialiser, so bumping it never allocates or runs a
// destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's responsibility under the `GlobalAlloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const CHAT: &str = "interested_in contains 'chat'";
const IMAGES: &str = "interested_in contains 'image'";
const CLIENTS: usize = 12;
const WARM_ROUNDS: usize = 5;
const ROUNDS: usize = 20;

/// A session of `CLIENTS` passive clients interested in chat and
/// images: flat, or over three broker domains.
fn session(domains: Option<usize>) -> CollaborationSession {
    let mut s = CollaborationSession::new(SessionConfig {
        seed: 31,
        domains,
        ..SessionConfig::default()
    });
    for i in 0..CLIENTS {
        let name = format!("c{i}");
        let mut profile = Profile::new(&name);
        profile.set(
            "interested_in",
            AttrValue::List(vec![AttrValue::str("chat"), AttrValue::str("image")]),
        );
        let engine = InferenceEngine::new(PolicyDb::new(), QosContract::default());
        s.add_wired_client(profile, engine, SimHost::idle(&name))
            .expect("client joins");
    }
    s
}

/// Allocations per chat line delivered, over `ROUNDS` rounds of four
/// lines from four publishers each, after `WARM_ROUNDS` rounds that let
/// every buffer the pump keeps reach its size.
fn allocs_per_chat_delivery(domains: Option<usize>) -> f64 {
    let mut s = session(domains);
    let (mut counted, mut delivered) = (0, 0);
    for round in 0..WARM_ROUNDS + ROUNDS {
        for k in 0..4 {
            let from = (round * 4 + k) % CLIENTS;
            s.share_chat(from, &format!("line {round}.{k}"), CHAT)
                .expect("chat publishes");
        }
        let before = allocs();
        s.pump(Ticks::from_millis(100));
        let spent = allocs() - before;
        let lines: usize = (0..CLIENTS).map(|id| s.client(id).chat.log.len()).sum();
        assert_eq!(
            lines,
            4 * (CLIENTS - 1),
            "every other client hears each line"
        );
        for id in 0..CLIENTS {
            s.client_mut(id).chat.log.clear();
        }
        if round >= WARM_ROUNDS {
            counted += spent;
            delivered += lines as u64;
        }
    }
    counted as f64 / delivered as f64
}

/// Allocations per image view, over `ROUNDS` shares of a fresh scene
/// to viewers on packet budgets 16, 8, 4 and 2.
fn allocs_per_image_view(domains: Option<usize>) -> f64 {
    let mut s = session(domains);
    let viewers = CLIENTS - 1;
    for id in 1..CLIENTS {
        let budget = [16, 8, 4, 2][id % 4];
        s.client_mut(id).viewer.set_packet_budget(budget);
    }
    let (mut counted, mut views) = (0, 0);
    for round in 0..WARM_ROUNDS + ROUNDS {
        let scene = synthetic_scene(64, 64, 1, 3, 500 + round as u64);
        s.share_image(0, &scene, IMAGES).expect("image shares");
        let before = allocs();
        let viewed = s.pump(Ticks::from_millis(200));
        let spent = allocs() - before;
        assert_eq!(viewed.len(), viewers, "every viewer completes the share");
        drop(viewed);
        for id in 0..CLIENTS {
            s.client_mut(id).viewer.viewed.clear();
        }
        if round >= WARM_ROUNDS {
            counted += spent;
            views += viewers as u64;
        }
    }
    counted as f64 / views as f64
}

#[test]
fn a_flat_chat_delivery_allocates_the_log_line_and_little_else() {
    let per = allocs_per_chat_delivery(None);
    assert!(per <= 2.75, "{per:.3} allocations per flat chat delivery");
}

#[test]
fn a_brokered_chat_delivery_allocates_the_log_line_and_little_else() {
    let per = allocs_per_chat_delivery(Some(3));
    assert!(
        per <= 3.5,
        "{per:.3} allocations per brokered chat delivery"
    );
}

#[test]
fn a_flat_image_view_stays_within_its_budget() {
    let per = allocs_per_image_view(None);
    assert!(per <= 30.0, "{per:.3} allocations per flat image view");
}

#[test]
fn a_brokered_image_view_stays_within_its_budget() {
    let per = allocs_per_image_view(Some(3));
    assert!(per <= 42.0, "{per:.3} allocations per brokered image view");
}
