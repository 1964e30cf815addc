//! The bounded custody store.
//!
//! Pure data-structure code: the overlay decides *when* to store,
//! transfer, and drain; this module enforces the byte+count quota,
//! the deterministic eviction order (expired lifetimes first, then
//! oldest arrival), and the in-flight bookkeeping that keeps exactly
//! one broker owning each undelivered bundle.

use crate::bundle::Bundle;
use simnet::Ticks;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-broker custody-store policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Quota on the summed wire size of stored bundles.
    pub max_bytes: u64,
    /// Quota on the number of stored bundles.
    pub max_bundles: usize,
    /// Lifetime stamped on bundles taken into custody locally.
    pub lifetime: Ticks,
    /// Percentage of `max_bytes` at which `qosStoreAlert` arms.
    pub high_watermark_pct: u8,
    /// How long a custody transfer stays in flight before the bundle
    /// is offered again (covers signals lost to a re-partition).
    pub retry_after: Ticks,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_bytes: 256 * 1024,
            max_bundles: 1024,
            lifetime: Ticks::from_secs(30),
            high_watermark_pct: 80,
            retry_after: Ticks::from_millis(500),
        }
    }
}

impl StoreConfig {
    /// Byte level at which the high-watermark alert arms. Past 100 %
    /// it lies above the quota, so the alert never arms; it saturates
    /// at `u64::MAX` rather than overflow on a huge quota.
    pub fn high_watermark_bytes(&self) -> u64 {
        let pct = self.high_watermark_pct as u64;
        (self.max_bytes / 100)
            .saturating_mul(pct)
            .saturating_add(self.max_bytes % 100 * pct / 100)
    }
}

#[derive(Debug, Default)]
struct StoreStats {
    stored_bundles: AtomicU64,
    stored_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    custody_transfers: AtomicU64,
    custody_refused: AtomicU64,
    expired: AtomicU64,
    evicted: AtomicU64,
}

/// Lock-free shared view of a store's gauges and counters; clones
/// share the same cells, so MIB closures and watchers stay live while
/// the simulation mutates the store.
#[derive(Debug, Clone, Default)]
pub struct StoreStatsHandle(Arc<StoreStats>);

impl StoreStatsHandle {
    /// Bundles currently stored (gauge).
    pub fn stored_bundles(&self) -> u64 {
        self.0.stored_bundles.load(Ordering::Relaxed)
    }
    /// Wire bytes currently stored (gauge).
    pub fn stored_bytes(&self) -> u64 {
        self.0.stored_bytes.load(Ordering::Relaxed)
    }
    /// Highest `stored_bytes` ever observed.
    pub fn peak_bytes(&self) -> u64 {
        self.0.peak_bytes.load(Ordering::Relaxed)
    }
    /// Custody transfers completed (this store released after a
    /// downstream accept).
    pub fn custody_transfers(&self) -> u64 {
        self.0.custody_transfers.load(Ordering::Relaxed)
    }
    /// Custody offers refused by a downstream store.
    pub fn custody_refused(&self) -> u64 {
        self.0.custody_refused.load(Ordering::Relaxed)
    }
    /// Bundles dropped because their lifetime elapsed.
    pub fn expired(&self) -> u64 {
        self.0.expired.load(Ordering::Relaxed)
    }
    /// Unexpired bundles evicted to keep within quota.
    pub fn evicted(&self) -> u64 {
        self.0.evicted.load(Ordering::Relaxed)
    }

    /// Record a completed custody transfer (called by the overlay when
    /// the accept signal arrives).
    pub fn note_custody_transfer(&self) {
        self.0.custody_transfers.fetch_add(1, Ordering::Relaxed);
    }
    /// Record a refused custody offer.
    pub fn note_custody_refused(&self) {
        self.0.custody_refused.fetch_add(1, Ordering::Relaxed);
    }
    /// Record a bundle that expired outside the store (e.g. in
    /// transit, detected on custody-transfer receipt).
    pub fn note_expired(&self) {
        self.0.expired.fetch_add(1, Ordering::Relaxed);
    }

    fn set_gauges(&self, bundles: u64, bytes: u64) {
        self.0.stored_bundles.store(bundles, Ordering::Relaxed);
        self.0.stored_bytes.store(bytes, Ordering::Relaxed);
        self.0.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }
    fn add_expired(&self, n: u64) {
        self.0.expired.fetch_add(n, Ordering::Relaxed);
    }
    fn add_evicted(&self, n: u64) {
        self.0.evicted.fetch_add(n, Ordering::Relaxed);
    }
}

/// What one evicting [`CustodyStore::insert`] did, with the dedup ids
/// of every bundle the call removed — the property tests assert the
/// eviction order discipline from these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsertResult {
    /// Whether the offered bundle was stored.
    pub stored: bool,
    /// `(source, seq)` of bundles removed because their lifetime
    /// elapsed (including the offered bundle if it arrived expired).
    pub expired: Vec<(String, u64)>,
    /// `(source, seq)` of unexpired bundles evicted for quota
    /// (including the offered bundle if it can never fit).
    pub evicted: Vec<(String, u64)>,
}

#[derive(Debug)]
struct Entry {
    bundle: Bundle,
    /// Global arrival number: the deterministic eviction/drain order.
    arrival: u64,
    /// When the bundle was last offered downstream, if an offer is
    /// outstanding.
    in_flight: Option<Ticks>,
}

/// A bounded store of bundles this broker holds custody of.
///
/// Entries are kept in arrival order, which — publishers emitting
/// monotone per-sender sequence numbers over FIFO links — equals
/// source-sequence order, so [`CustodyStore::due_for`] drains in the
/// order the exactly-once contract requires.
#[derive(Debug)]
pub struct CustodyStore {
    cfg: StoreConfig,
    entries: Vec<Entry>,
    next_arrival: u64,
    bytes: u64,
    stats: StoreStatsHandle,
}

impl CustodyStore {
    /// An empty store under `cfg`'s quotas.
    pub fn new(cfg: StoreConfig) -> Self {
        CustodyStore {
            cfg,
            entries: Vec::new(),
            next_arrival: 0,
            bytes: 0,
            stats: StoreStatsHandle::default(),
        }
    }

    /// The policy this store enforces.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Shared gauges/counters handle (for MIB rows and watchers).
    pub fn stats(&self) -> StoreStatsHandle {
        self.stats.clone()
    }

    /// Bundles currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed wire size of stored bundles.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Stored bundles in arrival order.
    pub fn bundles(&self) -> impl Iterator<Item = &Bundle> {
        self.entries.iter().map(|e| &e.bundle)
    }

    /// Whether any stored bundle waits on next hop `dst`.
    pub fn has_for(&self, dst: u32) -> bool {
        self.entries.iter().any(|e| e.bundle.dst_domain == dst)
    }

    /// Whether `(source, seq)` is currently stored.
    pub fn contains(&self, source: &str, seq: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.bundle.seq == seq && e.bundle.source == source)
    }

    /// Drop every bundle whose lifetime elapsed at `now`; returns their
    /// dedup ids in arrival order.
    pub fn expire(&mut self, now: Ticks) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        self.entries.retain(|e| {
            if e.bundle.expired(now) {
                out.push((e.bundle.source.clone(), e.bundle.seq));
                false
            } else {
                true
            }
        });
        if !out.is_empty() {
            self.recount();
            self.stats.add_expired(out.len() as u64);
        }
        out
    }

    /// Take custody of `bundle`, evicting to make room: expired
    /// lifetimes go first, then the oldest arrivals. The offered
    /// bundle is itself dropped (never stored) if it arrives expired
    /// or exceeds the whole quota on its own.
    pub fn insert(&mut self, bundle: Bundle, now: Ticks) -> InsertResult {
        let mut res = InsertResult {
            expired: self.expire(now),
            ..InsertResult::default()
        };
        let id = (bundle.source.clone(), bundle.seq);
        if bundle.expired(now) {
            self.stats.add_expired(1);
            res.expired.push(id);
            return res;
        }
        let cost = bundle.wire_size();
        if cost > self.cfg.max_bytes || self.cfg.max_bundles == 0 {
            self.stats.add_evicted(1);
            res.evicted.push(id);
            return res;
        }
        while self.bytes + cost > self.cfg.max_bytes || self.entries.len() >= self.cfg.max_bundles {
            self.evict_one(now, &mut res);
        }
        self.push(bundle);
        res.stored = true;
        res
    }

    /// Take custody of every bundle in `bundles` or none of them:
    /// refuses (returns `false`, leaving the store untouched apart
    /// from expiry) unless all fit within quota without evicting an
    /// unexpired bundle. This is the receive side of a custody
    /// transfer — refusal keeps ownership upstream.
    pub fn try_insert_all(&mut self, bundles: Vec<Bundle>, now: Ticks) -> bool {
        self.expire(now);
        let cost: u64 = bundles.iter().map(Bundle::wire_size).sum();
        if self.bytes + cost > self.cfg.max_bytes
            || self.entries.len() + bundles.len() > self.cfg.max_bundles
        {
            return false;
        }
        for b in bundles {
            self.push(b);
        }
        true
    }

    /// Bundles awaiting next hop `dst` whose custody offer is not
    /// outstanding (never offered, or offered longer than
    /// `retry_after` ago), in arrival order. Marks each as offered at
    /// `now`; pair with [`CustodyStore::release`] on accept or
    /// [`CustodyStore::refuse`] to re-offer sooner.
    pub fn due_for(&mut self, dst: u32, now: Ticks) -> Vec<Bundle> {
        let retry = self.cfg.retry_after;
        let mut out = Vec::new();
        for e in &mut self.entries {
            if e.bundle.dst_domain != dst {
                continue;
            }
            let due = match e.in_flight {
                None => true,
                Some(sent) => now >= sent + retry,
            };
            if due {
                e.in_flight = Some(now);
                out.push(e.bundle.clone());
            }
        }
        out
    }

    /// Release custody of `(source, seq)` — the downstream custodian
    /// accepted. Returns whether the bundle was held.
    pub fn release(&mut self, source: &str, seq: u64) -> bool {
        let before = self.entries.len();
        self.entries
            .retain(|e| !(e.bundle.seq == seq && e.bundle.source == source));
        let removed = self.entries.len() != before;
        if removed {
            self.recount();
        }
        removed
    }

    /// Clear the in-flight mark on `(source, seq)` — the downstream
    /// store refused, so the bundle is offered again on the next
    /// service round.
    pub fn refuse(&mut self, source: &str, seq: u64) {
        for e in &mut self.entries {
            if e.bundle.seq == seq && e.bundle.source == source {
                e.in_flight = None;
            }
        }
    }

    fn push(&mut self, bundle: Bundle) {
        self.bytes += bundle.wire_size();
        self.entries.push(Entry {
            bundle,
            arrival: self.next_arrival,
            in_flight: None,
        });
        self.next_arrival += 1;
        self.stats.set_gauges(self.entries.len() as u64, self.bytes);
    }

    /// Remove one bundle to make room: the oldest expired entry if any
    /// remains, otherwise the oldest arrival outright.
    fn evict_one(&mut self, now: Ticks, res: &mut InsertResult) {
        debug_assert!(!self.entries.is_empty(), "evict from empty store");
        let victim = self
            .entries
            .iter()
            .position(|e| e.bundle.expired(now))
            .unwrap_or_else(|| {
                self.entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.arrival)
                    .map(|(i, _)| i)
                    .expect("non-empty")
            });
        let e = self.entries.remove(victim);
        let id = (e.bundle.source.clone(), e.bundle.seq);
        if e.bundle.expired(now) {
            self.stats.add_expired(1);
            res.expired.push(id);
        } else {
            self.stats.add_evicted(1);
            res.evicted.push(id);
        }
        self.recount();
    }

    fn recount(&mut self) {
        self.bytes = self.entries.iter().map(|e| e.bundle.wire_size()).sum();
        self.stats.set_gauges(self.entries.len() as u64, self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle(source: &str, seq: u64, payload_len: usize, created_ms: u64, life_ms: u64) -> Bundle {
        Bundle {
            source: source.into(),
            seq,
            src_domain: 0,
            dst_domain: 1,
            created_at: Ticks::from_millis(created_ms),
            lifetime: Ticks::from_millis(life_ms),
            custody: true,
            payload: vec![0xAB; payload_len],
        }
    }

    fn small_store() -> CustodyStore {
        CustodyStore::new(StoreConfig {
            max_bytes: 4096,
            max_bundles: 4,
            lifetime: Ticks::from_secs(1),
            high_watermark_pct: 75,
            retry_after: Ticks::from_millis(10),
        })
    }

    #[test]
    fn count_quota_evicts_oldest_arrival() {
        let mut s = small_store();
        for seq in 0..5 {
            let r = s.insert(bundle("a", seq, 8, 0, 10_000), Ticks::from_millis(1));
            assert!(r.stored);
        }
        assert_eq!(s.len(), 4);
        assert!(!s.contains("a", 0), "oldest arrival evicted");
        assert!(s.contains("a", 4));
        assert_eq!(s.stats().evicted(), 1);
    }

    #[test]
    fn expired_entries_evicted_before_unexpired() {
        let mut s = small_store();
        // seq 0 expires at t=5ms; seq 1..4 live long. Do NOT advance
        // past expiry via expire(): the evicting insert at t=6ms must
        // pick the expired seq 0, not the unexpired oldest survivor.
        assert!(s.insert(bundle("a", 0, 8, 0, 5), Ticks::ZERO).stored);
        for seq in 1..4 {
            assert!(
                s.insert(bundle("a", seq, 8, 0, 10_000), Ticks::from_millis(1))
                    .stored
            );
        }
        let r = s.insert(bundle("a", 4, 8, 6, 10_000), Ticks::from_millis(6));
        assert!(r.stored);
        assert_eq!(r.expired, vec![("a".to_string(), 0)]);
        assert!(r.evicted.is_empty());
        assert!(s.contains("a", 1));
    }

    #[test]
    fn byte_quota_holds_and_oversized_bundle_is_dropped() {
        let mut s = small_store();
        assert!(
            s.insert(bundle("a", 0, 2000, 0, 10_000), Ticks::ZERO)
                .stored
        );
        assert!(
            s.insert(bundle("a", 1, 2000, 0, 10_000), Ticks::ZERO)
                .stored
        );
        // Third 2000B payload exceeds 4096 total: oldest goes.
        let r = s.insert(bundle("a", 2, 2000, 0, 10_000), Ticks::ZERO);
        assert!(r.stored);
        assert_eq!(r.evicted, vec![("a".to_string(), 0)]);
        assert!(s.bytes() <= 4096);
        // A bundle that can never fit is dropped, store untouched.
        let r = s.insert(bundle("a", 3, 5000, 0, 10_000), Ticks::ZERO);
        assert!(!r.stored);
        assert_eq!(r.evicted, vec![("a".to_string(), 3)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn try_insert_all_is_all_or_nothing() {
        let mut s = small_store();
        let batch = vec![
            bundle("a", 0, 1500, 0, 10_000),
            bundle("a", 1, 1500, 0, 10_000),
        ];
        assert!(s.try_insert_all(batch, Ticks::ZERO));
        assert_eq!(s.len(), 2);
        let too_big = vec![
            bundle("b", 0, 900, 0, 10_000),
            bundle("b", 1, 900, 0, 10_000),
        ];
        assert!(!s.try_insert_all(too_big, Ticks::ZERO));
        assert_eq!(s.len(), 2, "refusal leaves the store untouched");
        assert!(!s.contains("b", 0));
    }

    #[test]
    fn due_for_marks_in_flight_and_retries_after_timeout() {
        let mut s = small_store();
        s.insert(bundle("a", 0, 8, 0, 10_000), Ticks::ZERO);
        let first = s.due_for(1, Ticks::from_millis(1));
        assert_eq!(first.len(), 1);
        assert!(s.due_for(1, Ticks::from_millis(2)).is_empty(), "in flight");
        // refuse clears the mark immediately…
        s.refuse("a", 0);
        assert_eq!(s.due_for(1, Ticks::from_millis(3)).len(), 1);
        // …and the retry timer re-offers without a refuse.
        assert_eq!(s.due_for(1, Ticks::from_millis(13)).len(), 1);
        // release drops the bundle for good.
        assert!(s.release("a", 0));
        assert!(s.due_for(1, Ticks::from_millis(30)).is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn gauges_track_contents_and_peak() {
        let mut s = small_store();
        let stats = s.stats();
        s.insert(bundle("a", 0, 3100, 0, 10_000), Ticks::ZERO);
        assert_eq!(stats.stored_bundles(), 1);
        assert_eq!(stats.stored_bytes(), s.bytes());
        let peak = stats.peak_bytes();
        assert_eq!(peak, s.bytes());
        s.expire(Ticks::from_secs(60));
        assert_eq!(stats.stored_bundles(), 0);
        assert_eq!(stats.stored_bytes(), 0);
        assert_eq!(stats.peak_bytes(), peak, "peak survives the drain");
        assert_eq!(stats.expired(), 1);
    }

    #[test]
    fn high_watermark_bytes_avoids_overflow_rounding() {
        let cfg = StoreConfig {
            max_bytes: 150,
            high_watermark_pct: 80,
            ..StoreConfig::default()
        };
        assert_eq!(cfg.high_watermark_bytes(), 120);
        let huge = StoreConfig {
            max_bytes: u64::MAX,
            high_watermark_pct: 50,
            ..StoreConfig::default()
        };
        assert!(huge.high_watermark_bytes() > u64::MAX / 4);
    }

    /// Every percentage a `u8` holds on quotas up to `u64::MAX`: no
    /// overflow, never above the quota up to 100 %, and never lower for
    /// a higher percentage (an alert set past 100 % must not arm early).
    #[test]
    fn high_watermark_bytes_saturates_past_one_hundred_percent() {
        for max_bytes in [0, 1, 99, 100, 256 << 10, u64::MAX / 100, u64::MAX] {
            let mut last = 0;
            for pct in 0..=u8::MAX {
                let cfg = StoreConfig {
                    max_bytes,
                    high_watermark_pct: pct,
                    ..StoreConfig::default()
                };
                let level = cfg.high_watermark_bytes();
                if pct <= 100 {
                    assert!(level <= max_bytes, "{pct} % of {max_bytes}: {level}");
                }
                assert!(level >= last, "{pct} % of {max_bytes}: {level} < {last}");
                last = level;
            }
            assert!(last >= max_bytes, "255 % of {max_bytes}: {last}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// One step of an arbitrary store workload.
    #[derive(Debug, Clone)]
    enum Op {
        /// Insert the next bundle from source `src` (per-source seq
        /// assigned monotonically by the driver).
        Insert {
            src: u8,
            payload: u16,
            life_ms: u32,
            dst: u8,
        },
        /// Advance simulated time.
        Advance { ms: u32 },
        /// Explicit expiry sweep.
        Expire,
        /// Offer everything due toward `dst` and accept it all.
        Drain { dst: u8 },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..3, 0u16..900, 1u32..500, 0u8..2).prop_map(|(src, payload, life_ms, dst)| {
                Op::Insert {
                    src,
                    payload,
                    life_ms,
                    dst,
                }
            }),
            (1u32..200).prop_map(|ms| Op::Advance { ms }),
            Just(Op::Expire),
            (0u8..2).prop_map(|dst| Op::Drain { dst }),
        ]
    }

    fn cfg() -> StoreConfig {
        StoreConfig {
            max_bytes: 3000,
            max_bundles: 6,
            lifetime: Ticks::from_millis(200),
            high_watermark_pct: 80,
            retry_after: Ticks::from_millis(50),
        }
    }

    fn mk(src: u8, seq: u64, payload: u16, now: Ticks, life_ms: u32, dst: u8) -> Bundle {
        Bundle {
            source: format!("s{src}"),
            seq,
            src_domain: 9,
            dst_domain: dst as u32,
            created_at: now,
            lifetime: Ticks::from_millis(life_ms as u64),
            custody: true,
            payload: vec![0x5A; payload as usize],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn quota_never_exceeded(ops in collection::vec(op(), 1..80)) {
            let c = cfg();
            let mut s = CustodyStore::new(c);
            let mut now = Ticks::ZERO;
            let mut seqs = [0u64; 3];
            for o in ops {
                match o {
                    Op::Insert { src, payload, life_ms, dst } => {
                        let seq = seqs[src as usize];
                        seqs[src as usize] += 1;
                        s.insert(mk(src, seq, payload, now, life_ms, dst), now);
                    }
                    Op::Advance { ms } => now += Ticks::from_millis(ms as u64),
                    Op::Expire => { s.expire(now); }
                    Op::Drain { dst } => {
                        for b in s.due_for(dst as u32, now) {
                            s.release(&b.source, b.seq);
                        }
                    }
                }
                prop_assert!(s.bytes() <= c.max_bytes,
                    "byte quota exceeded: {} > {}", s.bytes(), c.max_bytes);
                prop_assert!(s.len() <= c.max_bundles,
                    "count quota exceeded: {} > {}", s.len(), c.max_bundles);
                let recount: u64 = s.bundles().map(Bundle::wire_size).sum();
                prop_assert_eq!(s.bytes(), recount);
                prop_assert_eq!(s.stats().stored_bytes(), s.bytes());
            }
        }

        #[test]
        fn eviction_never_removes_unexpired_while_expired_remains(
            ops in collection::vec(op(), 1..80),
        ) {
            let mut s = CustodyStore::new(cfg());
            let mut now = Ticks::ZERO;
            let mut seqs = [0u64; 3];
            for o in ops {
                match o {
                    Op::Insert { src, payload, life_ms, dst } => {
                        let seq = seqs[src as usize];
                        seqs[src as usize] += 1;
                        let r = s.insert(mk(src, seq, payload, now, life_ms, dst), now);
                        if !r.evicted.is_empty() {
                            // An unexpired bundle was sacrificed for
                            // quota: no expired bundle may survive it.
                            for b in s.bundles() {
                                prop_assert!(!b.expired(now),
                                    "evicted unexpired {:?} while expired {:?} remained",
                                    r.evicted, (&b.source, b.seq));
                            }
                        }
                    }
                    Op::Advance { ms } => now += Ticks::from_millis(ms as u64),
                    Op::Expire => { s.expire(now); }
                    Op::Drain { dst } => {
                        for b in s.due_for(dst as u32, now) {
                            s.release(&b.source, b.seq);
                        }
                    }
                }
            }
        }

        #[test]
        fn drain_order_is_source_sequence_order(ops in collection::vec(op(), 1..80)) {
            let mut s = CustodyStore::new(cfg());
            let mut now = Ticks::ZERO;
            let mut seqs = [0u64; 3];
            let mut drained_high: std::collections::BTreeMap<(String, u32), u64> =
                std::collections::BTreeMap::new();
            for o in ops {
                match o {
                    Op::Insert { src, payload, life_ms, dst } => {
                        let seq = seqs[src as usize];
                        seqs[src as usize] += 1;
                        s.insert(mk(src, seq, payload, now, life_ms, dst), now);
                    }
                    Op::Advance { ms } => now += Ticks::from_millis(ms as u64),
                    Op::Expire => { s.expire(now); }
                    Op::Drain { dst } => {
                        let mut last: std::collections::BTreeMap<String, u64> =
                            std::collections::BTreeMap::new();
                        for b in s.due_for(dst as u32, now) {
                            // Within one drain, per-source seq strictly
                            // increases (arrival order == seq order)…
                            if let Some(&prev) = last.get(&b.source) {
                                prop_assert!(b.seq > prev,
                                    "out of order within drain: {} after {}", b.seq, prev);
                            }
                            last.insert(b.source.clone(), b.seq);
                            // …and across drains toward the same hop.
                            let key = (b.source.clone(), b.dst_domain);
                            if let Some(&hi) = drained_high.get(&key) {
                                prop_assert!(b.seq > hi,
                                    "seq {} drained after {} toward same hop", b.seq, hi);
                            }
                            drained_high.insert(key, b.seq);
                            s.release(&b.source, b.seq);
                        }
                    }
                }
            }
        }
    }
}
