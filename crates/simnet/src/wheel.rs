//! Hierarchical timing-wheel event queue.
//!
//! A drop-in replacement for the binary-heap [`crate::event::EventQueue`]
//! on the simulator hot path. Scheduling is O(1): an event lands in a
//! slot of one of `LEVELS` wheels of `SLOTS` slots each, picked by
//! the coarsest bit-group in which its firing time differs from the
//! drain cursor (level `k` covers the cursor's current `64^(k+1)`-µs
//! window, so six levels cover ~19 hours; the rare event outside the
//! top window waits in an overflow heap and migrates into the wheels
//! as the cursor approaches). Popping is amortized O(1): a
//! 64-bit occupancy bitmap per level finds the next non-empty slot with
//! a `trailing_zeros`, so empty stretches of simulated time cost one
//! scan instead of one comparison per pending event.
//!
//! **Ordering contract** — identical to the heap it replaces: events
//! pop in `(at, seq)` order, i.e. by firing time with FIFO insertion
//! order breaking same-tick ties. Level-0 slots are exact-microsecond
//! buckets, so every event in a slot shares its `at`; sorting a slot by
//! `seq` once when the cursor reaches it restores FIFO ties no matter
//! how cascades from coarser levels interleaved the slot's chain. The
//! differential property test at the bottom pins this equivalence
//! against [`crate::event::EventQueue`] for arbitrary (delay,
//! insertion-order) sequences, same-tick ties included.
//!
//! **Storage** — one slab for all slots. A slot is a chain of slab
//! cells, a cascade relinks them, and a drained cell goes on a free
//! chain for the next `schedule`. The slab grows to the most events
//! that were ever in the wheels at once and stays there, so a session
//! in steady state schedules and pops without allocating. A vector per
//! slot would be regrown from empty — to hundreds of KiB when a
//! multicast burst shares a slot — and freed at every level of every
//! cascade; buffers of that size coming and going at the top of the
//! heap also make a process's peak memory differ from run to run.
//!
//! Scheduling an event in the past (before the last popped instant) is
//! clamped: it fires at the current drain point, keeping its original
//! `at`. [`crate::Network`] never does this — its events are always
//! scheduled at or after `now` — the clamp just makes the
//! structure total.

use crate::event::Scheduled;
use crate::time::Ticks;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `k` has `64^(k+1)`-µs reach from the cursor.
const LEVELS: usize = 6;
/// Microsecond horizon the wheels cover; farther events overflow.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// End of a chain of [`Entry`]s.
const NIL: u32 = u32::MAX;

struct Level {
    /// Bit `i` set ⇔ `heads[i]` is not [`NIL`].
    occupied: u64,
    /// First slab entry of each slot's chain.
    heads: [u32; SLOTS],
}

/// One slab cell: an event filed in a slot, or a vacancy.
struct Entry<E> {
    /// `None` while the cell is on the free chain.
    event: Option<Scheduled<E>>,
    /// Next cell of the same slot, or of the free chain.
    next: u32,
}

/// A deterministic min-queue of future events with O(1) scheduling.
pub struct TimingWheel<E> {
    levels: [Level; LEVELS],
    /// Every event filed in a wheel slot (see *Storage* above).
    slab: Vec<Entry<E>>,
    /// First vacant cell of `slab`.
    free: u32,
    /// Events ≥ [`HORIZON`] µs past the cursor, ordered `(at, seq)`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Events due at the current drain point, in pop order.
    ready: VecDeque<Scheduled<E>>,
    /// First tick not yet drained into `ready`.
    cursor: u64,
    next_seq: u64,
    len: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel with its cursor at the epoch.
    pub fn new() -> Self {
        TimingWheel {
            levels: std::array::from_fn(|_| Level {
                occupied: 0,
                heads: [NIL; SLOTS],
            }),
            slab: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedule `event` at `at`.
    pub fn schedule(&mut self, at: Ticks, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(Scheduled { at, seq, event });
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Time of the earliest pending event. Advances internal cascade
    /// state (hence `&mut`), but observes nothing.
    pub fn next_time(&mut self) -> Option<Ticks> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        self.ready.front().map(|s| s.at)
    }

    /// Pop the earliest event if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: Ticks) -> Option<Scheduled<E>> {
        if self.next_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Pop the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        let ev = self.ready.pop_front();
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    /// File one entry into `ready`, a wheel slot, or the overflow heap.
    ///
    /// The level is the coarsest bit-group in which `at` and the cursor
    /// differ (`at ^ cursor`), i.e. the finest level whose *current
    /// window* (shared upper bits with the cursor) contains `at`. This
    /// is what makes absolute slot indexing sound: an event 2 µs away
    /// across a 64-µs window boundary lands at level 1 — where the
    /// cascade will find it — never in a level-0 slot behind the scan
    /// position.
    fn place(&mut self, s: Scheduled<E>) {
        let at = s.at.as_micros();
        if at < self.cursor {
            // At or before the drain point — either the tick being
            // drained, or (when a bounded pop pre-loaded `ready` with a
            // tick past its deadline and the clock lags the cursor) an
            // earlier tick. Ordered insert keeps `ready` sorted by
            // `(at, seq)`, matching the heap's pop order exactly; the
            // common same-tick append costs one binary search.
            let key = (s.at, s.seq);
            let idx = self.ready.partition_point(|e| (e.at, e.seq) <= key);
            self.ready.insert(idx, s);
            return;
        }
        let Some((level, idx)) = self.slot_of(at) else {
            self.overflow.push(s);
            return;
        };
        let entry = Entry {
            event: Some(s),
            next: NIL,
        };
        let cell = if self.free == NIL {
            let cell = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
            self.slab.push(entry);
            cell
        } else {
            let cell = self.free;
            self.free = std::mem::replace(&mut self.slab[cell as usize], entry).next;
            cell
        };
        self.link(level, idx, cell);
    }

    /// The `(level, slot)` an event due at `at` (at or after the
    /// cursor) is filed in; `None` beyond the wheels' horizon.
    fn slot_of(&self, at: u64) -> Option<(usize, usize)> {
        let x = at ^ self.cursor;
        let level = if x < SLOTS as u64 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        };
        let idx = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level < LEVELS).then_some((level, idx))
    }

    /// Put `cell` at the head of the chain of slot `idx` of `level`.
    fn link(&mut self, level: usize, idx: usize, cell: u32) {
        let level = &mut self.levels[level];
        self.slab[cell as usize].next = level.heads[idx];
        level.heads[idx] = cell;
        level.occupied |= 1 << idx;
    }

    /// Empty slot `idx` of `level` and return the head of its chain.
    fn take_slot(&mut self, level: usize, idx: usize) -> u32 {
        let level = &mut self.levels[level];
        level.occupied &= !(1u64 << idx);
        std::mem::replace(&mut level.heads[idx], NIL)
    }

    /// Take the event out of `cell`, put the cell on the free chain,
    /// and return the event with the cell that followed it.
    fn vacate(&mut self, cell: u32) -> (Scheduled<E>, u32) {
        let entry = &mut self.slab[cell as usize];
        let s = entry.event.take().expect("a chained cell holds an event");
        let after = std::mem::replace(&mut entry.next, self.free);
        self.free = cell;
        (s, after)
    }

    /// Re-file every event of slot `idx` of `level` (≥ 1) by relinking
    /// its cell; the event stays where it is in the slab. Each lands at
    /// a finer level: its `at ^ cursor` shrank below this one's reach
    /// when the cursor entered the slot's window, and it is due no
    /// earlier than that window begins — so never in `ready`, never in
    /// overflow.
    fn cascade(&mut self, level: usize, idx: usize) {
        let mut cell = self.take_slot(level, idx);
        while cell != NIL {
            let entry = &self.slab[cell as usize];
            let after = entry.next;
            let event = entry.event.as_ref().expect("a chained cell holds an event");
            let at = event.at.as_micros();
            debug_assert!(at >= self.cursor);
            let (finer, slot) = self.slot_of(at).expect("inside this level's window");
            debug_assert!(finer < level);
            self.link(finer, slot, cell);
            cell = after;
        }
    }

    /// Advance the cursor to the next occupied tick, cascading coarser
    /// levels and migrating due overflow entries on the way, and load
    /// that tick's events into `ready` in `(at, seq)` order. Returns
    /// false when nothing is pending.
    fn advance(&mut self) -> bool {
        loop {
            if self.len == 0 {
                return false;
            }
            // Overflow entries whose level-6 super-window the cursor
            // has entered belong in the wheels, or they would pop after
            // nearer wheel events that fire later than they do.
            while let Some(top) = self.overflow.peek() {
                if (top.at.as_micros() ^ self.cursor) < HORIZON {
                    let s = self.overflow.pop().expect("peeked entry");
                    self.place(s);
                } else {
                    break;
                }
            }
            // Drain the cursor's own slot at every coarse level,
            // top-down. Entering a slot's window (via a level-0 advance
            // or a jump) does not empty it, so it may still hold events
            // due anywhere inside the window — re-placing them lands
            // each at a finer level (their `at ^ cursor` shrank below
            // this level's reach), restoring the invariant that slots
            // at or before the cursor's position are empty.
            for k in (1..LEVELS).rev() {
                let pos = ((self.cursor >> (SLOT_BITS * k as u32)) & (SLOTS as u64 - 1)) as usize;
                if self.levels[k].occupied & (1u64 << pos) != 0 {
                    self.cascade(k, pos); // lands at level < k
                }
            }
            // Level 0: exact-tick slots of the current 64-µs window,
            // scanned from the cursor's own slot inclusive.
            let base = self.cursor & !(SLOTS as u64 - 1);
            let start = (self.cursor - base) as u32;
            let mask = self.levels[0].occupied & (!0u64 << start);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                let first = self.ready.len();
                let mut cell = self.take_slot(0, slot);
                while cell != NIL {
                    let (s, after) = self.vacate(cell);
                    self.ready.push_back(s);
                    cell = after;
                }
                // Entries in a level-0 slot share one `at`; seq order
                // restores FIFO ties regardless of cascade history.
                self.ready.make_contiguous()[first..].sort_unstable_by_key(|s| s.seq);
                self.cursor = base + slot as u64 + 1;
                return true;
            }
            // Level-0 window exhausted: jump to the next occupied slot
            // of the nearest coarser level and cascade it into finer
            // ones. Slots at or before the cursor's position are empty
            // (just drained / hold only past times, impossible), and
            // any event at a still-coarser level lies at or beyond the
            // next boundary of that level — past `window` — so nothing
            // fires before the jump target.
            let mut cascaded = false;
            for k in 1..LEVELS {
                let shift = SLOT_BITS * k as u32;
                let pos = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                let mask = if pos + 1 >= 64 {
                    0
                } else {
                    self.levels[k].occupied & (!0u64 << (pos + 1))
                };
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as u64;
                let window_mask = (1u64 << (shift + SLOT_BITS)) - 1;
                let window = (self.cursor & !window_mask) | (slot << shift);
                self.cursor = window;
                self.cascade(k, slot as usize); // lands at level ≤ k-1
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheels empty; jump to the overflow frontier.
            match self.overflow.peek() {
                Some(top) => self.cursor = top.at.as_micros(),
                None => return false, // only `ready` holds events
            }
        }
    }
}

impl<E> std::fmt::Debug for TimingWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(30), "c");
        w.schedule(Ticks::from_micros(10), "a");
        w.schedule(Ticks::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..100 {
            w.schedule(Ticks::from_micros(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(10), "early");
        w.schedule(Ticks::from_micros(100), "late");
        assert_eq!(w.pop_before(Ticks::from_micros(50)).unwrap().event, "early");
        assert!(w.pop_before(Ticks::from_micros(50)).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_time(), Some(Ticks::from_micros(100)));
    }

    #[test]
    fn crosses_level_boundaries() {
        // One event per level reach, plus overflow, scheduled shuffled.
        let ats = [
            5u64,
            63,
            64,
            4_095,
            4_096,
            262_143,
            262_144,
            1 << 25,
            1 << 33,
            HORIZON + 17, // overflow
            HORIZON * 3,  // deep overflow
        ];
        let mut shuffled = ats.to_vec();
        shuffled.reverse();
        shuffled.swap(0, 5);
        let mut w = TimingWheel::new();
        for &at in &shuffled {
            w.schedule(Ticks::from_micros(at), at);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop().map(|s| s.event)).collect();
        let mut want = ats.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(100), 100u64);
        w.schedule(Ticks::from_micros(50), 50);
        assert_eq!(w.pop().unwrap().event, 50);
        // New events relative to the drained point, including one at
        // the just-popped tick (fires before the 100-µs one).
        w.schedule(Ticks::from_micros(50), 51);
        w.schedule(Ticks::from_micros(7_000), 7_000);
        assert_eq!(w.pop().unwrap().event, 51);
        assert_eq!(w.pop().unwrap().event, 100);
        assert_eq!(w.pop().unwrap().event, 7_000);
        assert!(w.pop().is_none());
    }

    #[test]
    fn same_tick_ties_fifo_across_cascades() {
        // Two events at the same far-future tick inserted at different
        // times, so one cascades down from a coarse level after the
        // other was inserted directly: FIFO by seq must survive.
        let mut w = TimingWheel::new();
        let tick = Ticks::from_micros(100_000);
        w.schedule(tick, "first");
        // Drain close to the target so the second insert lands finer.
        w.schedule(Ticks::from_micros(99_000), "warm");
        assert_eq!(w.pop().unwrap().event, "warm");
        w.schedule(tick, "second");
        assert_eq!(w.pop().unwrap().event, "first");
        assert_eq!(w.pop().unwrap().event, "second");
    }

    #[test]
    fn near_event_across_window_boundary_pops_first() {
        // Regression: an event a few µs ahead but across a 64-µs window
        // boundary must not be filed behind the level-0 scan position
        // and jumped over by a cascade to a farther event.
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(60), "warm");
        assert_eq!(w.pop().unwrap().event, "warm"); // cursor -> 61
        w.schedule(Ticks::from_micros(64), "near");
        w.schedule(Ticks::from_micros(200), "far");
        assert_eq!(w.pop().unwrap().event, "near");
        assert_eq!(w.pop().unwrap().event, "far");
    }

    #[test]
    fn stale_coarse_slot_drains_on_window_entry() {
        // Regression: entering a coarse slot's window does not empty
        // it; its events (due anywhere inside the window) must cascade
        // down before any same-window event scheduled later but finer.
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(4_106), "stale"); // level 2 from epoch
        w.schedule(Ticks::from_micros(4_095), "warm");
        assert_eq!(w.pop().unwrap().event, "warm"); // cursor -> 4096
        w.schedule(Ticks::from_micros(4_200), "later"); // level 1 now
        assert_eq!(w.pop().unwrap().event, "stale");
        assert_eq!(w.pop().unwrap().event, "later");
    }

    #[test]
    fn schedule_between_deadline_and_preloaded_tick() {
        // Regression: a bounded pop pre-drains the next tick into
        // `ready` even when it lies past the deadline; an event
        // scheduled afterwards in between must still pop first.
        let mut w = TimingWheel::new();
        w.schedule(Ticks::from_micros(100), "late");
        assert!(w.pop_before(Ticks::from_micros(50)).is_none());
        w.schedule(Ticks::from_micros(70), "mid");
        assert_eq!(w.pop().unwrap().event, "mid");
        assert_eq!(w.pop().unwrap().event, "late");
    }

    #[test]
    fn drained_cells_are_reused_not_regrown() {
        // A burst sharing one far slot cascades through every level on
        // its way out; the second, identical burst must fit in the
        // cells the first one left behind.
        let mut w = TimingWheel::new();
        let mut clock = 0;
        let mut cells = 0;
        for burst in 0..3 {
            for i in 0..1_000u64 {
                w.schedule(Ticks::from_micros(clock + 300_000 + i % 7), i);
            }
            let popped = std::iter::from_fn(|| w.pop()).inspect(|s| clock = s.at.as_micros());
            assert_eq!(popped.count(), 1_000);
            if burst == 0 {
                cells = w.slab.len();
                assert!((1..=1_000).contains(&cells));
            }
            assert_eq!(w.slab.len(), cells, "burst {burst}");
        }
    }

    #[test]
    fn empty_wheel_behaviour() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.is_empty());
        assert!(w.next_time().is_none());
        assert!(w.pop().is_none());
    }

    /// A delay distribution biased toward collisions (same-tick ties)
    /// and level boundaries, with a tail reaching past the horizon.
    fn arb_delay() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..8,
            56u64..72,
            4_090u64..4_102,
            0u64..100_000,
            (HORIZON - 10)..(HORIZON + 1_000_000),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential oracle: for arbitrary (delay, insertion-order)
        /// sequences — same-tick ties included — the wheel pops the
        /// exact `(at, seq)` sequence the ordered heap does, under the
        /// workload `Network::drain_until` generates: schedules at or
        /// after the clock, deadline-bounded drains, and a clock that
        /// advances to each deadline even when nothing popped (so later
        /// schedules can land between the clock and a pre-drained
        /// tick).
        #[test]
        fn wheel_matches_event_queue(
            steps in proptest::collection::vec((arb_delay(), 0u64..100_000), 1..80),
            pop_every in 1usize..6,
        ) {
            let mut wheel = TimingWheel::new();
            let mut heap = EventQueue::new();
            let mut clock = 0u64; // like SimClock: max of drain deadlines
            for (i, (d, window)) in steps.iter().enumerate() {
                let at = Ticks::from_micros(clock + d);
                wheel.schedule(at, i);
                heap.schedule(at, i);
                if i % pop_every == pop_every - 1 {
                    let deadline = Ticks::from_micros(clock + window);
                    loop {
                        let (w, h) = (wheel.pop_before(deadline), heap.pop_before(deadline));
                        match (w, h) {
                            (Some(w), Some(h)) => {
                                prop_assert_eq!((w.at, w.seq, w.event), (h.at, h.seq, h.event));
                            }
                            (None, None) => break,
                            (w, h) => prop_assert!(
                                false,
                                "wheel {:?} vs heap {:?}",
                                w.map(|s| s.at),
                                h.map(|s| s.at)
                            ),
                        }
                    }
                    clock = deadline.as_micros();
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                match (w, h) {
                    (Some(w), Some(h)) => {
                        prop_assert_eq!((w.at, w.seq, w.event), (h.at, h.seq, h.event));
                    }
                    (None, None) => break,
                    (w, h) => prop_assert!(
                        false,
                        "wheel {:?} vs heap {:?}",
                        w.map(|s| s.at),
                        h.map(|s| s.at)
                    ),
                }
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
