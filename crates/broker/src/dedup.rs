//! A broker's dedup record: every `(origin, seq)` id it has forwarded,
//! one bit each.
//!
//! Origins are interned once per overlay ([`sempubsub::Interner`]), so
//! an id is a dense [`Symbol`] and a `u64`. Per origin a broker keeps a
//! 16-byte [`Slot`]: `base`, a multiple of 64 below which every seq has
//! been seen, and `head`, the bits of `base .. base + 64`. A seen seq
//! past the head sets a bit in a spill word keyed by `(origin, seq /
//! 64)`. When the head fills it slides: `base` moves up a word and the
//! next word comes out of the spill. The record answers exactly what a
//! set of ids would: a seq below `base` was seen (the head slid past it
//! only once it was full), one in the head's block is its bit, and one
//! further up is its spill word's bit, absent words being empty.
//!
//! What it costs follows from what a broker sees. The home broker of
//! an origin sees every seq in order, so its slot slides and holds no
//! spill. A remote broker sees what is routed to it, one 8-byte word
//! per 64-seq block it touched. A hostile seq, however far out, costs
//! one word, and `base` stops at the last block instead of overflowing.

use sempubsub::Symbol;
use std::collections::HashMap;

/// Seqs per word.
const WORD: u64 = u64::BITS as u64;

/// One origin's seqs around the low watermark.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// A multiple of [`WORD`]; every seq below it has been seen.
    base: u64,
    /// Bit `k` is set when `base + k` has been seen.
    head: u64,
}

/// The ids one broker has seen ([`Seen::insert`]).
#[derive(Default)]
pub(crate) struct Seen {
    /// Indexed by the origin's symbol.
    slots: Vec<Slot>,
    /// Seen words past their origin's head, by `(origin, seq / WORD)`.
    /// Never holds an empty word, nor one at or below its head.
    spill: HashMap<(Symbol, u64), u64>,
}

impl Seen {
    /// Has `(origin, seq)` been inserted?
    pub(crate) fn contains(&self, origin: Symbol, seq: u64) -> bool {
        let Some(slot) = self.slots.get(origin.index()) else {
            return false;
        };
        if seq < slot.base {
            return true;
        }
        let word = if seq / WORD == slot.base / WORD {
            slot.head
        } else {
            self.spill.get(&(origin, seq / WORD)).copied().unwrap_or(0)
        };
        word & 1 << (seq % WORD) != 0
    }

    /// Record `(origin, seq)`; false when it was already there.
    pub(crate) fn insert(&mut self, origin: Symbol, seq: u64) -> bool {
        let Seen { slots, spill } = self;
        if slots.len() <= origin.index() {
            slots.resize(origin.index() + 1, Slot::default());
        }
        let slot = &mut slots[origin.index()];
        if seq < slot.base {
            return false;
        }
        let word = if seq / WORD == slot.base / WORD {
            &mut slot.head
        } else {
            spill.entry((origin, seq / WORD)).or_default()
        };
        let bit = 1 << (seq % WORD);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        while slot.head == u64::MAX {
            let Some(base) = slot.base.checked_add(WORD) else {
                break;
            };
            slot.base = base;
            slot.head = spill.remove(&(origin, base / WORD)).unwrap_or(0);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sempubsub::Interner;
    use std::collections::BTreeSet;

    impl Seen {
        fn slot(&self, origin: Symbol) -> Slot {
            self.slots[origin.index()]
        }

        fn spill_words(&self) -> usize {
            self.spill.len()
        }
    }

    /// The seqs one run of a case feeds, by shape: in order, reversed,
    /// strided, each twice, one per word past the head, or hostile.
    fn run_seqs(shape: u8, start: u64, len: u64, stride: u64) -> Vec<u64> {
        let span = (0..len).filter_map(|k| start.checked_add(k));
        match shape {
            0 => span.collect(),
            1 => span.rev().collect(),
            2 => (0..len)
                .filter_map(|k| start.checked_add(k * stride))
                .collect(),
            3 => span.flat_map(|s| [s, s]).collect(),
            4 => (0..len)
                .filter_map(|k| start.checked_add(WORD * (k + 2) + k % WORD))
                .collect(),
            _ => {
                let top = (0..WORD).map(|k| u64::MAX - k);
                let far = (1..4).map(|k| start.wrapping_add(k << 40));
                [0, u64::MAX].into_iter().chain(top).chain(far).collect()
            }
        }
    }

    /// Where a run starts: at 0 (so heads fill and slide), near the
    /// watermark, 2⁴⁰ out, or just below `u64::MAX`.
    fn arb_start() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            0u64..300,
            (0u64..300).prop_map(|s| (1 << 40) + s),
            (0u64..300).prop_map(|s| u64::MAX - s),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The record against a set of `(String, u64)` ids, the set it
        /// replaced: runs of several origins' seqs, interleaved, each
        /// arrival asked `contains` and then inserted, and every other
        /// seq a run touched asked `contains` once more at the end.
        /// An origin is interned on insert only, as `handle_bundle`
        /// asks through `Interner::lookup`.
        #[test]
        fn the_record_answers_as_a_set_of_ids(
            runs in proptest::collection::vec(
                (0u8..4, 0u8..6, arb_start(), 1u64..200, 1u64..5),
                1..12,
            ),
            weave in proptest::collection::vec(0usize..12, 0..64),
        ) {
            let mut origins = Interner::new();
            let mut seen = Seen::default();
            let mut oracle: BTreeSet<(String, u64)> = BTreeSet::new();
            let mut queues: Vec<(String, std::vec::IntoIter<u64>)> = runs
                .iter()
                .map(|&(origin, shape, start, len, stride)| {
                    (format!("o{origin}"), run_seqs(shape, start, len, stride).into_iter())
                })
                .collect();
            let mut asked = Vec::new();
            let mut turn = weave.into_iter().cycle();
            while !queues.is_empty() {
                let at = turn.next().unwrap_or(0) % queues.len();
                let Some(seq) = queues[at].1.next() else {
                    queues.swap_remove(at);
                    continue;
                };
                let name = queues[at].0.clone();
                let known = origins.lookup(&name).is_some_and(|o| seen.contains(o, seq));
                prop_assert_eq!(known, oracle.contains(&(name.clone(), seq)), "{} {}", name, seq);
                let fresh = seen.insert(origins.intern(&name), seq);
                prop_assert_eq!(fresh, oracle.insert((name.clone(), seq)), "{} {}", name, seq);
                for probe in [seq.wrapping_sub(WORD), seq.wrapping_add(1), seq ^ 1] {
                    asked.push((name.clone(), probe));
                }
            }
            for (name, seq) in asked {
                let known = origins.lookup(&name).is_some_and(|o| seen.contains(o, seq));
                prop_assert_eq!(known, oracle.contains(&(name.clone(), seq)), "{} {}", name, seq);
            }
        }
    }

    /// An origin's home broker sees all its seqs, in order or shuffled
    /// within a word: the head slides along, and nothing spills.
    #[test]
    fn a_contiguous_origin_holds_no_spill() {
        let mut origins = Interner::new();
        let (home, shuffled) = (origins.intern("home"), origins.intern("shuffled"));
        let mut seen = Seen::default();
        for seq in 0..1_000_000 {
            assert!(seen.insert(home, seq));
            assert!(seen.insert(shuffled, seq / WORD * WORD + (WORD - 1 - seq % WORD)));
        }
        assert_eq!(seen.spill_words(), 0);
        for origin in [home, shuffled] {
            let slot = seen.slot(origin);
            assert_eq!((slot.base, slot.head), (1_000_000 / WORD * WORD, 0));
            assert!(seen.contains(origin, 0) && seen.contains(origin, 999_999));
            assert!(!seen.contains(origin, 1_000_000));
        }
    }

    /// A broker that sees every other seq keeps one word per 64-seq
    /// block past its head; hostile seqs cost a word each.
    #[test]
    fn a_sparse_origin_keeps_a_word_per_block_it_touched() {
        const N: u64 = 1 << 16;
        let origin = Interner::new().intern("remote");
        let mut seen = Seen::default();
        for seq in (0..N).step_by(2) {
            assert!(seen.insert(origin, seq));
        }
        assert!(seen.spill_words() as u64 <= N / WORD);
        assert_eq!(seen.slot(origin).base, 0);
        let spilled = seen.spill_words();
        for seq in [u64::MAX, u64::MAX - 1, 1 << 40, (1 << 41) + 5] {
            assert!(seen.insert(origin, seq));
        }
        assert_eq!(seen.spill_words(), spilled + 3);
    }

    /// The last word's slot fills without `base` overflowing.
    #[test]
    fn the_top_word_fills_without_overflow() {
        let origin = Interner::new().intern("hostile");
        let mut seen = Seen {
            slots: vec![Slot {
                base: u64::MAX - (2 * WORD - 1),
                head: 0,
            }],
            ..Seen::default()
        };
        for seq in (u64::MAX - (2 * WORD - 1)..=u64::MAX).rev() {
            assert!(seen.insert(origin, seq));
        }
        let top = seen.slot(origin);
        assert_eq!((top.base, top.head), (u64::MAX - (WORD - 1), u64::MAX));
        assert_eq!(seen.spill_words(), 0);
        assert!(!seen.insert(origin, u64::MAX));
        assert!(seen.contains(origin, u64::MAX) && seen.contains(origin, 0));
    }
}
