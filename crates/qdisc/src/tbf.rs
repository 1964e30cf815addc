//! Token-bucket filter: the shaping primitive.
//!
//! A bucket of capacity `burst_bytes` fills at `rate_bps`. A packet of
//! `n` bytes conforms when the bucket holds at least `8n` token bits
//! (clamped to the burst, so an oversize packet borrows the full burst
//! rather than blocking the queue forever).
//!
//! All arithmetic is integral and exact: token accrual is tracked in
//! units of bit-µs (`rate_bps × Δt_µs`), with the sub-bit remainder
//! carried between refills, so a bucket drained at exactly its rate
//! never gains or loses a bit to rounding — the conformance proptest
//! (`rate·t + burst` is never exceeded) relies on this.

/// Shaper parameters: sustained rate plus burst allowance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shaper {
    /// Sustained rate in bits per second.
    pub rate_bps: u64,
    /// Bucket depth in bytes (should be at least one MTU).
    pub burst_bytes: u64,
}

/// Scale factor between bit-µs accrual units and token bits.
const UNITS_PER_BIT: u64 = 1_000_000;

/// A deterministic token bucket over a u64 microsecond clock.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_bits: u64,
    /// Whole token bits available.
    tokens_bits: u64,
    /// Sub-bit accrual remainder, in bit-µs units (`< UNITS_PER_BIT`).
    carry: u64,
    /// Instant of the last materialized refill.
    last_us: u64,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(shaper: Shaper) -> Self {
        assert!(shaper.rate_bps > 0, "shaper rate must be positive");
        assert!(shaper.burst_bytes > 0, "burst must be positive");
        TokenBucket {
            rate_bps: shaper.rate_bps,
            burst_bits: shaper.burst_bytes * 8,
            tokens_bits: shaper.burst_bytes * 8,
            carry: 0,
            last_us: 0,
        }
    }

    /// Configured sustained rate.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Token bits a packet of `bytes` needs, clamped to the burst so an
    /// oversize packet can still eventually conform.
    fn need_bits(&self, bytes: u32) -> u64 {
        (bytes as u64 * 8).min(self.burst_bits)
    }

    /// Tokens and carry projected forward to `at` without mutating.
    fn project(&self, at: u64) -> (u64, u64) {
        let dt = at.saturating_sub(self.last_us);
        // `rate × Δt` fits `u64` for hours at Gbit/s rates; beyond that
        // the same sum is taken in `u128` (its divisions are library
        // calls, not instructions), whole bits saturating.
        let narrow = self.rate_bps.checked_mul(dt);
        let (bits, carry) = match narrow.and_then(|a| a.checked_add(self.carry)) {
            Some(accrued) => (accrued / UNITS_PER_BIT, accrued % UNITS_PER_BIT),
            None => {
                let accrued = self.rate_bps as u128 * dt as u128 + self.carry as u128;
                let bits = accrued / UNITS_PER_BIT as u128;
                let carry = (accrued % UNITS_PER_BIT as u128) as u64;
                (u64::try_from(bits).unwrap_or(u64::MAX), carry)
            }
        };
        let tokens = self.tokens_bits.saturating_add(bits);
        if tokens >= self.burst_bits {
            // Full bucket: overflow (including the remainder) is lost.
            (self.burst_bits, 0)
        } else {
            (tokens, carry)
        }
    }

    /// Token bits available at instant `at`.
    #[cfg(test)]
    pub fn available_bits(&self, at: u64) -> u64 {
        self.project(at).0
    }

    /// Whether a packet of `bytes` conforms at instant `at`.
    pub fn conforms(&self, at: u64, bytes: u32) -> bool {
        self.project(at).0 >= self.need_bits(bytes)
    }

    /// Earliest instant `>= at` at which a packet of `bytes` conforms.
    ///
    /// For `at` no earlier than the last [`consume`](Self::consume) this
    /// is `max(at, T)` with `T` fixed until the next consume: tokens
    /// only grow in between, so the packet conforms from `T` on. The
    /// shaping tree files queues by `T` on the strength of that.
    pub fn next_conforming(&self, at: u64, bytes: u32) -> u64 {
        let need = self.need_bits(bytes);
        let (tokens, carry) = self.project(at);
        if tokens >= need {
            return at;
        }
        // A need is at most `8 × u32::MAX` bits, so the deficit in
        // bit-µs stays below 2⁵⁵; and it is at least one bit, which
        // outweighs any carry.
        let deficit_units = (need - tokens) * UNITS_PER_BIT - carry;
        at + deficit_units.div_ceil(self.rate_bps)
    }

    /// Consume tokens for a packet of `bytes` sent at instant `at`.
    /// The caller must have checked conformance; consuming a
    /// non-conforming packet saturates the bucket at zero.
    pub fn consume(&mut self, at: u64, bytes: u32) {
        let (tokens, carry) = self.project(at);
        self.tokens_bits = tokens.saturating_sub(self.need_bits(bytes));
        self.carry = carry;
        self.last_us = self.last_us.max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bucket(rate_bps: u64, burst_bytes: u64) -> TokenBucket {
        TokenBucket::new(Shaper {
            rate_bps,
            burst_bytes,
        })
    }

    #[test]
    fn starts_full_and_caps_at_burst() {
        let tb = bucket(1_000_000, 1500);
        assert_eq!(tb.available_bits(0), 12_000);
        assert_eq!(tb.available_bits(1_000_000), 12_000, "never above burst");
    }

    #[test]
    fn drains_and_refills_at_rate() {
        let mut tb = bucket(1_000_000, 1500); // 1 bit/µs
        tb.consume(0, 1500);
        assert_eq!(tb.available_bits(0), 0);
        assert!(!tb.conforms(0, 1500));
        // 12000 bits refill in 12000 µs at 1 bit/µs.
        assert_eq!(tb.next_conforming(0, 1500), 12_000);
        assert!(tb.conforms(12_000, 1500));
        assert!(!tb.conforms(11_999, 1500));
    }

    #[test]
    fn sub_bit_remainder_carries_exactly() {
        // 3 bits per 1000 µs: fractional accrual every µs.
        let mut tb = bucket(3_000, 125);
        tb.consume(0, 125); // empty
        assert_eq!(tb.next_conforming(0, 1), 2667, "ceil(8·1e6/3000)");
        // Draining exactly at the rate loses nothing to rounding.
        let mut t = 0;
        for _ in 0..50 {
            t = tb.next_conforming(t, 1);
            assert!(tb.conforms(t, 1));
            tb.consume(t, 1);
        }
        // 50 packets x 8 bits at 3000 bps = 133333.3 µs minimum.
        assert_eq!(t, 133_334);
    }

    #[test]
    fn oversize_packet_clamps_to_burst() {
        let tb = bucket(1_000_000, 100);
        // 200 bytes > 100-byte burst: conforms whenever the bucket is full.
        assert!(tb.conforms(0, 200));
        assert_eq!(tb.next_conforming(0, 200), 0);
    }

    proptest::proptest! {
        /// Between consumes a bucket admits a given size from one fixed
        /// instant on, wherever it is asked from: exact at rates up to
        /// 100 Gbit/s, for any burst, drain history and sub-bit carry.
        #[test]
        fn conforms_from_one_fixed_instant_between_consumes(
            rate in (1u64..=1_000, 0u32..=8),
            burst_bytes in 1u64..100_000,
            drains in proptest::collection::vec((any::<u64>(), 1u32..20_000), 0..12),
            gaps in (any::<u64>(), any::<u64>(), any::<u64>()),
            bytes in 1u32..20_000,
        ) {
            let rate_bps = rate.0 * 10u64.pow(rate.1);
            let mut tb = bucket(rate_bps, burst_bytes);
            // Gaps up to twice the time an empty bucket takes to fill,
            // so about half the instants asked about fall short of it.
            let span = 2 * (burst_bytes * 8 * 1_000_000).div_ceil(rate_bps) + 2;
            let mut last = 0u64;
            for (gap, size) in drains {
                last += gap % span;
                tb.consume(last, size);
            }
            let a0 = last + gaps.0 % span;
            let a = a0 + gaps.1 % span;
            let from = tb.next_conforming(a0, bytes);
            prop_assert_eq!(tb.next_conforming(a, bytes), a.max(from));
            for t in [a0, a, a0 + gaps.2 % span, from, from.saturating_sub(1).max(a0)] {
                prop_assert_eq!(tb.conforms(t, bytes), t >= from, "t = {}", t);
            }
        }
    }

    /// The bucket with every sum in `u128`, as it was before the `u64`
    /// path: `(tokens, carry, last)` stepped and asked the same way.
    struct WideBucket {
        rate: u128,
        burst: u128,
        tokens: u128,
        carry: u128,
        last: u64,
    }

    impl WideBucket {
        const UNITS: u128 = 1_000_000;

        fn need(&self, bytes: u32) -> u128 {
            (bytes as u128 * 8).min(self.burst)
        }

        fn project(&self, at: u64) -> (u128, u128) {
            let accrued = self.rate * at.saturating_sub(self.last) as u128 + self.carry;
            let tokens = self.tokens + accrued / Self::UNITS;
            if tokens >= self.burst {
                (self.burst, 0)
            } else {
                (tokens, accrued % Self::UNITS)
            }
        }

        fn next_conforming(&self, at: u64, bytes: u32) -> u128 {
            let (tokens, carry) = self.project(at);
            let deficit = self.need(bytes).saturating_sub(tokens) * Self::UNITS;
            at as u128 + deficit.saturating_sub(carry).div_ceil(self.rate)
        }

        fn consume(&mut self, at: u64, bytes: u32) {
            let (tokens, carry) = self.project(at);
            self.tokens = tokens.saturating_sub(self.need(bytes));
            self.carry = carry;
            self.last = self.last.max(at);
        }
    }

    proptest::proptest! {
        /// The `u64` fast path and its `u128` fallback are one bucket:
        /// equal to the all-`u128` model at every step of a random
        /// consume sequence, from 1 kbit/s to 100 Gbit/s, over gaps
        /// from microseconds to 2⁴⁰ µs (twelve days; `rate × Δt` leaves
        /// `u64` from about 2²⁷ µs at the top rate).
        #[test]
        fn bucket_equals_the_all_u128_model_over_long_horizons(
            rate in (1u64..=1_000, 3u32..=8),
            burst_bytes in 1u64..10_000_000,
            steps in proptest::collection::vec(
                (any::<u64>(), 0u32..=40, 1u32..100_000, any::<bool>()),
                1..24,
            ),
        ) {
            let rate_bps = rate.0 * 10u64.pow(rate.1);
            let mut tb = bucket(rate_bps, burst_bytes);
            let mut wide = WideBucket {
                rate: rate_bps as u128,
                burst: burst_bytes as u128 * 8,
                tokens: burst_bytes as u128 * 8,
                carry: 0,
                last: 0,
            };
            let mut now = 0u64;
            for (gap, log2, bytes, wait) in steps {
                now += gap & ((1u64 << log2) - 1) | (1u64 << log2) >> 1;
                let (tokens, carry) = wide.project(now);
                prop_assert_eq!(tb.available_bits(now) as u128, tokens);
                prop_assert_eq!(tb.project(now).1 as u128, carry);
                let from = wide.next_conforming(now, bytes);
                prop_assert_eq!(tb.next_conforming(now, bytes) as u128, from);
                prop_assert_eq!(tb.conforms(now, bytes), from == now as u128);
                // Send when it conforms, or (every other step) early:
                // the bucket then saturates at zero, the carry kept.
                let at = if wait { from as u64 } else { now };
                tb.consume(at, bytes);
                wide.consume(at, bytes);
                now = at;
            }
        }
    }

    #[test]
    fn projection_does_not_mutate() {
        let tb = bucket(1_000_000, 1500);
        let a = tb.available_bits(5_000);
        let b = tb.available_bits(5_000);
        assert_eq!(a, b);
        assert_eq!(tb.last_us, 0, "projection leaves state untouched");
    }
}
