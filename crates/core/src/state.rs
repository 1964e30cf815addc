//! The adaptation state: a fixed metric vocabulary and the typed
//! vector every engine decides on.
//!
//! The network state interface (§5.5) samples host metrics over SNMP,
//! the RTP receiver reports and the latency probe add the network's,
//! and the inference engine (§5.2) reads them all. They share one
//! vocabulary, [`Metric`], and one container, [`StateVector`]: a value
//! slot and a presence bit per metric, filled in place on every
//! adaptation pass, so reading the state costs neither a string key
//! nor an allocation.

use sempubsub::Interner;
use std::collections::BTreeMap;
use std::fmt;

/// A metric of the adaptation state.
///
/// Declared in name order, so walking [`Metric::ALL`] visits metrics
/// in the order a `BTreeMap<String, f64>` keyed by their names does —
/// the order the fuzzy engine records its fired rules in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Interface speed (`ifSpeed`), bits per second.
    BandwidthBps,
    /// ECN Congestion-Experienced share of the measured RTP stream, 0–100.
    CongestionPct,
    /// Host CPU load, percent.
    CpuLoad,
    /// Probed path jitter, microseconds.
    JitterUs,
    /// Probed one-way path latency, microseconds.
    LatencyUs,
    /// RTP receiver-report loss, percent.
    LossPct,
    /// Host memory available, KiB.
    MemAvailKb,
    /// Host page faults per second.
    PageFaults,
    /// Wireless signal-to-interference ratio, dB.
    SirDb,
}

impl Metric {
    /// Number of metrics in the vocabulary.
    pub const COUNT: usize = 9;

    /// Every metric, in name order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::BandwidthBps,
        Metric::CongestionPct,
        Metric::CpuLoad,
        Metric::JitterUs,
        Metric::LatencyUs,
        Metric::LossPct,
        Metric::MemAvailKb,
        Metric::PageFaults,
        Metric::SirDb,
    ];

    /// The metric's name: what policy rules and contracts call it (the
    /// three host metrics are `sysmon::HOST_METRICS`' names).
    pub const fn name(self) -> &'static str {
        match self {
            Metric::BandwidthBps => "bandwidth_bps",
            Metric::CongestionPct => "congestion_pct",
            Metric::CpuLoad => "cpu_load",
            Metric::JitterUs => "jitter_us",
            Metric::LatencyUs => "latency_us",
            Metric::LossPct => "loss_pct",
            Metric::MemAvailKb => "mem_avail_kb",
            Metric::PageFaults => "page_faults",
            Metric::SirDb => "sir_db",
        }
    }

    /// The metric named `name`, if the vocabulary has one.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The metric's position in [`Metric::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// An interner holding the vocabulary and nothing else, metric `m`
    /// interned as symbol `m.index()`: a selector compiled against it
    /// reads its attributes straight out of a [`StateVector`], and a
    /// name it had to add is not a metric.
    pub(crate) fn interner() -> Interner {
        let mut interner = Interner::new();
        for m in Metric::ALL {
            interner.intern(m.name());
        }
        interner
    }
}

/// The observed state one adaptation pass decides on: a value and a
/// presence bit per [`Metric`].
///
/// A metric the pass did not observe — its GET failed, no receiver
/// report has arrived, the probe was not run — is absent, and reads as
/// a missing attribute to the policy rules, exactly as a key missing
/// from a state map did.
#[derive(Clone, Copy, Default)]
pub struct StateVector {
    values: [f64; Metric::COUNT],
    present: u16,
}

impl StateVector {
    /// The empty state.
    pub fn new() -> StateVector {
        StateVector::default()
    }

    /// The value of `m`, if observed.
    pub fn get(&self, m: Metric) -> Option<f64> {
        (self.present & 1 << m.index() != 0).then(|| self.values[m.index()])
    }

    /// Record `value` for `m`.
    pub fn set(&mut self, m: Metric, value: f64) {
        self.values[m.index()] = value;
        self.present |= 1 << m.index();
    }

    /// Forget `m`.
    pub fn unset(&mut self, m: Metric) {
        self.values[m.index()] = 0.0;
        self.present &= !(1 << m.index());
    }

    /// Forget every metric.
    pub fn clear(&mut self) {
        *self = StateVector::default();
    }

    /// Whether no metric is observed.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// The observed metrics and their values, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, f64)> + '_ {
        Metric::ALL
            .into_iter()
            .filter_map(|m| self.get(m).map(|v| (m, v)))
    }

    /// The state a name-keyed map describes. Names outside the
    /// vocabulary have no slot and are dropped.
    pub fn from_map(map: &BTreeMap<String, f64>) -> StateVector {
        map.iter()
            .filter_map(|(name, v)| Metric::from_name(name).map(|m| (m, *v)))
            .collect()
    }
}

impl FromIterator<(Metric, f64)> for StateVector {
    /// A later value for a metric replaces an earlier one.
    fn from_iter<I: IntoIterator<Item = (Metric, f64)>>(iter: I) -> StateVector {
        let mut state = StateVector::new();
        for (m, v) in iter {
            state.set(m, v);
        }
        state
    }
}

/// Prints as the name-keyed map it replaces.
impl fmt::Debug for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(m, v)| (m.name(), v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_in_name_order_and_holds_the_host_metrics() {
        let names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i);
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        for (name, ..) in sysmon::HOST_METRICS {
            assert!(Metric::from_name(name).is_some(), "{name}");
        }
        assert_eq!(Metric::from_name("mystery"), None);
        let interner = Metric::interner();
        assert_eq!(interner.len(), Metric::COUNT);
        for m in Metric::ALL {
            assert_eq!(
                interner.lookup(m.name()).map(|s| s.index()),
                Some(m.index())
            );
        }
    }

    #[test]
    fn vector_reads_what_was_set_and_forgets_what_was_unset() {
        let mut s = StateVector::new();
        assert!(s.is_empty());
        s.set(Metric::LossPct, 12.5);
        s.set(Metric::CpuLoad, f64::NAN);
        assert_eq!(s.get(Metric::LossPct), Some(12.5));
        assert!(s.get(Metric::CpuLoad).unwrap().is_nan());
        assert_eq!(s.get(Metric::SirDb), None);
        s.unset(Metric::LossPct);
        assert_eq!(s.get(Metric::LossPct), None);
        assert_eq!(s.iter().count(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn vector_from_map_keeps_the_vocabulary_and_prints_as_the_map() {
        let map: BTreeMap<String, f64> = [("sir_db", -3.0), ("mystery", 1.0), ("cpu_load", 40.0)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let s = StateVector::from_map(&map);
        assert_eq!(format!("{s:?}"), r#"{"cpu_load": 40.0, "sir_db": -3.0}"#);
    }
}
