//! The management information base: an ordered tree of bound variables
//! with instrumentation callbacks.
//!
//! "Routers and switches have standard agents to monitor the local
//! parameters through instrumentation routines" (§5.5). A
//! [`MibTree`] maps OIDs to entries that are either static values or
//! closures sampled at query time — the instrumentation routines.

use crate::oid::Oid;
use crate::value::SnmpValue;
use std::collections::BTreeMap;
use std::ops::Bound;

/// How a variable's value is produced.
enum Binding {
    /// A stored value.
    Static(SnmpValue),
    /// An instrumentation routine sampled on each GET.
    Computed(Box<dyn FnMut() -> SnmpValue>),
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Binding::Static(v) => write!(f, "Static({v:?})"),
            Binding::Computed(_) => write!(f, "Computed(..)"),
        }
    }
}

/// The sorted variable tree of one agent.
#[derive(Debug, Default)]
pub struct MibTree {
    entries: BTreeMap<Oid, Binding>,
}

impl MibTree {
    /// An empty MIB.
    pub fn new() -> Self {
        MibTree::default()
    }

    /// Register a static scalar.
    pub fn register_scalar(&mut self, oid: Oid, value: SnmpValue) {
        self.entries.insert(oid, Binding::Static(value));
    }

    /// Register an instrumentation routine.
    pub fn register_computed(&mut self, oid: Oid, f: impl FnMut() -> SnmpValue + 'static) {
        self.entries.insert(oid, Binding::Computed(Box::new(f)));
    }

    /// Register a Counter32 row sampling `f` on each GET. A Counter32
    /// wraps at 2³² (RFC 2578 §7.1.6), so the sample's low 32 bits are
    /// served.
    pub fn register_counter32(&mut self, oid: Oid, mut f: impl FnMut() -> u64 + 'static) {
        self.register_computed(oid, move || SnmpValue::Counter32(f() as u32));
    }

    /// Register a Gauge32 row sampling `f` on each GET. A Gauge32
    /// latches at its maximum (RFC 2578 §7.1.7), so the sample saturates
    /// at `u32::MAX`.
    pub fn register_gauge32(&mut self, oid: Oid, mut f: impl FnMut() -> u64 + 'static) {
        self.register_computed(oid, move || {
            SnmpValue::Gauge32(u32::try_from(f()).unwrap_or(u32::MAX))
        });
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the MIB holds no variables.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// GET: sample the exact variable — named by an [`Oid`] or by its
    /// arc slice.
    pub fn get<K: Ord + ?Sized>(&mut self, oid: &K) -> Option<SnmpValue>
    where
        Oid: std::borrow::Borrow<K>,
    {
        self.entries.get_mut(oid).map(Binding::sample)
    }

    /// GETNEXT: the first variable strictly after the one named by
    /// `arcs` in tree order, sampled.
    pub fn get_next(&mut self, arcs: &[u32]) -> Option<(&Oid, SnmpValue)> {
        let after = (Bound::Excluded(arcs), Bound::Unbounded);
        let (oid, binding) = self.entries.range_mut::<[u32], _>(after).next()?;
        Some((oid, binding.sample()))
    }
}

impl Binding {
    fn sample(&mut self) -> SnmpValue {
        match self {
            Binding::Static(v) => v.clone(),
            Binding::Computed(f) => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::arcs;

    #[test]
    fn get_exact_and_missing() {
        let mut mib = MibTree::new();
        mib.register_scalar(arcs::sys_descr(), SnmpValue::string("host"));
        assert_eq!(mib.get(&arcs::sys_descr()), Some(SnmpValue::string("host")));
        assert_eq!(mib.get(&arcs::sys_name()), None);
    }

    #[test]
    fn computed_samples_fresh_values() {
        let mut mib = MibTree::new();
        let mut load = 0;
        mib.register_computed(arcs::host_cpu_load(), move || {
            load += 10;
            SnmpValue::Gauge32(load - 10)
        });
        assert_eq!(mib.get(&arcs::host_cpu_load()), Some(SnmpValue::Gauge32(0)));
        assert_eq!(
            mib.get(&arcs::host_cpu_load()),
            Some(SnmpValue::Gauge32(10))
        );
    }

    #[test]
    fn counter_rows_wrap_and_gauge_rows_saturate() {
        let mut mib = MibTree::new();
        let over = u64::from(u32::MAX) + 6;
        mib.register_counter32(arcs::host_page_faults(), move || over);
        mib.register_gauge32(arcs::host_cpu_load(), move || over);
        mib.register_gauge32(arcs::host_mem_avail(), || 7);
        assert_eq!(
            mib.get(&arcs::host_page_faults()),
            Some(SnmpValue::Counter32(5))
        );
        assert_eq!(
            mib.get(&arcs::host_cpu_load()),
            Some(SnmpValue::Gauge32(u32::MAX))
        );
        assert_eq!(
            mib.get(&arcs::host_mem_avail()),
            Some(SnmpValue::Gauge32(7))
        );
    }

    #[test]
    fn get_next_walks_in_tree_order() {
        let mut mib = MibTree::new();
        mib.register_scalar(arcs::sys_descr(), SnmpValue::string("d"));
        mib.register_scalar(arcs::sys_uptime(), SnmpValue::TimeTicks(1));
        mib.register_scalar(arcs::host_cpu_load(), SnmpValue::Gauge32(5));
        // Walk from the root: sysDescr < sysUpTime < private cpu.
        let mut at = Oid::new(&[1]);
        for want in [arcs::sys_descr(), arcs::sys_uptime(), arcs::host_cpu_load()] {
            let (next, _) = mib.get_next(at.arcs()).unwrap();
            assert_eq!(next, &want);
            at = want;
        }
        assert_eq!(mib.get_next(at.arcs()), None);
        // From a name between two variables, and from one past a
        // variable's own name: the next one in tree order, sampled.
        assert_eq!(
            mib.get_next(&[1, 3, 6, 1, 2, 1, 1, 2]),
            Some((&arcs::sys_uptime(), SnmpValue::TimeTicks(1)))
        );
        assert_eq!(
            mib.get_next(&[1, 3, 6, 1, 2, 1, 1, 1, 0, 0]),
            Some((&arcs::sys_uptime(), SnmpValue::TimeTicks(1)))
        );
    }
}
