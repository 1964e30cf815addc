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

/// Write-permission of a MIB variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// GET/GETNEXT only.
    ReadOnly,
    /// GET/GETNEXT and SET.
    ReadWrite,
}

/// How a variable's value is produced.
pub enum Binding {
    /// A stored value (SET updates it).
    Static(SnmpValue),
    /// An instrumentation routine sampled on each GET.
    Computed(Box<dyn FnMut() -> SnmpValue + Send>),
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Binding::Static(v) => write!(f, "Static({v:?})"),
            Binding::Computed(_) => write!(f, "Computed(..)"),
        }
    }
}

/// One bound variable.
#[derive(Debug)]
pub struct Entry {
    /// Write permission.
    pub access: Access,
    /// Value production.
    pub binding: Binding,
}

/// The sorted variable tree of one agent.
#[derive(Debug, Default)]
pub struct MibTree {
    entries: BTreeMap<Oid, Entry>,
}

/// Outcome of a SET attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOutcome {
    /// Value stored.
    Ok,
    /// Variable absent.
    NoSuchName,
    /// Variable is read-only or computed.
    NotWritable,
}

impl MibTree {
    /// An empty MIB.
    pub fn new() -> Self {
        MibTree::default()
    }

    /// Register a read-only static scalar.
    pub fn register_scalar(&mut self, oid: Oid, value: SnmpValue) {
        self.entries.insert(
            oid,
            Entry {
                access: Access::ReadOnly,
                binding: Binding::Static(value),
            },
        );
    }

    /// Register a writable static scalar.
    pub fn register_writable(&mut self, oid: Oid, value: SnmpValue) {
        self.entries.insert(
            oid,
            Entry {
                access: Access::ReadWrite,
                binding: Binding::Static(value),
            },
        );
    }

    /// Register a read-only instrumentation routine.
    pub fn register_computed(&mut self, oid: Oid, f: impl FnMut() -> SnmpValue + Send + 'static) {
        self.entries.insert(
            oid,
            Entry {
                access: Access::ReadOnly,
                binding: Binding::Computed(Box::new(f)),
            },
        );
    }

    /// Register a read-only Counter32 row sampling `f` on each GET. A
    /// Counter32 wraps at 2³² (RFC 2578 §7.1.6), so the sample's low 32
    /// bits are served.
    pub fn register_counter32(&mut self, oid: Oid, mut f: impl FnMut() -> u64 + Send + 'static) {
        self.register_computed(oid, move || SnmpValue::Counter32(f() as u32));
    }

    /// Register a read-only Gauge32 row sampling `f` on each GET. A
    /// Gauge32 latches at its maximum (RFC 2578 §7.1.7), so the sample
    /// saturates at `u32::MAX`.
    pub fn register_gauge32(&mut self, oid: Oid, mut f: impl FnMut() -> u64 + Send + 'static) {
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
        let entry = self.entries.get_mut(oid)?;
        Some(Self::sample(entry))
    }

    /// GETNEXT: the first variable strictly after `oid` in tree order.
    pub fn get_next(&mut self, oid: &Oid) -> Option<(Oid, SnmpValue)> {
        let next_oid = self
            .entries
            .range((Bound::Excluded(oid.clone()), Bound::Unbounded))
            .next()
            .map(|(k, _)| k.clone())?;
        let entry = self.entries.get_mut(&next_oid).expect("key just found");
        Some((next_oid, Self::sample(entry)))
    }

    /// SET: store a value into a writable static variable.
    pub fn set(&mut self, oid: &Oid, value: SnmpValue) -> SetOutcome {
        match self.entries.get_mut(oid) {
            None => SetOutcome::NoSuchName,
            Some(entry) => match (&entry.access, &mut entry.binding) {
                (Access::ReadWrite, Binding::Static(slot)) => {
                    *slot = value;
                    SetOutcome::Ok
                }
                _ => SetOutcome::NotWritable,
            },
        }
    }

    fn sample(entry: &mut Entry) -> SnmpValue {
        match &mut entry.binding {
            Binding::Static(v) => v.clone(),
            Binding::Computed(f) => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::arcs;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

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
        let counter = Arc::new(AtomicU32::new(0));
        let c = counter.clone();
        mib.register_computed(arcs::host_cpu_load(), move || {
            SnmpValue::Gauge32(c.fetch_add(10, Ordering::Relaxed))
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
        let (o1, _) = mib.get_next(&Oid::new(&[1])).unwrap();
        assert_eq!(o1, arcs::sys_descr());
        let (o2, _) = mib.get_next(&o1).unwrap();
        assert_eq!(o2, arcs::sys_uptime());
        let (o3, _) = mib.get_next(&o2).unwrap();
        assert_eq!(o3, arcs::host_cpu_load());
        assert_eq!(mib.get_next(&o3), None);
    }

    #[test]
    fn set_rules() {
        let mut mib = MibTree::new();
        mib.register_scalar(arcs::sys_descr(), SnmpValue::string("ro"));
        mib.register_writable(arcs::sys_name(), SnmpValue::string("old"));
        mib.register_computed(arcs::host_cpu_load(), || SnmpValue::Gauge32(1));
        assert_eq!(
            mib.set(&arcs::sys_descr(), SnmpValue::string("x")),
            SetOutcome::NotWritable
        );
        assert_eq!(
            mib.set(&arcs::host_cpu_load(), SnmpValue::Gauge32(2)),
            SetOutcome::NotWritable
        );
        assert_eq!(
            mib.set(&Oid::new(&[1, 2, 3]), SnmpValue::Null),
            SetOutcome::NoSuchName
        );
        assert_eq!(
            mib.set(&arcs::sys_name(), SnmpValue::string("new")),
            SetOutcome::Ok
        );
        assert_eq!(mib.get(&arcs::sys_name()), Some(SnmpValue::string("new")));
    }
}
