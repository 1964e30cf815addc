//! Object identifiers and the arcs used across the framework.

use crate::SnmpError;
use std::fmt;
use std::str::FromStr;

/// An ASN.1 object identifier: a sequence of non-negative arcs.
///
/// Ordering is lexicographic on the arc sequence, which is exactly the
/// MIB tree order GETNEXT walks.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Oid(Vec<u32>);

impl Oid {
    /// Construct from arcs. At least two arcs are required for a valid
    /// BER encoding (the first two are packed together).
    pub fn new(arcs: &[u32]) -> Self {
        Oid(arcs.to_vec())
    }

    /// The arc sequence.
    pub fn arcs(&self) -> &[u32] {
        &self.0
    }

    /// Number of arcs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the OID has no arcs.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// This OID extended with an extra arc (e.g. an instance index).
    pub fn child(&self, arc: u32) -> Oid {
        let mut arcs = self.0.clone();
        arcs.push(arc);
        Oid(arcs)
    }

    /// This OID extended with several arcs.
    pub fn extend(&self, arcs: &[u32]) -> Oid {
        let mut v = self.0.clone();
        v.extend_from_slice(arcs);
        Oid(v)
    }

    /// Whether `self` lies in the subtree rooted at `prefix`.
    pub fn starts_with(&self, prefix: &Oid) -> bool {
        self.0.len() >= prefix.0.len() && self.0[..prefix.0.len()] == prefix.0[..]
    }

    /// Validity for BER encoding: at least 2 arcs, first arc in 0..=2,
    /// second arc < 40 when the first is 0 or 1.
    pub fn is_encodable(&self) -> bool {
        match self.0.as_slice() {
            [first, second, ..] => *first <= 2 && (*first == 2 || *second < 40),
            _ => false,
        }
    }
}

impl FromStr for Oid {
    type Err = SnmpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.strip_prefix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Err(SnmpError::BadOid(s.to_string()));
        }
        trimmed
            .split('.')
            .map(|part| {
                part.parse::<u32>()
                    .map_err(|_| SnmpError::BadOid(s.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Oid)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for arc in &self.0 {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{arc}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({self})")
    }
}

/// An OID is looked up by its arc slice: `Oid`'s derived `Ord`, `Eq`
/// and `Hash` are its arc vector's, which are the slice's, so a map
/// keyed by `Oid` answers a query for arcs read off the wire without
/// building an `Oid` for it.
impl std::borrow::Borrow<[u32]> for Oid {
    fn borrow(&self) -> &[u32] {
        &self.0
    }
}

impl From<Vec<u32>> for Oid {
    fn from(arcs: Vec<u32>) -> Self {
        Oid(arcs)
    }
}

impl From<&[u32]> for Oid {
    fn from(arcs: &[u32]) -> Self {
        Oid::new(arcs)
    }
}

impl<const N: usize> From<[u32; N]> for Oid {
    fn from(arcs: [u32; N]) -> Self {
        Oid(arcs.to_vec())
    }
}

/// Well-known arcs used by the framework.
///
/// The standard MIB-2 objects model what the paper reads from routers
/// and switches; the private-enterprise subtree is the paper's
/// "specialized embedded extension agent that runs on each host"
/// exposing CPU load, page faults, and memory.
pub mod arcs {
    use super::Oid;

    /// MIB-2: 1.3.6.1.2.1
    pub fn mib2() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1])
    }

    /// sysDescr.0
    pub fn sys_descr() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 1, 1, 0])
    }

    /// sysUpTime.0
    pub fn sys_uptime() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 1, 3, 0])
    }

    /// sysName.0
    pub fn sys_name() -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 1, 5, 0])
    }

    /// ifSpeed.{index}: interface bandwidth in bits/sec (Gauge32).
    pub fn if_speed(index: u32) -> Oid {
        Oid::new(&[1, 3, 6, 1, 2, 1, 2, 2, 1, 5, index])
    }

    /// The TASSL experimental private enterprise subtree used by the
    /// host extension agent: 1.3.6.1.4.1.99999.
    pub fn tassl() -> Oid {
        Oid::new(&[1, 3, 6, 1, 4, 1, 99999])
    }

    /// hostCpuLoad.0 — percent busy (Gauge32 0..=100).
    pub fn host_cpu_load() -> Oid {
        tassl().extend(&[1, 0])
    }

    /// hostPageFaults.0 — page faults per second (Gauge32).
    pub fn host_page_faults() -> Oid {
        tassl().extend(&[2, 0])
    }

    /// hostMemAvailKb.0 — available memory in KiB (Gauge32).
    pub fn host_mem_avail() -> Oid {
        tassl().extend(&[3, 0])
    }

    /// hostRtpLossPct.0 — media loss a receiver report measured,
    /// percent (Gauge32): packets missing below a higher one received,
    /// as an image viewer counts them (the name keeps RTCP's).
    pub fn host_rtp_loss() -> Oid {
        tassl().extend(&[6, 0])
    }

    /// hostCongestionPct.0 — fraction of the received media datagrams
    /// that arrived ECN Congestion-Experienced, percent (Gauge32). The
    /// early-warning counterpart of hostRtpLossPct: it moves while
    /// loss is still zero.
    pub fn host_congestion() -> Oid {
        tassl().extend(&[7, 0])
    }

    /// The per-link traffic-control (qdisc) subtree: 99999.20.
    pub fn qdisc() -> Oid {
        tassl().child(20)
    }

    /// qdiscBacklog.{link} — current queued bytes on the link's
    /// traffic-control plane (Gauge32).
    pub fn qdisc_backlog(link: u32) -> Oid {
        qdisc().extend(&[1, link])
    }

    /// qdiscDrops.{link} — cumulative packets dropped by the plane,
    /// class-queue tail drops plus AQM drops of non-ECT traffic
    /// (Counter32).
    pub fn qdisc_drops(link: u32) -> Oid {
        qdisc().extend(&[2, link])
    }

    /// qdiscEcnMarks.{link} — cumulative packets ECN-marked by the
    /// plane's AQM and still delivered (Counter32).
    pub fn qdisc_ecn_marks(link: u32) -> Oid {
        qdisc().extend(&[3, link])
    }

    /// The broker-overlay subtree: 99999.21.
    pub fn broker() -> Oid {
        tassl().child(21)
    }

    /// brokerTableSize.{broker} — current routing-table size: local
    /// plus remote advertisements held by the broker (Gauge32).
    pub fn broker_table_size(broker: u32) -> Oid {
        self::broker().extend(&[1, broker])
    }

    /// brokerForwarded.{broker} — cumulative message copies forwarded,
    /// to a neighbor broker or into the local domain group (Counter32).
    pub fn broker_forwarded(broker: u32) -> Oid {
        self::broker().extend(&[2, broker])
    }

    /// brokerSuppressed.{broker} — cumulative per-interface
    /// suppression decisions: copies not sent because no advertisement
    /// behind the interface matched the selector (Counter32).
    pub fn broker_suppressed(broker: u32) -> Oid {
        self::broker().extend(&[3, broker])
    }

    /// brokerAdvertsMerged.{broker} — cumulative advertisements
    /// dropped by covering-based merge before re-advertisement
    /// (Counter32).
    pub fn broker_adverts_merged(broker: u32) -> Oid {
        self::broker().extend(&[4, broker])
    }

    /// The custody-store (DTN federation) subtree: 99999.23. One row
    /// per broker, like the 99999.21 overlay table.
    pub fn dtn_store() -> Oid {
        tassl().child(23)
    }

    /// storedBundles.{broker} — bundles currently held in the broker's
    /// custody store (Gauge32).
    pub fn store_bundles(broker: u32) -> Oid {
        dtn_store().extend(&[1, broker])
    }

    /// storedBytes.{broker} — wire bytes currently held in the
    /// broker's custody store (Gauge32).
    pub fn store_bytes(broker: u32) -> Oid {
        dtn_store().extend(&[2, broker])
    }

    /// custodyTransfers.{broker} — cumulative bundles this broker
    /// handed off to a downstream custodian, acknowledged by a
    /// custody-accepted signal (Counter32).
    pub fn store_custody_transfers(broker: u32) -> Oid {
        dtn_store().extend(&[3, broker])
    }

    /// storeExpired.{broker} — cumulative bundles dropped because
    /// their lifetime elapsed before delivery (Counter32).
    pub fn store_expired(broker: u32) -> Oid {
        dtn_store().extend(&[4, broker])
    }

    /// storeEvicted.{broker} — cumulative unexpired bundles evicted to
    /// keep the store within its byte/count quota (Counter32).
    pub fn store_evicted(broker: u32) -> Oid {
        dtn_store().extend(&[5, broker])
    }

    /// The hierarchical shaping-tree (HTB) subtree: 99999.24. One row
    /// per tree node, indexed by the node's position in the compiled
    /// `htb::TreeSpec` — 0 is the root uplink, 1 the default leaf.
    pub fn htb() -> Oid {
        tassl().child(24)
    }

    /// htbNodeRate.{node} — assured (committed) rate of the tree node,
    /// kilobits per second (Gauge32; kbit/s so multi-gigabit uplinks
    /// fit a 32-bit gauge, like ifHighSpeed).
    pub fn htb_node_rate(node: u32) -> Oid {
        htb().extend(&[1, node])
    }

    /// htbNodeCeil.{node} — borrowing ceiling of the tree node,
    /// kilobits per second (Gauge32).
    pub fn htb_node_ceil(node: u32) -> Oid {
        htb().extend(&[2, node])
    }

    /// htbNodeBacklog.{node} — bytes currently queued in the node's
    /// subtree (Gauge32).
    pub fn htb_node_backlog(node: u32) -> Oid {
        htb().extend(&[3, node])
    }

    /// htbNodeDrops.{node} — cumulative packets dropped in the node's
    /// subtree, leaf-FIFO tail drops plus AQM drops of non-ECT traffic
    /// (Counter32).
    pub fn htb_node_drops(node: u32) -> Oid {
        htb().extend(&[4, node])
    }

    /// htbNodeEcnMarks.{node} — cumulative packets ECN-marked by
    /// subscriber AQM in the node's subtree and still delivered
    /// (Counter32).
    pub fn htb_node_ecn_marks(node: u32) -> Oid {
        htb().extend(&[5, node])
    }

    /// htbNodeBorrowedBits.{node} — cumulative bits the node sent on
    /// tokens borrowed from an ancestor's assured rate (Counter32;
    /// wraps like any counter).
    pub fn htb_node_borrowed_bits(node: u32) -> Oid {
        htb().extend(&[6, node])
    }

    /// htbNodeCeilUtilPct.{node} — recent throughput of the node as a
    /// percentage of its ceiling (Gauge32). The variable the
    /// qosPlanAlert trap carries: sustained values near 100 mean the
    /// plan itself, not the network, is the bottleneck.
    pub fn htb_node_util(node: u32) -> Oid {
        htb().extend(&[7, node])
    }

    /// The compiled-selector cache subtree: 99999.22. Scalars, not a
    /// table: each session agent serves its own endpoint's cache.
    pub(crate) fn selector_cache() -> Oid {
        tassl().child(22)
    }

    /// cacheHits.0 — selector compilations served from the endpoint's
    /// compiled-selector cache (Counter32).
    pub fn cache_hits() -> Oid {
        selector_cache().extend(&[1, 0])
    }

    /// cacheMisses.0 — selector lookups that had to lex, parse, and
    /// compile, including unparsable selectors (Counter32).
    pub fn cache_misses() -> Oid {
        selector_cache().extend(&[2, 0])
    }

    /// cacheEvictions.0 — compiled selectors evicted to keep the cache
    /// within its capacity bound (Counter32).
    pub fn cache_evictions() -> Oid {
        selector_cache().extend(&[3, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let o: Oid = "1.3.6.1.2.1.1.1.0".parse().unwrap();
        assert_eq!(o.to_string(), "1.3.6.1.2.1.1.1.0");
        let dotted: Oid = ".1.3.6".parse().unwrap();
        assert_eq!(dotted, Oid::new(&[1, 3, 6]));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Oid>().is_err());
        assert!("1.3.x".parse::<Oid>().is_err());
        assert!("1..3".parse::<Oid>().is_err());
        assert!("-1.3".parse::<Oid>().is_err());
    }

    #[test]
    fn ordering_is_tree_order() {
        let a = Oid::new(&[1, 3, 6, 1]);
        let b = Oid::new(&[1, 3, 6, 1, 0]);
        let c = Oid::new(&[1, 3, 6, 2]);
        assert!(a < b, "parent before child");
        assert!(b < c, "subtree before next sibling");
    }

    #[test]
    fn starts_with_subtrees() {
        let root = arcs::tassl();
        assert!(arcs::host_cpu_load().starts_with(&root));
        assert!(!arcs::sys_descr().starts_with(&root));
        assert!(root.starts_with(&root));
    }

    #[test]
    fn broker_rows_sit_under_their_subtree() {
        let sub = arcs::broker();
        assert_eq!(sub, arcs::tassl().child(21));
        for (oid, field) in [
            (arcs::broker_table_size(3), 1),
            (arcs::broker_forwarded(3), 2),
            (arcs::broker_suppressed(3), 3),
            (arcs::broker_adverts_merged(3), 4),
        ] {
            assert!(oid.starts_with(&sub));
            assert_eq!(oid, sub.extend(&[field, 3]));
            assert!(oid.is_encodable());
        }
    }

    #[test]
    fn htb_rows_sit_under_their_subtree() {
        let sub = arcs::htb();
        assert_eq!(sub, arcs::tassl().child(24));
        for (oid, field) in [
            (arcs::htb_node_rate(7), 1),
            (arcs::htb_node_ceil(7), 2),
            (arcs::htb_node_backlog(7), 3),
            (arcs::htb_node_drops(7), 4),
            (arcs::htb_node_ecn_marks(7), 5),
            (arcs::htb_node_borrowed_bits(7), 6),
            (arcs::htb_node_util(7), 7),
        ] {
            assert!(oid.starts_with(&sub));
            assert_eq!(oid, sub.extend(&[field, 7]));
            assert!(oid.is_encodable());
        }
    }

    #[test]
    fn selector_cache_scalars_sit_under_their_subtree() {
        let sub = arcs::selector_cache();
        assert_eq!(sub, arcs::tassl().child(22));
        for (oid, field) in [
            (arcs::cache_hits(), 1),
            (arcs::cache_misses(), 2),
            (arcs::cache_evictions(), 3),
        ] {
            assert!(oid.starts_with(&sub));
            assert_eq!(oid, sub.extend(&[field, 0]));
            assert!(oid.is_encodable());
        }
    }

    #[test]
    fn child_and_extend() {
        let o = Oid::new(&[1, 3]).child(6).extend(&[1, 4]);
        assert_eq!(o, Oid::new(&[1, 3, 6, 1, 4]));
    }

    #[test]
    fn encodability() {
        assert!(Oid::new(&[1, 3, 6]).is_encodable());
        assert!(Oid::new(&[2, 999]).is_encodable());
        assert!(!Oid::new(&[1]).is_encodable());
        assert!(!Oid::new(&[1, 40]).is_encodable());
        assert!(!Oid::new(&[3, 1]).is_encodable());
    }
}
