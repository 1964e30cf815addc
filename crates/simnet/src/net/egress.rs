//! Mounting a queueing discipline in a link's egress slot — the flat
//! plane of `crates/qdisc` or the tree of `crates/htb` — and reading
//! its counters back. What a mounted slot does to a copy is `datapath`.

use super::datapath::{LinkEgress, Plane};
use super::Network;
use crate::topology::LinkId;
use htb::{ShapingTree, TreeSpec, TreeStatsHandle};
use qdisc::{Qdisc, QdiscConfig, QdiscStats, StatsHandle};

impl Network {
    /// Fill `link`'s egress slot. A slot is filled once: replacing a
    /// plane would discard its queued copies uncounted and restart
    /// `gen`, letting a stale service event match the newcomer.
    fn mount(&mut self, link: LinkId, plane: Plane) {
        let idx = link.0 as usize;
        if idx >= self.egress.len() {
            self.egress.resize_with(idx + 1, || None);
        }
        assert!(
            self.egress[idx].is_none(),
            "link already has an egress plane"
        );
        self.egress[idx] = Some(LinkEgress {
            plane,
            service_at: None,
            gen: 0,
        });
    }

    /// Mount a flat traffic-control plane on `link`. All traffic
    /// crossing the link is then classified, shaped, DRR-scheduled, and
    /// subject to CoDel AQM; links without a plane keep the plain
    /// analytic FIFO model bit-for-bit. Panics when the link's egress
    /// slot is already occupied. Returns a handle to the plane's live
    /// aggregate counters (for SNMP instrumentation).
    pub fn attach_qdisc(&mut self, link: LinkId, cfg: QdiscConfig) -> StatsHandle {
        let q = Qdisc::new(cfg);
        let handle = q.shared_stats();
        self.mount(link, Plane::Flat(Box::new(q)));
        handle
    }

    /// Snapshot of the per-class counters of the flat plane on `link`.
    pub fn qdisc_stats(&self, link: LinkId) -> Option<QdiscStats> {
        match self.plane(link)? {
            Plane::Flat(q) => Some(q.stats().clone()),
            Plane::Tree(_) => None,
        }
    }

    /// Mount a hierarchical shaping tree on `link`. All traffic
    /// crossing the link is then routed to the subscriber leaf bound
    /// to its destination node (or the default leaf), shaped by the
    /// HTB borrowing hierarchy, and subject to that leaf's own CoDel
    /// AQM. Links without a plane keep the plain analytic FIFO model
    /// bit-for-bit. Panics when the link's egress slot is already
    /// occupied. Returns a handle to the tree's live per-node counters
    /// (for SNMP instrumentation).
    pub fn attach_tree(&mut self, link: LinkId, spec: TreeSpec) -> TreeStatsHandle {
        let tree = ShapingTree::new(spec);
        let handle = tree.shared_stats();
        self.mount(link, Plane::Tree(Box::new(tree)));
        handle
    }

    /// Whether `link` has a shaping tree mounted.
    pub fn tree_attached(&self, link: LinkId) -> bool {
        matches!(self.plane(link), Some(Plane::Tree(_)))
    }
}
