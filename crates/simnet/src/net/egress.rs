//! Mounting a shaping tree in a link's egress slot — compiled from a
//! `TreeSpec` or, as the flat class plane, from a `QdiscConfig` — and
//! reading its counters back. What a mounted slot does to a copy is
//! `datapath`.

use super::datapath::{InFlight, LinkEgress};
use super::Network;
use crate::topology::LinkId;
use htb::{ShapingTree, TreeSpec, TreeStatsHandle};
use qdisc::{QdiscConfig, QdiscStats};

impl Network {
    /// Fill `link`'s egress slot and return the tree's counter handle.
    /// A slot is filled once: replacing a tree would discard its queued
    /// copies uncounted and restart `gen`, letting a stale service
    /// event match the newcomer.
    fn attach(&mut self, link: LinkId, tree: ShapingTree<InFlight>) -> TreeStatsHandle {
        let idx = link.0 as usize;
        if idx >= self.egress.len() {
            self.egress.resize_with(idx + 1, || None);
        }
        assert!(
            self.egress[idx].is_none(),
            "link already has an egress plane"
        );
        let handle = tree.shared_stats();
        self.egress[idx] = Some(LinkEgress {
            plane: Box::new(tree),
            service_at: None,
            gen: 0,
        });
        handle
    }

    /// Mount a flat traffic-control plane on `link`: `cfg` compiled to
    /// a tree of four class leaves under the link shaper. All traffic
    /// crossing the link is then classified by destination port,
    /// shaped, DRR-scheduled across the classes, and subject to each
    /// class's CoDel AQM; links without a plane keep the plain
    /// analytic FIFO model bit-for-bit. Panics when the link's egress
    /// slot is already occupied. Returns a handle to the tree's live
    /// counters, whose own are the root's (for SNMP instrumentation).
    pub fn attach_qdisc(&mut self, link: LinkId, cfg: QdiscConfig) -> TreeStatsHandle {
        self.attach(link, ShapingTree::for_classes(&cfg))
    }

    /// Snapshot of the per-class counters of the flat plane on `link`
    /// (`None` without one, or for a subscriber tree).
    pub fn qdisc_stats(&self, link: LinkId) -> Option<QdiscStats> {
        self.plane(link)?.class_stats()
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
        self.attach(link, ShapingTree::new(spec))
    }
}
