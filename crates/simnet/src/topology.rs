//! Nodes, links, and shortest-path routing.
//!
//! The simulator models a small internetwork as an undirected graph of
//! nodes joined by links. Each link has a bandwidth, a propagation
//! latency, and an independent Bernoulli loss probability. Unicast
//! traffic follows the hop-count-shortest path (BFS, deterministic
//! tie-break by link id); multicast delivers along each member's
//! unicast path, which matches LAN-scope IP multicast behaviour closely
//! enough for the paper's experiments.

use crate::faults::{FaultModel, FaultState};
use crate::time::Ticks;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifier of a simulated node (host, switch, base station...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Static link characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub latency: Ticks,
    /// Probability in `[0, 1]` that a packet traversing the link is lost.
    pub loss: f64,
    /// Optional bound on the link's FIFO backlog, in wire bytes. With
    /// `None` (the default) the FIFO queues unboundedly, exactly as
    /// before the cap existed; with `Some(cap)` a packet that would
    /// push the queued-but-unserialized backlog past `cap` is
    /// tail-dropped and counted in
    /// [`crate::trace::NetStats::fifo_dropped`].
    pub queue_cap_bytes: Option<u64>,
}

impl LinkSpec {
    /// 100 Mb/s switched-Ethernet-like LAN segment: 100 us latency, lossless.
    pub fn lan() -> Self {
        LinkSpec {
            bandwidth_bps: 100_000_000,
            latency: Ticks::from_micros(100),
            loss: 0.0,
            queue_cap_bytes: None,
        }
    }

    /// A constrained wireless hop: 1 Mb/s, 2 ms latency, default 1% loss.
    pub fn wireless() -> Self {
        LinkSpec {
            bandwidth_bps: 1_000_000,
            latency: Ticks::from_millis(2),
            loss: 0.01,
            queue_cap_bytes: None,
        }
    }

    /// A wide-area hop: 10 Mb/s, 20 ms latency, 0.1% loss.
    pub fn wan() -> Self {
        LinkSpec {
            bandwidth_bps: 10_000_000,
            latency: Ticks::from_millis(20),
            loss: 0.001,
            queue_cap_bytes: None,
        }
    }

    /// Override the loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Override the bandwidth.
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.bandwidth_bps = bps;
        self
    }

    /// Override the propagation latency.
    pub fn with_latency(mut self, latency: Ticks) -> Self {
        self.latency = latency;
        self
    }

    /// Bound the link's FIFO backlog to `cap` wire bytes (drop-tail).
    pub fn with_queue_cap(mut self, cap: u64) -> Self {
        assert!(cap > 0, "queue cap must be positive");
        self.queue_cap_bytes = Some(cap);
        self
    }

    /// Time to serialize `bytes` onto this link.
    pub fn serialization_time(&self, bytes: usize) -> Ticks {
        let bits = bytes as u64 * 8;
        // ceil(bits * 1e6 / bandwidth) microseconds
        Ticks::from_micros((bits * 1_000_000).div_ceil(self.bandwidth_bps))
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Link {
    pub spec: LinkSpec,
    pub a: NodeId,
    pub b: NodeId,
    /// Earliest instant the link is free to start serializing the next
    /// packet (simple FIFO queueing model shared by both directions).
    pub busy_until: Ticks,
    /// Total serialization time accumulated (utilization accounting).
    pub busy_accum: Ticks,
    /// False while the link is administratively down (fault plan flap
    /// or partition): routing avoids it, in-flight packets are not
    /// recalled.
    pub up: bool,
    /// Optional fault-injection model and its mutable channel state.
    pub fault: Option<FaultState>,
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub name: String,
    pub links: Vec<LinkId>,
}

/// The static graph: nodes and links.
#[derive(Debug, Default)]
pub struct Topology {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    /// Bumped by every mutation that can change which routes exist
    /// (new links, link up/down, partitions). [`Topology::route_cached`]
    /// drops its memo whenever the epoch moved, so cached paths can
    /// never outlive the graph they were computed on.
    epoch: u64,
    route_cache: std::collections::HashMap<(u32, u32), Option<Arc<[LinkId]>>>,
    cache_epoch: u64,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node with a debug name; returns its id.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.to_string(),
            links: Vec::new(),
        });
        id
    }

    /// Connect two distinct existing nodes; returns the new link id.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert!(a != b, "cannot link a node to itself");
        assert!(
            (a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len(),
            "unknown node"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            spec,
            a,
            b,
            busy_until: Ticks::ZERO,
            busy_accum: Ticks::ZERO,
            up: true,
            fault: None,
        });
        self.nodes[a.0 as usize].links.push(id);
        self.nodes[b.0 as usize].links.push(id);
        self.epoch += 1;
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Monotone counter bumped by every mutation that can change which
    /// routes exist (new links, link up/down, partitions, heals).
    /// Callers that cache reachability decisions can compare epochs to
    /// learn whether the graph moved under them.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a path currently exists from `src` to `dst`. Shares the
    /// [`Topology::route_cached`] memo, so repeated probes between
    /// topology mutations cost one lookup each.
    pub fn reachable(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.route_cached(src, dst).is_some()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Human-readable node name.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.nodes[n.0 as usize].name
    }

    /// Link spec accessor.
    pub fn link_spec(&self, l: LinkId) -> LinkSpec {
        self.links[l.0 as usize].spec
    }

    /// Replace a link's spec (e.g. to degrade bandwidth mid-run).
    pub fn set_link_spec(&mut self, l: LinkId, spec: LinkSpec) {
        self.links[l.0 as usize].spec = spec;
    }

    /// Attach a fault model to link `l` (or detach with `None`). The
    /// Gilbert–Elliott channel (re)starts in the good state.
    pub fn set_link_fault(&mut self, l: LinkId, model: Option<FaultModel>) {
        self.links[l.0 as usize].fault = model.map(FaultState::new);
    }

    /// The fault model attached to link `l`, if any.
    pub fn link_fault(&self, l: LinkId) -> Option<FaultModel> {
        self.links[l.0 as usize].fault.as_ref().map(|s| s.model)
    }

    /// Administratively raise or lower link `l`.
    pub fn set_link_up(&mut self, l: LinkId, up: bool) {
        self.links[l.0 as usize].up = up;
        self.epoch += 1;
    }

    /// Whether link `l` is up.
    pub fn link_up(&self, l: LinkId) -> bool {
        self.links[l.0 as usize].up
    }

    /// Take down every link with exactly one endpoint in `island`,
    /// cutting the node set off from the rest of the topology.
    pub fn partition(&mut self, island: &[NodeId]) {
        for link in &mut self.links {
            if island.contains(&link.a) != island.contains(&link.b) {
                link.up = false;
            }
        }
        self.epoch += 1;
    }

    /// Bring every link back up (undo flaps and partitions).
    pub fn heal(&mut self) {
        for link in &mut self.links {
            link.up = true;
        }
        self.epoch += 1;
    }

    /// Total time link `l` has spent serializing packets.
    pub fn link_busy_time(&self, l: LinkId) -> Ticks {
        self.links[l.0 as usize].busy_accum
    }

    /// Fraction of `[0, now]` that link `l` spent serializing.
    pub fn link_utilization(&self, l: LinkId, now: Ticks) -> f64 {
        if now == Ticks::ZERO {
            0.0
        } else {
            self.links[l.0 as usize].busy_accum.as_micros() as f64 / now.as_micros() as f64
        }
    }

    /// The far end of `l` as seen from `from`.
    pub fn peer(&self, l: LinkId, from: NodeId) -> NodeId {
        let link = &self.links[l.0 as usize];
        if link.a == from {
            link.b
        } else {
            debug_assert_eq!(link.b, from);
            link.a
        }
    }

    /// Hop-count shortest path from `src` to `dst` as a sequence of
    /// link ids, or `None` if unreachable. Deterministic: BFS visits
    /// links in id order. Links that are down are invisible to routing.
    ///
    /// Paths are memoised per `(src, dst)` and handed out as a shared
    /// `Arc`, so a lookup between topology changes is one hash probe
    /// and a reference-count bump — every in-flight copy to the same
    /// destination carries the same allocation. The memo is dropped
    /// wholesale whenever the topology epoch moved (link added, raised,
    /// lowered, partitioned, healed), so a cached path can never
    /// outlive the graph it was computed on. A miss runs one *full* BFS
    /// from `src` and memoises the path to every reachable node: mass
    /// fan-out — thousands of members behind the same hub — costs one
    /// O(V + E) sweep per source until the graph changes, not one BFS
    /// per member per batch.
    pub fn route_cached(&mut self, src: NodeId, dst: NodeId) -> Option<Arc<[LinkId]>> {
        if self.cache_epoch != self.epoch {
            self.route_cache.clear();
            self.cache_epoch = self.epoch;
        }
        if let Some(path) = self.route_cache.get(&(src.0, dst.0)) {
            return path.clone();
        }
        let n = self.nodes.len();
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[src.0 as usize] = true;
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &l in &self.nodes[u.0 as usize].links {
                if !self.links[l.0 as usize].up {
                    continue;
                }
                let v = self.peer(l, u);
                if !visited[v.0 as usize] {
                    visited[v.0 as usize] = true;
                    prev[v.0 as usize] = Some((u, l));
                    queue.push_back(v);
                }
            }
        }
        // Unwound dst → src into one reused scratch; each memoised
        // path is then a single allocation.
        let mut hops = Vec::new();
        for v in 0..n as u32 {
            if !visited[v as usize] {
                continue;
            }
            hops.clear();
            let mut cur = NodeId(v);
            while cur != src {
                let (p, pl) = prev[cur.0 as usize].expect("visited nodes have a BFS parent");
                hops.push(pl);
                cur = p;
            }
            let path = hops.iter().rev().copied().collect();
            self.route_cache.insert((src.0, v), Some(path));
        }
        self.route_cache
            .entry((src.0, dst.0))
            .or_insert(None)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> (Topology, NodeId, Vec<NodeId>) {
        let mut t = Topology::new();
        let hub = t.add_node("hub");
        let leaves: Vec<_> = (0..n)
            .map(|i| {
                let leaf = t.add_node(&format!("leaf{i}"));
                t.connect(hub, leaf, LinkSpec::lan());
                leaf
            })
            .collect();
        (t, hub, leaves)
    }

    #[test]
    fn route_direct_and_via_hub() {
        let (mut t, hub, leaves) = star(3);
        assert_eq!(t.route_cached(hub, leaves[1]).unwrap().len(), 1);
        assert_eq!(t.route_cached(leaves[0], leaves[2]).unwrap().len(), 2);
        assert_eq!(t.route_cached(leaves[0], leaves[0]).unwrap().len(), 0);
    }

    #[test]
    fn route_unreachable() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert!(t.route_cached(a, b).is_none());
        assert!(t.route_cached(a, b).is_none(), "the miss is memoised too");
    }

    #[test]
    fn route_prefers_fewest_hops() {
        // a - b - c plus a direct a - c link: direct wins.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.connect(a, b, LinkSpec::lan());
        t.connect(b, c, LinkSpec::lan());
        let direct = t.connect(a, c, LinkSpec::wan());
        assert_eq!(t.route_cached(a, c).as_deref(), Some(&[direct][..]));
    }

    #[test]
    fn serialization_time_scales() {
        let s = LinkSpec::lan(); // 100 Mb/s
        assert_eq!(s.serialization_time(1250).as_micros(), 100); // 10 Kb at 100 Mb/s
        let w = LinkSpec::wireless(); // 1 Mb/s
        assert_eq!(w.serialization_time(125).as_micros(), 1000);
        // Rounds up.
        assert_eq!(w.serialization_time(1).as_micros(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot link a node to itself")]
    fn reject_self_link() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.connect(a, a, LinkSpec::lan());
    }

    #[test]
    fn route_avoids_down_links() {
        // a - b - c plus a direct a - c link: direct is preferred, but
        // routing falls back to the two-hop path when it goes down.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let ab = t.connect(a, b, LinkSpec::lan());
        let bc = t.connect(b, c, LinkSpec::lan());
        let direct = t.connect(a, c, LinkSpec::wan());
        assert!(t.link_up(direct));
        assert_eq!(t.route_cached(a, c).as_deref(), Some(&[direct][..]));
        t.set_link_up(direct, false);
        assert_eq!(t.route_cached(a, c).as_deref(), Some(&[ab, bc][..]));
        t.set_link_up(direct, true);
        assert_eq!(t.route_cached(a, c).as_deref(), Some(&[direct][..]));
    }

    #[test]
    fn partition_and_heal() {
        let (mut t, hub, leaves) = star(3);
        assert!(
            t.route_cached(hub, leaves[0]).is_some(),
            "memoised before the cut"
        );
        t.partition(&[leaves[0]]);
        assert!(t.route_cached(hub, leaves[0]).is_none());
        assert!(
            t.route_cached(hub, leaves[1]).is_some(),
            "others unaffected"
        );
        // Links wholly inside the island stay up.
        t.heal();
        assert!(t.route_cached(hub, leaves[0]).is_some());
    }

    #[test]
    fn link_fault_attach_detach() {
        let (mut t, _hub, _leaves) = star(1);
        let l = LinkId(0);
        assert!(t.link_fault(l).is_none());
        let model = crate::faults::FaultModel::none().with_duplicate(0.25);
        t.set_link_fault(l, Some(model));
        assert_eq!(t.link_fault(l), Some(model));
        t.set_link_fault(l, None);
        assert!(t.link_fault(l).is_none());
    }

    #[test]
    fn peer_resolves_both_ends() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.connect(a, b, LinkSpec::lan());
        assert_eq!(t.peer(l, a), b);
        assert_eq!(t.peer(l, b), a);
    }

    #[test]
    fn route_cache_tracks_link_state() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let ab = t.connect(a, b, LinkSpec::lan());
        let bc = t.connect(b, c, LinkSpec::lan());
        let first = t.route_cached(a, c).unwrap();
        assert_eq!(&first[..], [ab, bc]);
        let hit = t.route_cached(a, c).unwrap();
        assert!(Arc::ptr_eq(&first, &hit), "a hit shares the memoised path");
        t.set_link_up(bc, false);
        assert_eq!(t.route_cached(a, c), None, "cache dropped on link down");
        t.set_link_up(bc, true);
        let again = t.route_cached(a, c).unwrap();
        assert_eq!(again, first, "cache dropped on link up");
        assert!(!Arc::ptr_eq(&first, &again), "recomputed, not resurrected");
        let ac = t.connect(a, c, LinkSpec::lan());
        assert_eq!(
            t.route_cached(a, c).as_deref(),
            Some(&[ac][..]),
            "new link visible"
        );
        t.partition(&[c]);
        assert_eq!(t.route_cached(a, c), None, "partition invalidates");
        assert_eq!(
            t.route_cached(a, b).as_deref(),
            Some(&[ab][..]),
            "same side intact"
        );
        t.heal();
        assert_eq!(
            t.route_cached(a, c).as_deref(),
            Some(&[ac][..]),
            "heal invalidates"
        );
        // A held path is unaffected by later invalidation.
        assert_eq!(&first[..], [ab, bc]);
    }
}
