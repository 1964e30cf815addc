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

/// Links a [`Route`] carries inline. Five links, a length and a cursor
/// fill exactly the 24 bytes the shared path pointer and hop index they
/// replace took, so an in-flight copy is no bigger than before; every
/// route of the paper's topologies (client, switch or broker chain,
/// client) fits.
const INLINE_LINKS: usize = 5;

/// Marks a node no BFS sweep reached in a tree's `via` array.
const UNREACHED: LinkId = LinkId(u32::MAX);

/// The links from a source to a destination, in travel order, with a
/// cursor on the next one to cross. Handed out by value: a short route
/// lives inline, so launching a packet copy allocates nothing and
/// touches no reference count; a longer one owns a single heap slice.
#[derive(Clone, Debug)]
pub struct Route(RouteRepr);

#[derive(Clone, Debug)]
enum RouteRepr {
    Inline {
        hop: u8,
        len: u8,
        links: [LinkId; INLINE_LINKS],
    },
    Heap {
        hop: u32,
        links: Box<[LinkId]>,
    },
}

impl Route {
    /// A route of `len` links, all to be filled in by the caller.
    pub(crate) fn with_len(len: usize) -> Route {
        Route(if len <= INLINE_LINKS {
            RouteRepr::Inline {
                hop: 0,
                len: len as u8,
                links: [UNREACHED; INLINE_LINKS],
            }
        } else {
            RouteRepr::Heap {
                hop: 0,
                links: vec![UNREACHED; len].into_boxed_slice(),
            }
        })
    }

    /// `first`, then every link of `rest`, with the cursor on `first`.
    pub(crate) fn after(first: LinkId, rest: &Route) -> Route {
        let rest = rest.links();
        let mut route = Route::with_len(rest.len() + 1);
        let links = route.links_mut();
        links[0] = first;
        links[1..].copy_from_slice(rest);
        route
    }

    fn links_mut(&mut self) -> &mut [LinkId] {
        match &mut self.0 {
            RouteRepr::Inline { len, links, .. } => &mut links[..*len as usize],
            RouteRepr::Heap { links, .. } => links,
        }
    }

    /// Every link of the route, crossed or not.
    pub fn links(&self) -> &[LinkId] {
        match &self.0 {
            RouteRepr::Inline { len, links, .. } => &links[..*len as usize],
            RouteRepr::Heap { links, .. } => links,
        }
    }

    /// The next link to cross; `None` once the destination is reached.
    pub fn next_link(&self) -> Option<LinkId> {
        match &self.0 {
            RouteRepr::Inline { hop, len, links } => (hop < len).then(|| links[*hop as usize]),
            RouteRepr::Heap { hop, links } => links.get(*hop as usize).copied(),
        }
    }

    /// Move the cursor past the link [`Route::next_link`] returned.
    pub fn advance(&mut self) {
        match &mut self.0 {
            RouteRepr::Inline { hop, .. } => *hop += 1,
            RouteRepr::Heap { hop, .. } => *hop += 1,
        }
    }
}

const _: () = assert!(std::mem::size_of::<Route>() == 24);

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
    /// drops its memo whenever the epoch moved, so a cached tree can
    /// never outlive the graph it was computed on.
    epoch: u64,
    /// The route memo: one BFS tree per root asked for, indexed by the
    /// root's node id. `trees[r][v]` is the link node `v` was first
    /// reached over in the sweep from `r` ([`UNREACHED`] for `r` itself
    /// and for nodes the sweep never saw).
    trees: Vec<Option<Box<[LinkId]>>>,
    trees_epoch: u64,
    sweeps: u64,
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
    /// [`Topology::route_cached`] tree memo and builds no route, so a
    /// probe between topology mutations is one walk up a memoised tree.
    pub fn reachable(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.locate(src, dst).is_some()
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

    /// Administratively raise or lower link `l`.
    pub fn set_link_up(&mut self, l: LinkId, up: bool) {
        self.links[l.0 as usize].up = up;
        self.epoch += 1;
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

    /// Hop-count shortest path from `src` to `dst`, or `None` if
    /// unreachable. Deterministic: BFS visits links in id order. Links
    /// that are down are invisible to routing.
    ///
    /// What is memoised is one BFS *tree* per root — a dense array of
    /// the link each node was first reached over — never a path per
    /// pair: a lookup walks the tree back from `dst` and returns the
    /// [`Route`] by value. A source with exactly one link borrows its
    /// neighbor's tree (its route is that link followed by the
    /// neighbor's route): a leaf lies on nobody else's path, so this
    /// is the very path its own sweep would find, and a star of
    /// thousands of access links shares the hub's one tree. The memo
    /// is dropped wholesale whenever the topology epoch moved (link
    /// added, raised, lowered, partitioned, healed), so a route can
    /// never be read off a graph that no longer exists; a route
    /// already handed out is the caller's and stays as computed.
    pub fn route_cached(&mut self, src: NodeId, dst: NodeId) -> Option<Route> {
        let (first, root, depth) = self.locate(src, dst)?;
        Some(self.tree_route(first, root, dst, depth))
    }

    /// The route from `root` to `dst` read off `root`'s own BFS tree,
    /// or `None` if unreachable: the part of a route a sender whose
    /// [`Topology::tree_root`] is `root` shares with every other such
    /// sender, so one read serves them all.
    pub(crate) fn route_from_root(&mut self, root: NodeId, dst: NodeId) -> Option<Route> {
        let depth = self.depth_in_tree(root, dst)?;
        Some(self.tree_route(None, root, dst, depth))
    }

    /// The root of the BFS tree routes from `src` are read off, and
    /// the access link a single-homed `src` crosses to reach it (up or
    /// not): `src` itself otherwise.
    pub(crate) fn tree_root(&self, src: NodeId) -> (Option<LinkId>, NodeId) {
        match self.nodes[src.0 as usize].links[..] {
            [only] => (Some(only), self.peer(only, src)),
            _ => (None, src),
        }
    }

    /// Whether link `l` is up.
    pub(crate) fn link_up(&self, l: LinkId) -> bool {
        self.links[l.0 as usize].up
    }

    /// Where the route from `src` to `dst` lives in the memo: the
    /// access link a single-homed `src` crosses first (if it borrows
    /// its neighbor's tree), the root of the tree to walk, and how
    /// many links below that root `dst` hangs. `None` if unreachable.
    fn locate(&mut self, src: NodeId, dst: NodeId) -> Option<(Option<LinkId>, NodeId, usize)> {
        if src == dst {
            return Some((None, src, 0));
        }
        let (first, root) = self.tree_root(src);
        if first.is_some_and(|l| !self.link_up(l)) {
            return None;
        }
        Some((first, root, self.depth_in_tree(root, dst)?))
    }

    /// How many links below `root` `dst` hangs in `root`'s BFS tree
    /// (memoised first if need be); `None` if the sweep never reached it.
    fn depth_in_tree(&mut self, root: NodeId, dst: NodeId) -> Option<usize> {
        self.ensure_tree(root);
        let via = self.trees[root.0 as usize]
            .as_deref()
            .expect("just memoised");
        let mut depth = 0;
        let mut cur = dst;
        while cur != root {
            let link = *via.get(cur.0 as usize)?;
            if link == UNREACHED {
                return None;
            }
            depth += 1;
            cur = self.peer(link, cur);
        }
        Some(depth)
    }

    /// `first` (if any) followed by the `depth` links from `root` down
    /// to `dst` in `root`'s memoised tree.
    fn tree_route(&self, first: Option<LinkId>, root: NodeId, dst: NodeId, depth: usize) -> Route {
        let mut route = Route::with_len(depth + usize::from(first.is_some()));
        if depth > 0 {
            let via = self.trees[root.0 as usize]
                .as_deref()
                .expect("the root's tree was walked");
            let mut cur = dst;
            for slot in route.links_mut().iter_mut().rev().take(depth) {
                *slot = via[cur.0 as usize];
                cur = self.peer(*slot, cur);
            }
        }
        if let Some(first) = first {
            route.links_mut()[0] = first;
        }
        route
    }

    /// Memoise the BFS tree rooted at `root` unless the current epoch
    /// already has it.
    fn ensure_tree(&mut self, root: NodeId) {
        if self.trees_epoch != self.epoch {
            self.trees.clear();
            self.trees_epoch = self.epoch;
        }
        let n = self.nodes.len();
        if self.trees.len() < n {
            self.trees.resize_with(n, || None);
        }
        if self.trees[root.0 as usize].is_some() {
            return;
        }
        self.sweeps += 1;
        let mut via = vec![UNREACHED; n].into_boxed_slice();
        let mut queue = VecDeque::new();
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &l in &self.nodes[u.0 as usize].links {
                if !self.links[l.0 as usize].up {
                    continue;
                }
                let v = self.peer(l, u);
                if v != root && via[v.0 as usize] == UNREACHED {
                    via[v.0 as usize] = l;
                    queue.push_back(v);
                }
            }
        }
        self.trees[root.0 as usize] = Some(via);
    }

    /// BFS sweeps run since construction: one per memoised tree. A
    /// lookup that finds its tree runs none, so the counter pins how
    /// much routing work a scenario costs without timing anything.
    pub fn bfs_sweeps(&self) -> u64 {
        self.sweeps
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

    /// The links of the route from `a` to `b`.
    fn links(t: &mut Topology, a: NodeId, b: NodeId) -> Option<Vec<LinkId>> {
        t.route_cached(a, b).map(|r| r.links().to_vec())
    }

    #[test]
    fn route_direct_and_via_hub() {
        let (mut t, hub, leaves) = star(3);
        assert_eq!(links(&mut t, hub, leaves[1]), Some(vec![LinkId(1)]));
        assert_eq!(
            links(&mut t, leaves[0], leaves[2]),
            Some(vec![LinkId(0), LinkId(2)])
        );
        assert_eq!(links(&mut t, leaves[0], leaves[0]), Some(vec![]));
    }

    #[test]
    fn route_unreachable() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert!(t.route_cached(a, b).is_none());
        assert!(t.route_cached(a, b).is_none());
        assert_eq!(t.bfs_sweeps(), 1, "the miss is memoised too");
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
        assert_eq!(links(&mut t, a, c), Some(vec![direct]));
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
        assert_eq!(links(&mut t, a, c), Some(vec![direct]));
        t.set_link_up(direct, false);
        assert_eq!(links(&mut t, a, c), Some(vec![ab, bc]));
        t.set_link_up(direct, true);
        assert_eq!(links(&mut t, a, c), Some(vec![direct]));
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
        // a and c are multi-homed (the spur links), so each roots its
        // own tree and the sweep counts below are theirs alone.
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let (a2, c2) = (t.add_node("a2"), t.add_node("c2"));
        let ab = t.connect(a, b, LinkSpec::lan());
        let bc = t.connect(b, c, LinkSpec::lan());
        t.connect(a, a2, LinkSpec::lan());
        t.connect(c, c2, LinkSpec::lan());
        let first = t.route_cached(a, c).unwrap();
        assert_eq!(first.links(), [ab, bc]);
        assert_eq!(t.bfs_sweeps(), 1);
        assert_eq!(links(&mut t, a, c), Some(vec![ab, bc]));
        assert_eq!(links(&mut t, a, b), Some(vec![ab]));
        assert!(t.reachable(a, c2));
        assert_eq!(t.bfs_sweeps(), 1, "a repeated lookup runs no BFS");
        t.set_link_up(bc, false);
        assert_eq!(links(&mut t, a, c), None, "memo dropped on link down");
        assert_eq!(t.bfs_sweeps(), 2);
        t.set_link_up(bc, true);
        assert_eq!(links(&mut t, a, c), Some(vec![ab, bc]), "and on link up");
        assert_eq!(links(&mut t, c, a), Some(vec![bc, ab]));
        assert_eq!(links(&mut t, a, c), Some(vec![ab, bc]));
        assert_eq!(t.bfs_sweeps(), 4, "an epoch bump: one sweep per root asked");
        let ac = t.connect(a, c, LinkSpec::lan());
        assert_eq!(links(&mut t, a, c), Some(vec![ac]), "new link visible");
        t.partition(&[c, c2]);
        assert_eq!(links(&mut t, a, c), None, "partition invalidates");
        assert_eq!(links(&mut t, a, b), Some(vec![ab]), "same side intact");
        t.heal();
        assert_eq!(links(&mut t, a, c), Some(vec![ac]), "heal invalidates");
        // A route handed out is unaffected by later invalidation.
        assert_eq!(first.links(), [ab, bc]);
    }

    /// A single-homed source borrows its neighbor's tree: a star
    /// queried all-pairs costs one sweep, not one per leaf.
    #[test]
    fn star_of_leaves_shares_the_hub_tree() {
        let (mut t, hub, leaves) = star(1_000);
        for (i, &src) in leaves.iter().enumerate() {
            for (j, &dst) in leaves.iter().enumerate() {
                let route = t.route_cached(src, dst).unwrap();
                let expect: &[LinkId] = if i == j {
                    &[]
                } else {
                    &[LinkId(i as u32), LinkId(j as u32)]
                };
                assert_eq!(route.links(), expect);
            }
            assert_eq!(links(&mut t, src, hub), Some(vec![LinkId(i as u32)]));
        }
        assert_eq!(t.bfs_sweeps(), 1);
        // A leaf whose only link is down reaches nothing but itself,
        // and asks for no sweep to find that out.
        t.set_link_up(LinkId(7), false);
        assert_eq!(links(&mut t, leaves[7], hub), None);
        assert_eq!(links(&mut t, leaves[7], leaves[7]), Some(vec![]));
        assert_eq!(t.bfs_sweeps(), 1);
        assert_eq!(links(&mut t, leaves[8], leaves[7]), None);
        assert_eq!(t.bfs_sweeps(), 2);
    }

    /// Two single-homed nodes joined to each other: each borrows the
    /// other's tree, one level deep.
    #[test]
    fn two_leaves_facing_each_other_route() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let ab = t.connect(a, b, LinkSpec::lan());
        assert_eq!(links(&mut t, a, b), Some(vec![ab]));
        assert_eq!(links(&mut t, b, a), Some(vec![ab]));
    }

    /// Routes past the inline capacity spill to the heap and walk the
    /// same way.
    #[test]
    fn long_routes_spill_and_advance() {
        let mut t = Topology::new();
        let nodes: Vec<_> = (0..12).map(|i| t.add_node(&format!("n{i}"))).collect();
        let chain: Vec<_> = nodes
            .windows(2)
            .map(|w| t.connect(w[0], w[1], LinkSpec::lan()))
            .collect();
        for end in 0..nodes.len() {
            let mut route = t.route_cached(nodes[0], nodes[end]).unwrap();
            assert_eq!(route.links(), &chain[..end]);
            let mut walked = Vec::new();
            while let Some(l) = route.next_link() {
                walked.push(l);
                route.advance();
            }
            assert_eq!(walked, &chain[..end]);
            assert_eq!(route.links(), &chain[..end], "the cursor eats nothing");
        }
    }
}
