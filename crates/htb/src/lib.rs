//! Hierarchical last-mile shaping tree: HTB-style borrowing with one
//! CoDel/ECN AQM instance per leaf — the one egress scheduler `simnet`
//! mounts.
//!
//! A flat class plane is this tree at depth one: a
//! [`qdisc::QdiscConfig`] compiles to a root carrying the link shaper
//! and four leaves, one per traffic class ([`ShapingTree::for_classes`],
//! with [`Qdisc`] as its class-keyed front end). An ISP's last mile is
//! deeper: a shared uplink fans out to sites, sites to access points,
//! access points to subscribers, and every level has both an
//! **assured rate** (what the plan guarantees) and a
//! **ceiling** (what the plan may burst to when ancestors have spare
//! capacity). This crate models that hierarchy the way LibreQoS mounts
//! HTB + per-customer AQM on real ISP middleboxes:
//!
//! * a [`TreeSpec`] describes the topology — root uplink → sites →
//!   access points → subscriber leaves, each node carrying
//!   `assured_bps`/`ceil_bps` from a [`RatePlan`] catalog;
//! * [`ShapingTree`] compiles the spec into a tree of dual
//!   [`TokenBucket`]s (one at the assured rate, one at the ceiling)
//!   with HTB-style borrowing: a leaf spends its own assured tokens
//!   first, then borrows unused tokens from the nearest ancestor that
//!   has some, provided every ceiling on the path conforms;
//! * leaves share the uplink via Deficit Round Robin with quanta
//!   proportional to their assured rates, so borrowed surplus divides
//!   quantum-proportionally among the backlogged children;
//! * each subscriber leaf owns one [`CoDel`] controller over its
//!   per-class FIFOs, so a congested subscriber is ECN-marked (and
//!   eventually dropped) without touching its neighbours' queues.
//!
//! All accounting is integer bit-µs ([`TokenBucket`] from `qdisc`), so
//! the schedule is exactly reproducible: same
//! enqueue/dequeue call sequence, same marks, drops, and borrow
//! ledger. The fairness invariants the bench and proptests pin:
//!
//! 1. no subscriber exceeds its ceiling over any window (beyond the
//!    configured burst);
//! 2. the children of any node never outrun the node itself (every
//!    send debits every ancestor's ceiling bucket);
//! 3. work conservation — when aggregate demand ≥ uplink capacity the
//!    root is never idle (the root is the payer of last resort);
//! 4. the first ECN mark precedes the first drop for ECT traffic.
//!
//! # Clock contract
//!
//! The tree has no clock of its own: every [`ShapingTree::enqueue`],
//! [`ShapingTree::dequeue`] and [`ShapingTree::next_ready`] call names
//! its instant, and **no instant may precede the last `dequeue`**
//! (`simnet` drives all three from its one event clock, so there this
//! holds by construction). Token buckets only move forward: an earlier
//! instant would be priced as if no time had passed since the last
//! send, and the scheduler's index (below) files leaves by instants it
//! computed under that assumption.
//!
//! # Scheduler
//!
//! Which packet goes next is defined by a walk — round robin from a
//! cursor over *all* leaves, skipping (and zeroing the deficit of)
//! every leaf that is empty or not eligible — and the walk's result is
//! what the tree reproduces; it does not perform the walk. Between two
//! sends of a leaf with an unchanged head packet, the leaf's own
//! ceiling bucket admits that packet from one fixed instant on
//! ([`TokenBucket::next_conforming`] is `max(at, T)` for a `T` that
//! does not depend on `at`), so every backlogged leaf is filed in
//! exactly one of
//!
//! * a **waiting** min-heap keyed by that instant — `dequeue` promotes
//!   the due ones, `next_ready` never looks below a key that is no
//!   earlier than the best time found; or
//! * a **ready** bitmap, searched cyclically from the cursor, plus a
//!   min-heap of the ready leaves' head sizes: every path ends at the
//!   root, so when the root ceiling refuses the smallest ready head
//!   nothing is eligible (the **root gate**), and the root's conform
//!   time for a size bounds every ready leaf of that size or larger.
//!
//! The index only ever *narrows the candidates*: a ready leaf still has
//! its whole path checked before it is served, so the ready set being
//! a superset of the eligible leaves costs time, never correctness,
//! and the deficits the walk would have zeroed on the way are zeroed
//! through a second bitmap of the leaves that hold one. Work per call
//! is O(log leaves + depth) when leaves are held by their own ceilings
//! or by the root; a saturated interior node (site, AP) still costs a
//! path check per ready leaf beneath it.
#![forbid(unsafe_code)]

mod classes;

pub use classes::Qdisc;
use qdisc::{
    ClassMap, CoDel, Shaper, SharedStats, TokenBucket, CLASS_COUNT, DEFAULT_INTERVAL_US,
    DEFAULT_TARGET_US,
};

// Re-exported so consumers of the tree can pattern-match enqueue and
// dequeue outcomes without a direct qdisc dependency.
pub use qdisc::{DequeueOutcome, EnqueueOutcome, Released, TrafficClass};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Node index within a [`TreeSpec`] / [`ShapingTree`].
pub type NodeIdx = usize;

/// The root uplink node's index.
pub const ROOT: NodeIdx = 0;

/// The implicit default leaf's index (unmatched destinations — control
/// traffic, SNMP, anything not behind a subscriber plan).
pub const DEFAULT_LEAF: NodeIdx = 1;

/// One entry of a rate-plan catalog: the service tier a subscriber
/// bought, as an assured (committed) rate plus a burst ceiling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RatePlan {
    /// Marketing name, kept for summaries and failure messages.
    pub name: String,
    /// Committed information rate in bits per second.
    pub assured_bps: u64,
    /// Burst ceiling in bits per second (`>= assured_bps`).
    pub ceil_bps: u64,
}

impl RatePlan {
    /// A plan assuring `assured_bps` with ceiling `ceil_bps`.
    pub fn new(name: &str, assured_bps: u64, ceil_bps: u64) -> RatePlan {
        assert!(assured_bps > 0, "plan must assure a positive rate");
        assert!(ceil_bps >= assured_bps, "ceiling below assured rate");
        RatePlan {
            name: name.to_string(),
            assured_bps,
            ceil_bps,
        }
    }
}

/// What a spec node is once compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
enum NodeKind {
    /// Aggregation point (root, site, access point): carries buckets,
    /// never queues packets itself.
    Interior,
    /// Subscriber leaf. `Some(dst)` binds it to a destination node id;
    /// `None` is the default leaf catching unmatched destinations.
    Leaf(Option<u32>),
}

/// One node of the topology description.
#[derive(Clone, Debug)]
struct NodeSpec {
    name: String,
    parent: NodeIdx,
    assured_bps: u64,
    ceil_bps: u64,
    kind: NodeKind,
}

/// Topology description for a [`ShapingTree`]: root uplink → sites →
/// access points → subscriber leaves.
///
/// [`TreeSpec::new`] creates the root (index [`ROOT`], assured =
/// ceiling = the uplink rate) and a small default leaf (index
/// [`DEFAULT_LEAF`]) that carries traffic whose destination is not
/// bound to any subscriber — management and control flows keep moving
/// even when every plan is saturated. Everything else is added with
/// [`add_site`](TreeSpec::add_site) /
/// [`add_ap`](TreeSpec::add_ap) /
/// [`add_subscriber`](TreeSpec::add_subscriber).
#[derive(Clone, Debug)]
pub struct TreeSpec {
    nodes: Vec<NodeSpec>,
    /// Destinations already bound to a subscriber leaf.
    bound_dsts: BTreeSet<u32>,
    class_map: ClassMap,
    codel_target_us: u64,
    codel_interval_us: u64,
    /// Per-class FIFO depth at each leaf, in packets.
    leaf_queue_cap_pkts: usize,
    /// Token-bucket depth for every rate and ceiling bucket, bytes.
    burst_bytes: u64,
}

impl TreeSpec {
    /// A tree whose root uplink sustains `uplink_bps`, with the
    /// collabqos default classifier, classic CoDel constants (5 ms /
    /// 100 ms), 256-packet leaf FIFOs and a 2-MTU burst.
    pub fn new(uplink_bps: u64) -> TreeSpec {
        assert!(uplink_bps > 0, "uplink rate must be positive");
        // The default leaf is assured 1% of the uplink (at least
        // 64 kbit/s) so control traffic survives full subscriber load,
        // and may burst to the whole uplink when nothing else is on.
        let default_assured = (uplink_bps / 100).max(64_000).min(uplink_bps);
        TreeSpec {
            nodes: vec![
                NodeSpec {
                    name: "uplink".to_string(),
                    parent: ROOT,
                    assured_bps: uplink_bps,
                    ceil_bps: uplink_bps,
                    kind: NodeKind::Interior,
                },
                NodeSpec {
                    name: "default".to_string(),
                    parent: ROOT,
                    assured_bps: default_assured,
                    ceil_bps: uplink_bps,
                    kind: NodeKind::Leaf(None),
                },
            ],
            bound_dsts: BTreeSet::new(),
            class_map: ClassMap::collabqos_default(),
            codel_target_us: DEFAULT_TARGET_US,
            codel_interval_us: DEFAULT_INTERVAL_US,
            leaf_queue_cap_pkts: 256,
            burst_bytes: 3_000,
        }
    }

    /// Replace the leaf classifier (shared with per-link qdiscs via
    /// [`ClassMap::builder`]).
    pub fn with_class_map(mut self, map: ClassMap) -> TreeSpec {
        self.class_map = map;
        self
    }

    /// Override the per-leaf CoDel constants.
    pub fn with_codel(mut self, target_us: u64, interval_us: u64) -> TreeSpec {
        self.codel_target_us = target_us;
        self.codel_interval_us = interval_us;
        self
    }

    /// Override the per-class FIFO depth at each leaf.
    pub fn with_leaf_queue_cap(mut self, pkts: usize) -> TreeSpec {
        assert!(pkts > 0, "leaf queues need at least one slot");
        self.leaf_queue_cap_pkts = pkts;
        self
    }

    /// Override the token-bucket burst depth (bytes).
    pub fn with_burst_bytes(mut self, bytes: u64) -> TreeSpec {
        assert!(bytes > 0, "burst must be positive");
        self.burst_bytes = bytes;
        self
    }

    fn add_node(
        &mut self,
        parent: NodeIdx,
        name: &str,
        assured_bps: u64,
        ceil_bps: u64,
        kind: NodeKind,
    ) -> NodeIdx {
        assert!(parent < self.nodes.len(), "unknown parent node");
        assert!(
            self.nodes[parent].kind == NodeKind::Interior,
            "cannot attach under a subscriber leaf"
        );
        assert!(assured_bps > 0, "assured rate must be positive");
        assert!(ceil_bps >= assured_bps, "ceiling below assured rate");
        self.nodes.push(NodeSpec {
            name: name.to_string(),
            parent,
            assured_bps,
            ceil_bps,
            kind,
        });
        self.nodes.len() - 1
    }

    /// Add a site under the root uplink.
    pub fn add_site(&mut self, name: &str, assured_bps: u64, ceil_bps: u64) -> NodeIdx {
        self.add_node(ROOT, name, assured_bps, ceil_bps, NodeKind::Interior)
    }

    /// Add an access point under `site`.
    pub fn add_ap(
        &mut self,
        site: NodeIdx,
        name: &str,
        assured_bps: u64,
        ceil_bps: u64,
    ) -> NodeIdx {
        self.add_node(site, name, assured_bps, ceil_bps, NodeKind::Interior)
    }

    /// Add a subscriber leaf under `parent`, rated by `plan`, carrying
    /// all traffic whose final destination is node `dst` in the
    /// simulated network. Each destination binds at most one leaf.
    pub fn add_subscriber(
        &mut self,
        parent: NodeIdx,
        name: &str,
        plan: &RatePlan,
        dst: u32,
    ) -> NodeIdx {
        assert!(
            self.bound_dsts.insert(dst),
            "destination {dst} already bound to a subscriber leaf"
        );
        self.add_node(
            parent,
            name,
            plan.assured_bps,
            plan.ceil_bps,
            NodeKind::Leaf(Some(dst)),
        )
    }

    /// Total number of nodes, including root and default leaf.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of subscriber leaves (excluding the default leaf).
    pub fn subscriber_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf(Some(_))))
            .count()
    }

    /// Every subscriber leaf as `(node index, destination node id)`,
    /// in spec order (the default leaf is excluded).
    pub fn subscriber_nodes(&self) -> Vec<(NodeIdx, u32)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.kind {
                NodeKind::Leaf(Some(d)) => Some((i, d)),
                _ => None,
            })
            .collect()
    }

    /// Name of node `idx`.
    pub fn node_name(&self, idx: NodeIdx) -> &str {
        &self.nodes[idx].name
    }

    /// Parent of node `idx` (the root is its own parent).
    pub fn node_parent(&self, idx: NodeIdx) -> NodeIdx {
        self.nodes[idx].parent
    }

    /// Assured rate of node `idx`, bits per second.
    pub fn node_assured_bps(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].assured_bps
    }

    /// Ceiling of node `idx`, bits per second.
    pub fn node_ceil_bps(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].ceil_bps
    }

    /// The configured leaf classifier.
    pub fn class_map(&self) -> &ClassMap {
        &self.class_map
    }

    /// One-line summary (printed by CI jobs on failure).
    pub fn summary(&self) -> String {
        format!(
            "uplink={}bps nodes={} subscribers={} codel={}us/{}us cap={}pkt burst={}B",
            self.nodes[ROOT].ceil_bps,
            self.node_count(),
            self.subscriber_count(),
            self.codel_target_us,
            self.codel_interval_us,
            self.leaf_queue_cap_pkts,
            self.burst_bytes
        )
    }
}

impl fmt::Display for TreeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Shared view of a compiled tree: static per-node rates plus live
/// counters, indexed by [`NodeIdx`]. The SNMP agent reads them through
/// [`TreeStatsHandle`] clones, so interior rows answer "how is this
/// site doing" directly.
#[derive(Debug)]
pub struct TreeShared {
    nodes: Vec<SharedStats>,
    /// Static `(assured_bps, ceil_bps)` per node; 0 where the node has
    /// no bucket.
    rates: Vec<(u64, u64)>,
}

impl TreeShared {
    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Live counters for node `idx`.
    pub fn node(&self, idx: NodeIdx) -> &SharedStats {
        &self.nodes[idx]
    }

    /// Assured rate of node `idx`, bits per second.
    pub fn rate_bps(&self, idx: NodeIdx) -> u64 {
        self.rates[idx].0
    }

    /// Ceiling of node `idx`, bits per second.
    pub fn ceil_bps(&self, idx: NodeIdx) -> u64 {
        self.rates[idx].1
    }

    /// Bits sent by node `idx`'s subtree so far.
    pub fn bits_sent(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].bits_sent.load(Ordering::Relaxed)
    }

    /// Current subtree backlog of node `idx`, bytes.
    pub fn backlog_bytes(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].backlog_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative subtree drops of node `idx`.
    pub fn drops(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].drops.load(Ordering::Relaxed)
    }

    /// Cumulative subtree ECN marks of node `idx`.
    pub fn ecn_marks(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].ecn_marks.load(Ordering::Relaxed)
    }

    /// Bits node `idx` sent on borrowed tokens.
    pub fn borrowed_bits(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx].borrowed_bits.load(Ordering::Relaxed)
    }
}

/// Cloneable handle to a tree's live counters.
pub type TreeStatsHandle = Arc<TreeShared>;

/// A tree's own counters are its root's: the whole plane's backlog,
/// drops and ECN marks.
impl Deref for TreeShared {
    type Target = SharedStats;

    fn deref(&self) -> &SharedStats {
        self.node(ROOT)
    }
}

/// A compiled tree node: dual buckets plus topology. A node without a
/// bucket does not shape: it admits every packet at once.
struct Node {
    rate: Option<TokenBucket>,
    ceil: Option<TokenBucket>,
    parent: NodeIdx,
}

/// Full bucket for `rate_bps` with a `burst_bytes` depth.
fn bucket(rate_bps: u64, burst_bytes: u64) -> Option<TokenBucket> {
    Some(TokenBucket::new(Shaper {
        rate_bps,
        burst_bytes,
    }))
}

/// Whether `bucket` admits a packet of `bytes` at `now`.
fn admits(bucket: &Option<TokenBucket>, now: u64, bytes: u32) -> bool {
    bucket.as_ref().is_none_or(|b| b.conforms(now, bytes))
}

/// Earliest instant `>= after` at which `bucket` admits `bytes`.
fn admits_from(bucket: &Option<TokenBucket>, after: u64, bytes: u32) -> u64 {
    bucket
        .as_ref()
        .map_or(after, |b| b.next_conforming(after, bytes))
}

/// Apply `f` to a live counter. The tree is its counters' only writer —
/// every update goes through `&mut ShapingTree` — so a load and a store
/// are exact, without the locked read-modify-write of `fetch_add`.
fn update(counter: &AtomicU64, f: impl FnOnce(u64) -> u64) {
    counter.store(f(counter.load(Ordering::Relaxed)), Ordering::Relaxed);
}

/// Charge `bucket` for a packet of `bytes` sent at `at`.
fn charge(bucket: &mut Option<TokenBucket>, at: u64, bytes: u32) {
    if let Some(b) = bucket {
        b.consume(at, bytes);
    }
}

struct Entry<T> {
    payload: T,
    bytes: u32,
    ecn_capable: bool,
    enqueued_at: u64,
}

/// A leaf: per-class FIFOs behind one CoDel instance.
struct Leaf<T> {
    node: NodeIdx,
    queues: [VecDeque<Entry<T>>; CLASS_COUNT],
    /// Bit `c` set exactly when `queues[c]` is non-empty.
    backlogged: u8,
    codel: CoDel,
    /// DRR byte deficit; non-zero exactly when the leaf is in
    /// [`ShapingTree::owed`].
    deficit: u64,
    /// DRR byte quantum.
    quantum: u64,
    /// Per-class FIFO depth in packets.
    cap: usize,
    /// Packets accepted, and arrivals refused at a full FIFO. Every
    /// other per-leaf count follows from these two and the node's
    /// [`SharedStats`] (see [`ShapingTree::class_stats`]).
    enqueued: u64,
    tail_dropped: u64,
}

impl<T> Leaf<T> {
    fn new(node: NodeIdx, quantum: u64, cap: usize, codel: CoDel) -> Leaf<T> {
        Leaf {
            node,
            queues: std::array::from_fn(|_| VecDeque::new()),
            backlogged: 0,
            codel,
            deficit: 0,
            quantum,
            cap,
            enqueued: 0,
            tail_dropped: 0,
        }
    }

    /// Class index of the head-of-line packet: strict priority across
    /// the per-class FIFOs (Control first), FIFO within a class.
    fn head_class(&self) -> Option<usize> {
        (self.backlogged != 0).then(|| self.backlogged.trailing_zeros() as usize)
    }

    fn head_bytes(&self) -> Option<u32> {
        self.head_class().map(|c| self.queues[c][0].bytes)
    }
}

/// DRR byte quantum for a leaf assured `assured_bps`: HTB's `r2q`
/// heuristic (`rate in bytes/s ÷ r2q`, r2q = 10) with a one-MTU floor,
/// so surplus splits in proportion to the assured rates — a 4 Mbit
/// plan gets 4× the bytes per round of a 1 Mbit plan.
fn quantum_for(assured_bps: u64) -> u64 {
    (assured_bps / 8 / 10).max(1_514)
}

/// A set of leaf table indices: a bitmap under summary levels (bit `i`
/// of level `k + 1` says word `i` of level `k` is non-zero), so the
/// next member at or after a position is found by climbing to the
/// first level that shows one and descending by `trailing_zeros` —
/// O(log₆₄ leaves) however far away it lies.
struct LeafSet {
    levels: Vec<Vec<u64>>,
}

impl LeafSet {
    fn new(leaves: usize) -> LeafSet {
        let mut levels = Vec::new();
        let mut bits = leaves;
        loop {
            let words = bits.div_ceil(64);
            levels.push(vec![0u64; words]);
            if words == 1 {
                return LeafSet { levels };
            }
            bits = words;
        }
    }

    fn insert(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i >> 6];
            let was_empty = *word == 0;
            *word |= 1 << (i & 63);
            if !was_empty {
                break;
            }
            i >>= 6;
        }
    }

    fn remove(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i >> 6];
            *word &= !(1 << (i & 63));
            if *word != 0 {
                break;
            }
            i >>= 6;
        }
    }

    /// Smallest member in `from..end`.
    fn next_in(&self, from: usize, end: usize) -> Option<usize> {
        let mut pos = from;
        for (k, level) in self.levels.iter().enumerate() {
            let word = *level.get(pos >> 6)?;
            let hit = word & (!0u64 << (pos & 63));
            if hit != 0 {
                let mut i = (pos & !63) | hit.trailing_zeros() as usize;
                for lower in self.levels[..k].iter().rev() {
                    i = (i << 6) | lower[i].trailing_zeros() as usize;
                }
                return (i < end).then_some(i);
            }
            // Nothing left in this word: look among the later words.
            pos = (pos >> 6) + 1;
        }
        None
    }
}

/// Indexed binary min-heap of `(key, leaf)` entries, sized for every
/// leaf at construction so filing one never allocates; `slot` finds a
/// leaf's entry for re-keying and removal.
struct LeafHeap {
    heap: Vec<(u64, u32)>,
    /// Heap position of each leaf's entry, [`UNFILED`] when it has none.
    slot: Vec<u32>,
}

const UNFILED: u32 = u32::MAX;

impl LeafHeap {
    fn new(leaves: usize) -> LeafHeap {
        LeafHeap {
            heap: Vec::with_capacity(leaves),
            slot: vec![UNFILED; leaves],
        }
    }

    /// The entry with the smallest key, as `(key, leaf)`.
    fn peek(&self) -> Option<(u64, usize)> {
        self.heap.first().map(|&(key, leaf)| (key, leaf as usize))
    }

    /// File `leaf` under `key`, replacing the key it had, if any.
    fn set(&mut self, leaf: usize, key: u64) {
        let at = match self.slot[leaf] {
            UNFILED => {
                self.heap.push((key, leaf as u32));
                self.heap.len() - 1
            }
            at => at as usize,
        };
        self.settle(at, (key, leaf as u32));
    }

    /// Drop `leaf`'s entry, if it has one.
    fn remove(&mut self, leaf: usize) {
        let at = self.slot[leaf];
        if at == UNFILED {
            return;
        }
        self.slot[leaf] = UNFILED;
        let last = self.heap.pop().expect("a filed leaf has an entry");
        if (at as usize) < self.heap.len() {
            self.settle(at as usize, last);
        }
    }

    /// Store `entry` starting from position `at`, whose content is
    /// dead, moving it up or down until heap order holds again.
    fn settle(&mut self, mut at: usize, entry: (u64, u32)) {
        while at > 0 && entry < self.heap[(at - 1) / 2] {
            self.place(at, self.heap[(at - 1) / 2]);
            at = (at - 1) / 2;
        }
        loop {
            let mut child = 2 * at + 1;
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if child >= self.heap.len() || entry <= self.heap[child] {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, entry);
    }

    fn place(&mut self, at: usize, entry: (u64, u32)) {
        self.heap[at] = entry;
        self.slot[entry.1 as usize] = at as u32;
    }
}

#[cfg(test)]
thread_local! {
    /// Leaf → root path evaluations made on this thread.
    static PATH_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one leaf → root path evaluation; the work-bound test reads
/// the total, other builds compile this to nothing.
fn count_path_eval() {
    #[cfg(test)]
    PATH_EVALS.with(|n| n.set(n.get() + 1));
}

/// The compiled shaping tree. See the crate docs for the model. It is
/// driven as a link drives its egress queue — `enqueue` at arrival,
/// `dequeue` whenever the wire is free, reschedule at `next_at` when
/// nothing conforms.
pub struct ShapingTree<T> {
    class_map: ClassMap,
    nodes: Vec<Node>,
    leaves: Vec<Leaf<T>>,
    /// Destination node id → leaf table index.
    dst_map: BTreeMap<u32, usize>,
    /// Leaf table index serving each class for destinations no
    /// subscriber leaf is bound to: a [`TreeSpec`]'s one default leaf
    /// four times, or a class tree's four class leaves.
    default_leaves: [usize; CLASS_COUNT],
    /// Compiled from a [`qdisc::QdiscConfig`]: leaf `i` is class `i`.
    by_class: bool,
    /// DRR position over the leaf table.
    cursor: usize,
    /// Whether the cursor's leaf already received its quantum this
    /// visit.
    granted: bool,
    /// Backlogged leaves whose own ceiling admitted their head packet
    /// when they were last filed: a superset of the eligible leaves.
    ready: LeafSet,
    /// The `ready` leaves keyed by head packet size.
    ready_heads: LeafHeap,
    /// Every other backlogged leaf, keyed by the instant its own
    /// ceiling will admit its head packet.
    waiting: LeafHeap,
    /// Leaves holding a non-zero DRR deficit.
    owed: LeafSet,
    shared: TreeStatsHandle,
}

impl<T> ShapingTree<T> {
    /// Compile `spec` into a runnable tree with full buckets and empty
    /// queues.
    pub fn new(spec: TreeSpec) -> ShapingTree<T> {
        let burst = spec.burst_bytes;
        let mut nodes = Vec::with_capacity(spec.nodes.len());
        let mut leaves = Vec::new();
        let mut dst_map = BTreeMap::new();
        let mut default_leaf = None;
        for (idx, n) in spec.nodes.iter().enumerate() {
            if let NodeKind::Leaf(dst) = n.kind {
                match dst {
                    Some(d) => {
                        dst_map.insert(d, leaves.len());
                    }
                    None => default_leaf = Some(leaves.len()),
                }
                leaves.push(Leaf::new(
                    idx,
                    quantum_for(n.assured_bps),
                    spec.leaf_queue_cap_pkts,
                    CoDel::new(spec.codel_target_us, spec.codel_interval_us),
                ));
            }
            nodes.push(Node {
                rate: bucket(n.assured_bps, burst),
                ceil: bucket(n.ceil_bps, burst),
                parent: n.parent,
            });
        }
        let default_leaf = default_leaf.expect("spec always carries the default leaf");
        ShapingTree::assemble(
            spec.class_map,
            nodes,
            leaves,
            dst_map,
            [default_leaf; CLASS_COUNT],
        )
    }

    /// A tree over compiled nodes and leaves, with empty queues and an
    /// empty scheduler index.
    fn assemble(
        class_map: ClassMap,
        nodes: Vec<Node>,
        leaves: Vec<Leaf<T>>,
        dst_map: BTreeMap<u32, usize>,
        default_leaves: [usize; CLASS_COUNT],
    ) -> ShapingTree<T> {
        let bps = |b: &Option<TokenBucket>| b.as_ref().map_or(0, TokenBucket::rate_bps);
        let shared = Arc::new(TreeShared {
            nodes: nodes.iter().map(|_| SharedStats::default()).collect(),
            rates: nodes.iter().map(|n| (bps(&n.rate), bps(&n.ceil))).collect(),
        });
        ShapingTree {
            class_map,
            nodes,
            dst_map,
            // A `TreeSpec`'s one default leaf serves every class.
            by_class: default_leaves[0] != default_leaves[1],
            default_leaves,
            cursor: 0,
            granted: false,
            ready: LeafSet::new(leaves.len()),
            ready_heads: LeafHeap::new(leaves.len()),
            waiting: LeafHeap::new(leaves.len()),
            owed: LeafSet::new(leaves.len()),
            leaves,
            shared,
        }
    }

    /// Handle to the live per-node counters (for SNMP instrumentation).
    pub fn shared_stats(&self) -> TreeStatsHandle {
        Arc::clone(&self.shared)
    }

    /// The tree node whose leaf carries traffic for destination `dst`
    /// (the default leaf when `dst` is not bound to a subscriber).
    pub fn leaf_for_dst(&self, dst: u32) -> NodeIdx {
        let li = self.dst_map.get(&dst).copied();
        self.leaves[li.unwrap_or(self.default_leaves[0])].node
    }

    /// Total packets currently queued across all leaves.
    pub fn backlog_pkts(&self) -> usize {
        self.shared.nodes[ROOT].backlog_pkts.load(Ordering::Relaxed) as usize
    }

    /// Walk `idx` → root applying `f` to every node on the path
    /// (including both endpoints).
    fn for_path(&self, idx: NodeIdx, mut f: impl FnMut(&SharedStats)) {
        let mut at = idx;
        loop {
            f(&self.shared.nodes[at]);
            if at == ROOT {
                break;
            }
            at = self.nodes[at].parent;
        }
    }

    /// Offer a packet of `bytes` wire bytes for destination node `dst`
    /// on destination `port` at instant `now_us`: the subscriber leaf
    /// bound to `dst`, else the default leaf for the port's class.
    /// Bounded per-class FIFO at the leaf: overflow hands the payload
    /// back.
    pub fn enqueue(
        &mut self,
        now_us: u64,
        dst: u32,
        port: u16,
        bytes: u32,
        ecn_capable: bool,
        payload: T,
    ) -> EnqueueOutcome<T> {
        let class = self.class_map.classify(port).index();
        let li = self.dst_map.get(&dst).copied();
        let li = li.unwrap_or(self.default_leaves[class]);
        self.push(li, class, now_us, bytes, ecn_capable, payload)
    }

    /// Queue a packet in leaf `li`'s FIFO for class index `class`.
    fn push(
        &mut self,
        li: usize,
        class: usize,
        now_us: u64,
        bytes: u32,
        ecn_capable: bool,
        payload: T,
    ) -> EnqueueOutcome<T> {
        let leaf = &mut self.leaves[li];
        let node = leaf.node;
        if leaf.queues[class].len() >= leaf.cap {
            leaf.tail_dropped += 1;
            self.for_path(node, |s| {
                update(&s.drops, |n| n + 1);
            });
            return EnqueueOutcome::TailDropped(payload);
        }
        leaf.enqueued += 1;
        let becomes_head = leaf.head_class().is_none_or(|head| class < head);
        leaf.backlogged |= 1 << class;
        leaf.queues[class].push_back(Entry {
            payload,
            bytes,
            ecn_capable,
            enqueued_at: now_us,
        });
        if becomes_head {
            self.refile(li, now_us);
        }
        self.for_path(node, |s| {
            update(&s.backlog_bytes, |n| n + bytes as u64);
            update(&s.backlog_pkts, |n| n + 1);
        });
        EnqueueOutcome::Queued
    }

    /// File leaf `li` after its head packet or its own ceiling bucket
    /// changed at `now`: under `ready` when that ceiling admits the
    /// head, else under `waiting` by the instant it will. The instant
    /// stands until the next such change (crate docs), and every one
    /// of them comes through here.
    fn refile(&mut self, li: usize, now: u64) {
        let leaf = &self.leaves[li];
        let Some(bytes) = leaf.head_bytes() else {
            self.ready.remove(li);
            self.ready_heads.remove(li);
            self.waiting.remove(li);
            return;
        };
        let due = admits_from(&self.nodes[leaf.node].ceil, now, bytes);
        if due <= now {
            self.waiting.remove(li);
            self.ready.insert(li);
            self.ready_heads.set(li, bytes as u64);
        } else {
            self.ready.remove(li);
            self.ready_heads.remove(li);
            self.waiting.set(li, due);
        }
    }

    /// Move every waiting leaf whose instant has come to `ready`.
    fn promote(&mut self, now: u64) {
        while let Some((due, li)) = self.waiting.peek() {
            if due > now {
                break;
            }
            self.refile(li, now);
        }
    }

    /// The node that would pay assured-rate tokens for leaf `li`'s
    /// head packet if it were released at `now`: the first node on the
    /// leaf → root path whose rate bucket conforms (self first —
    /// borrow only when own tokens are spent). `None` when the packet
    /// cannot go: some ceiling on the path refuses it, or every
    /// ancestor is dry too.
    fn payer_if_eligible(&self, li: usize, now: u64) -> Option<NodeIdx> {
        count_path_eval();
        let bytes = self.leaves[li].head_bytes()?;
        let mut payer = None;
        let mut at = self.leaves[li].node;
        loop {
            let node = &self.nodes[at];
            if !admits(&node.ceil, now, bytes) {
                return None;
            }
            if payer.is_none() && admits(&node.rate, now, bytes) {
                payer = Some(at);
            }
            if at == ROOT {
                return payer;
            }
            at = node.parent;
        }
    }

    /// Earliest instant `>= after` at which backlogged leaf `li`'s
    /// head packet becomes eligible. Exact: ceiling conformance needs
    /// *all* path buckets (latest of their thresholds), a payer needs
    /// *any* rate bucket (earliest), and both thresholds are sharp
    /// because tokens only grow until the next consume.
    fn ready_time(&self, li: usize, after: u64) -> u64 {
        count_path_eval();
        let bytes = self.leaves[li]
            .head_bytes()
            .expect("filed leaves are backlogged");
        let mut ceil_at = after;
        let mut payer_at = u64::MAX;
        let mut at = self.leaves[li].node;
        loop {
            let node = &self.nodes[at];
            ceil_at = ceil_at.max(admits_from(&node.ceil, after, bytes));
            payer_at = payer_at.min(admits_from(&node.rate, after, bytes));
            if at == ROOT {
                return ceil_at.max(payer_at);
            }
            at = node.parent;
        }
    }

    /// Lower `best` to the earliest [`ready_time`](Self::ready_time)
    /// among the leaves filed in `heap` at or below position `at`,
    /// where `floor(key)` bounds a leaf's ready time from below and
    /// does not fall as the key grows: heap order then lets a whole
    /// branch go unvisited once its top cannot beat `best`, and a
    /// branch whose parent's floor cannot, unpriced.
    fn earliest_in(
        &self,
        heap: &LeafHeap,
        at: usize,
        after: u64,
        floor: &impl Fn(u64) -> u64,
        best: &mut u64,
    ) {
        let Some(&(key, li)) = heap.heap.get(at) else {
            return;
        };
        let lowest = floor(key);
        if lowest >= *best {
            return;
        }
        *best = (*best).min(self.ready_time(li as usize, after));
        for child in [2 * at + 1, 2 * at + 2] {
            if lowest < *best {
                self.earliest_in(heap, child, after, floor, best);
            }
        }
    }

    /// Earliest instant `>= after_us` at which some leaf's head packet
    /// becomes eligible, or `None` when every queue is empty; `after_us`
    /// must not precede the last `dequeue` (crate docs). Exact, yet it
    /// looks only at leaves that could be the answer: a waiting leaf
    /// cannot go before its key, a ready one not before the root
    /// ceiling admits a packet of its head's size.
    pub fn next_ready(&self, after_us: u64) -> Option<u64> {
        let mut best = u64::MAX;
        let root = &self.nodes[ROOT].ceil;
        let root_admits = |bytes: u64| admits_from(root, after_us, bytes as u32);
        let own_admits = |due: u64| due.max(after_us);
        self.earliest_in(&self.ready_heads, 0, after_us, &root_admits, &mut best);
        self.earliest_in(&self.waiting, 0, after_us, &own_admits, &mut best);
        (best != u64::MAX).then_some(best)
    }

    /// The leaf table as one or two index ranges: `from`, cyclically,
    /// up to but excluding `to` (the whole table when they coincide).
    fn cyclic(&self, from: usize, to: usize) -> [(usize, usize); 2] {
        if from < to {
            [(from, to), (0, 0)]
        } else {
            [(from, self.leaves.len()), (0, to)]
        }
    }

    /// The first leaf, cyclically from the cursor, whose head packet
    /// can be released at `now`, with the node that pays for it.
    fn first_eligible(&self, now: u64) -> Option<(usize, NodeIdx)> {
        // Root gate: every path ends at the root ceiling, and a bucket
        // that refuses a size refuses every larger one.
        let (smallest, _) = self.ready_heads.peek()?;
        if !admits(&self.nodes[ROOT].ceil, now, smallest as u32) {
            return None;
        }
        for (lo, hi) in self.cyclic(self.cursor, self.cursor) {
            let mut at = lo;
            while let Some(li) = self.ready.next_in(at, hi) {
                if let Some(payer) = self.payer_if_eligible(li, now) {
                    return Some((li, payer));
                }
                at = li + 1;
            }
        }
        None
    }

    fn set_deficit(&mut self, li: usize, deficit: u64) {
        self.leaves[li].deficit = deficit;
        if deficit > 0 {
            self.owed.insert(li);
        } else {
            self.owed.remove(li);
        }
    }

    fn advance_cursor(&mut self) {
        self.cursor = (self.cursor + 1) % self.leaves.len();
        self.granted = false;
    }

    /// Run the scheduler at instant `now_us` and release at most one
    /// packet. CoDel may additionally drop non-ECT packets on the way;
    /// they are returned for accounting. When nothing is eligible the
    /// outcome carries `next_at` so the caller can reschedule.
    pub fn dequeue(&mut self, now_us: u64) -> DequeueOutcome<T> {
        let mut aqm_dropped = Vec::new();
        self.promote(now_us);
        loop {
            let Some((li, payer)) = self.first_eligible(now_us) else {
                return DequeueOutcome {
                    released: None,
                    aqm_dropped,
                    next_at: self.next_ready(now_us),
                };
            };
            if li != self.cursor {
                // Every leaf the cursor passes on its way to `li` is
                // empty, ceiling-blocked or on a path out of assured
                // tokens: it forfeits its deficit and the others run.
                for (lo, hi) in self.cyclic(self.cursor, li) {
                    let mut at = lo;
                    while let Some(passed) = self.owed.next_in(at, hi) {
                        self.set_deficit(passed, 0);
                        at = passed + 1;
                    }
                }
                self.cursor = li;
                self.granted = false;
            }
            if !self.granted {
                self.set_deficit(li, self.leaves[li].deficit + self.leaves[li].quantum);
                self.granted = true;
            }
            let class = self.leaves[li].head_class().expect("non-empty");
            let head_bytes = self.leaves[li].queues[class][0].bytes as u64;
            if self.leaves[li].deficit < head_bytes {
                // Share spent for this round.
                self.advance_cursor();
                continue;
            }
            let leaf = &mut self.leaves[li];
            let entry = leaf.queues[class].pop_front().expect("non-empty");
            if leaf.queues[class].is_empty() {
                leaf.backlogged &= !(1 << class);
            }
            self.set_deficit(li, self.leaves[li].deficit - head_bytes);
            let sojourn = now_us.saturating_sub(entry.enqueued_at);
            let signal = self.leaves[li].codel.on_dequeue(now_us, sojourn);
            let dropped = signal && !entry.ecn_capable;
            // One walk up the path settles the packet: it leaves the
            // backlog, and unless CoDel drops it, it is charged to
            // every ceiling and counted as sent.
            let bits = entry.bytes as u64 * 8;
            let node = self.leaves[li].node;
            let mut at = node;
            loop {
                let s = &self.shared.nodes[at];
                update(&s.backlog_bytes, |n| n - entry.bytes as u64);
                update(&s.backlog_pkts, |n| n - 1);
                if dropped {
                    update(&s.drops, |n| n + 1);
                } else {
                    if signal {
                        update(&s.ecn_marks, |n| n + 1);
                    }
                    charge(&mut self.nodes[at].ceil, now_us, entry.bytes);
                    update(&s.bits_sent, |n| n + bits);
                }
                if at == ROOT {
                    break;
                }
                at = self.nodes[at].parent;
            }
            if dropped {
                self.refile(li, now_us);
                aqm_dropped.push((TrafficClass::ALL[class], entry.payload));
                continue;
            }
            // The payer's assured-rate bucket funds the send; a payer
            // above the leaf means the leaf ran on borrowed tokens.
            charge(&mut self.nodes[payer].rate, now_us, entry.bytes);
            if payer != node {
                update(&self.shared.nodes[node].borrowed_bits, |n| n + bits);
            }
            self.refile(li, now_us);
            if self.leaves[li].head_class().is_none() {
                self.set_deficit(li, 0);
                self.advance_cursor();
            }
            return DequeueOutcome {
                released: Some(Released {
                    payload: entry.payload,
                    class: TrafficClass::ALL[class],
                    bytes: entry.bytes,
                    ecn_marked: signal,
                    sojourn_us: sojourn,
                }),
                aqm_dropped,
                next_at: None,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 Mbit/s uplink (1 byte/µs), one site, one AP, two subscribers.
    fn two_sub_spec() -> (TreeSpec, NodeIdx, NodeIdx) {
        let mut spec = TreeSpec::new(8_000_000);
        let site = spec.add_site("site-0", 8_000_000, 8_000_000);
        let ap = spec.add_ap(site, "ap-0", 8_000_000, 8_000_000);
        let gold = RatePlan::new("gold", 4_000_000, 8_000_000);
        let bronze = RatePlan::new("bronze", 1_000_000, 2_000_000);
        let a = spec.add_subscriber(ap, "sub-a", &gold, 100);
        let b = spec.add_subscriber(ap, "sub-b", &bronze, 101);
        (spec, a, b)
    }

    #[test]
    fn spec_builds_expected_shape() {
        let (spec, a, b) = two_sub_spec();
        assert_eq!(spec.node_count(), 6, "root + default + site + ap + 2 subs");
        assert_eq!(spec.subscriber_count(), 2);
        assert_eq!(spec.node_name(ROOT), "uplink");
        assert_eq!(spec.node_name(DEFAULT_LEAF), "default");
        assert_eq!(spec.node_parent(a), spec.node_parent(b));
        assert_eq!(spec.node_assured_bps(a), 4_000_000);
        assert_eq!(spec.node_ceil_bps(b), 2_000_000);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_destination_rejected() {
        let (mut spec, _, _) = two_sub_spec();
        let plan = RatePlan::new("dup", 1_000_000, 1_000_000);
        spec.add_subscriber(ROOT, "dup", &plan, 100);
    }

    #[test]
    #[should_panic(expected = "under a subscriber leaf")]
    fn cannot_nest_under_leaf() {
        let (mut spec, a, _) = two_sub_spec();
        spec.add_ap(a, "bad", 1_000, 1_000);
    }

    #[test]
    fn unmatched_destination_rides_the_default_leaf() {
        let (spec, _, _) = two_sub_spec();
        let tree: ShapingTree<u32> = ShapingTree::new(spec);
        assert_eq!(tree.leaf_for_dst(100), 4);
        assert_eq!(tree.leaf_for_dst(9999), DEFAULT_LEAF);
    }

    #[test]
    fn fifo_within_a_leaf_and_strict_priority_between_classes() {
        let (spec, _, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        // Background first, then control: control must come out first.
        tree.enqueue(0, 100, 9_999, 100, false, 1);
        tree.enqueue(0, 100, 9_999, 100, false, 2);
        tree.enqueue(0, 100, 161, 100, false, 3);
        let order: Vec<u32> = (0..3)
            .map(|_| tree.dequeue(0).released.unwrap().payload)
            .collect();
        assert_eq!(order, vec![3, 1, 2], "control preempts background");
    }

    #[test]
    fn ceiling_paces_a_lone_subscriber() {
        // bronze: ceil 2 Mbit/s = 0.25 byte/µs, burst 3000 B.
        let (spec, _, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        for n in 0..10 {
            tree.enqueue(0, 101, 5004, 1_500, false, n);
        }
        // Two packets ride the burst; the third waits for ceiling
        // tokens even though assured + ancestors have plenty.
        assert!(tree.dequeue(0).released.is_some());
        assert!(tree.dequeue(0).released.is_some());
        let out = tree.dequeue(0);
        assert!(out.released.is_none());
        // 1500 B = 12_000 bits at 2 Mbit/s = 6_000 µs.
        assert_eq!(out.next_at, Some(6_000));
        assert!(tree.dequeue(5_999).released.is_none());
        assert!(tree.dequeue(6_000).released.is_some());
    }

    #[test]
    fn leaf_borrows_parent_surplus_and_ledger_records_it() {
        let (spec, a, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        let stats = tree.shared_stats();
        // Gold assures 4 Mbit/s but ceils at the full 8 Mbit/s uplink:
        // once its own bucket is dry it borrows from the AP upward.
        for n in 0..40 {
            tree.enqueue(0, 100, 5004, 1_500, false, n);
        }
        let mut t = 0u64;
        let mut sent = 0u64;
        while sent < 30 {
            let out = tree.dequeue(t);
            match out.released {
                Some(_) => sent += 1,
                None => t = out.next_at.expect("backlogged"),
            }
        }
        // 30 × 12_000 bits at ≤ 8 Mbit/s needs ≥ (360_000 − burst) / 8.
        assert!(t >= 42_000, "ceiling respected: t={t}");
        assert!(
            stats.borrowed_bits(a) > 0,
            "gold ran past its assured rate on borrowed tokens"
        );
        assert_eq!(stats.borrowed_bits(ROOT), 0, "root never borrows");
        assert_eq!(stats.bits_sent(ROOT), 30 * 12_000, "root sees all sends");
    }

    #[test]
    fn drr_splits_surplus_by_assured_rate() {
        // Both subscribers ceil at the uplink; gold assures 4×
        // bronze's rate, so a fully backlogged round should serve
        // roughly 4 gold bytes per bronze byte.
        let mut spec = TreeSpec::new(8_000_000);
        let ap = spec.add_ap(ROOT, "ap", 8_000_000, 8_000_000);
        let gold = RatePlan::new("gold", 4_000_000, 8_000_000);
        let bronze = RatePlan::new("bronze", 1_000_000, 8_000_000);
        let a = spec.add_subscriber(ap, "a", &gold, 1);
        let b = spec.add_subscriber(ap, "b", &bronze, 2);
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        for n in 0..600 {
            tree.enqueue(0, 1, 5004, 1_000, true, n);
            tree.enqueue(0, 2, 5004, 1_000, true, n);
        }
        let mut t = 0u64;
        for _ in 0..400 {
            let out = tree.dequeue(t);
            if out.released.is_none() {
                t = out.next_at.expect("backlogged");
            }
        }
        let stats = tree.shared_stats();
        let (sa, sb) = (stats.bits_sent(a) as f64, stats.bits_sent(b) as f64);
        let ratio = sa / sb;
        assert!(
            (2.5..6.0).contains(&ratio),
            "gold:bronze service ratio {ratio:.2}, want ~4"
        );
    }

    #[test]
    fn tail_drop_hands_back_payload_and_counts_on_path() {
        let (spec, a, _) = two_sub_spec();
        let spec = spec.with_leaf_queue_cap(2);
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        assert!(matches!(
            tree.enqueue(0, 100, 5004, 100, false, 1),
            EnqueueOutcome::Queued
        ));
        assert!(matches!(
            tree.enqueue(0, 100, 5004, 100, false, 2),
            EnqueueOutcome::Queued
        ));
        match tree.enqueue(0, 100, 5004, 100, false, 3) {
            EnqueueOutcome::TailDropped(p) => assert_eq!(p, 3),
            EnqueueOutcome::Queued => panic!("expected tail drop"),
        }
        let stats = tree.shared_stats();
        assert_eq!(stats.drops(a), 1);
        assert_eq!(stats.drops(ROOT), 1, "drops aggregate to the root");
        assert_eq!(stats.backlog_bytes(ROOT), 200);
    }

    #[test]
    fn codel_marks_ect_and_drops_non_ect_per_subscriber() {
        let (spec, a, b) = two_sub_spec();
        let spec = spec.with_codel(1_000, 2_000);
        let mut tree: ShapingTree<&'static str> = ShapingTree::new(spec);
        // Only subscriber A is congested; B sends one packet late.
        for n in 0..30 {
            tree.enqueue(
                0,
                100,
                5004,
                1_000,
                n % 2 == 0,
                if n % 2 == 0 { "ect" } else { "not" },
            );
        }
        tree.enqueue(149_000, 101, 5004, 1_000, true, "b");
        let mut marked = 0;
        let mut dropped = 0;
        let mut t = 150_000;
        loop {
            let out = tree.dequeue(t);
            dropped += out.aqm_dropped.len();
            match out.released {
                Some(rel) => {
                    if rel.ecn_marked {
                        assert_eq!(rel.payload, "ect", "only ECT packets are marked");
                        marked += 1;
                    }
                }
                None => match out.next_at {
                    Some(at) => t = at.max(t + 500),
                    None => break,
                },
            }
        }
        assert!(marked >= 1, "expected ECN marks, got {marked}");
        assert!(dropped >= 1, "expected non-ECT AQM drops, got {dropped}");
        let stats = tree.shared_stats();
        assert_eq!(stats.ecn_marks(a), marked as u64);
        assert_eq!(
            stats.ecn_marks(b),
            0,
            "B's fresh queue shares no CoDel state with A"
        );
        assert_eq!(stats.drops(a), dropped as u64);
    }

    #[test]
    fn deterministic_schedule() {
        let run = || {
            let (spec, _, _) = two_sub_spec();
            let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
            let mut trace = Vec::new();
            for n in 0..80u32 {
                let dst = if n % 3 == 0 { 100 } else { 101 };
                let port = if n % 5 == 0 { 161 } else { 5004 };
                tree.enqueue(
                    (n as u64) * 120,
                    dst,
                    port,
                    400 + (n % 7) * 90,
                    n % 2 == 0,
                    n,
                );
            }
            let mut t = 0u64;
            for _ in 0..400 {
                let out = tree.dequeue(t);
                if let Some(rel) = out.released {
                    trace.push((t, rel.payload, rel.class, rel.ecn_marked));
                    t += 80;
                } else {
                    match out.next_at {
                        Some(at) => t = at.max(t + 1),
                        None => break,
                    }
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn leaf_set_finds_the_next_member_across_levels() {
        // 300 000 leaves need four levels; members sit words, summary
        // words and summary-of-summary words apart.
        let members = [
            0usize, 1, 63, 64, 4_095, 4_096, 70_000, 262_143, 262_144, 299_999,
        ];
        let mut set = LeafSet::new(300_000);
        for &m in &members {
            set.insert(m);
        }
        for (k, &m) in members.iter().enumerate() {
            assert_eq!(set.next_in(m, 300_000), Some(m));
            let next = members.get(k + 1).copied();
            assert_eq!(set.next_in(m + 1, 300_000), next, "after {m}");
            assert_eq!(
                set.next_in(m + 1, next.unwrap_or(0)),
                None,
                "end is exclusive"
            );
        }
        for &m in &members[..9] {
            set.remove(m);
        }
        assert_eq!(set.next_in(0, 300_000), Some(299_999));
        set.remove(299_999);
        assert_eq!(set.next_in(0, 300_000), None);
    }

    #[test]
    fn leaf_heap_rekeys_and_removes_in_place() {
        let mut heap = LeafHeap::new(8);
        for (leaf, key) in [(0, 50), (1, 20), (2, 40), (3, 20), (4, 70)] {
            heap.set(leaf, key);
        }
        assert_eq!(heap.peek(), Some((20, 1)), "ties break by leaf index");
        heap.set(1, 90);
        assert_eq!(heap.peek(), Some((20, 3)));
        heap.remove(3);
        heap.remove(3);
        heap.set(4, 10);
        let mut order = Vec::new();
        while let Some((key, leaf)) = heap.peek() {
            order.push((key, leaf));
            heap.remove(leaf);
        }
        assert_eq!(order, vec![(10, 4), (40, 2), (50, 0), (90, 1)]);
        assert!(heap.slot.iter().all(|&s| s == UNFILED));
    }

    /// `leaves` subscribers on one AP, all on a 100 kbit/s assured,
    /// 1 Mbit/s ceiling plan, each with a standing backlog; the uplink
    /// carries `uplink_per_leaf` bits per second for each of them.
    fn backlogged_tree(leaves: usize, uplink_per_leaf: u64) -> ShapingTree<u32> {
        let uplink = leaves as u64 * uplink_per_leaf;
        let mut spec = TreeSpec::new(uplink);
        let ap = spec.add_ap(ROOT, "ap", uplink, uplink);
        let plan = RatePlan::new("plan", 100_000, 1_000_000);
        for i in 0..leaves {
            spec.add_subscriber(ap, "sub", &plan, i as u32);
        }
        let mut tree = ShapingTree::new(spec);
        for n in 0..16 {
            for i in 0..leaves {
                tree.enqueue(0, i as u32, 5004, 1_000, true, n);
            }
        }
        tree
    }

    /// Mean leaf → root path evaluations per `dequeue` while a link
    /// drains `tree`: serve what is eligible, sleep until `next_at`.
    fn path_evals_per_dequeue(mut tree: ShapingTree<u32>, dequeues: u64) -> f64 {
        let before = PATH_EVALS.get();
        let mut t = 0;
        let mut released = 0;
        for _ in 0..dequeues {
            let out = tree.dequeue(t);
            match out.released {
                Some(_) => released += 1,
                None => t = out.next_at.expect("backlogged"),
            }
        }
        assert!(released * 3 >= dequeues, "the drain mostly releases");
        (PATH_EVALS.get() - before) as f64 / dequeues as f64
    }

    /// "Flat in the number of leaves", free of host noise: the work a
    /// `dequeue` does is counted in path evaluations, and sixty-four
    /// times the leaves may not double it, in either regime the index
    /// is built for.
    #[test]
    fn work_per_dequeue_does_not_grow_with_leaves() {
        // Every leaf held by its own ceiling: the uplink has ten times
        // the sum of the ceilings. Then every leaf held by the root:
        // the uplink has a tenth of that sum.
        for (regime, uplink_per_leaf) in
            [("ceiling-bound", 10_000_000), ("root-saturated", 100_000)]
        {
            let few = path_evals_per_dequeue(backlogged_tree(64, uplink_per_leaf), 64 * 12);
            let many = path_evals_per_dequeue(backlogged_tree(4_096, uplink_per_leaf), 4_096 * 12);
            assert!(many <= 2.0 * few, "{regime}: {few:.2} -> {many:.2}");
            assert!(
                many <= 4.0,
                "{regime}: {many:.2} path evaluations per dequeue"
            );
        }
    }

    #[test]
    fn backlog_gauges_follow_the_queues() {
        let (spec, a, _) = two_sub_spec();
        let mut tree: ShapingTree<u32> = ShapingTree::new(spec);
        let stats = tree.shared_stats();
        tree.enqueue(0, 100, 5004, 700, false, 0);
        assert_eq!(stats.backlog_bytes(a), 700);
        assert_eq!(stats.backlog_bytes(ROOT), 700);
        assert_eq!(tree.backlog_pkts(), 1);
        tree.dequeue(0);
        assert_eq!(stats.backlog_bytes(ROOT), 0);
        assert_eq!(tree.backlog_pkts(), 0);
    }
}
