//! The network simulator core: sockets, datagram transmission,
//! multicast groups, timers, and the event loop.
//!
//! All hot-path state is slab-allocated and indexed by dense `u32`
//! ids: sockets live in one `Vec`, `(node, port)` resolution goes
//! through per-node sorted port tables, multicast groups keep explicit
//! member lists (sorted by socket index, so fan-out order — and hence
//! the RNG draw order of per-copy loss rolls — is identical to the
//! historical all-sockets scan), and each link's egress slot sits in a
//! `Vec` indexed by link id. Nothing on the delivery path iterates a
//! hash map, so iteration order can never silently reorder RNG draws
//! between runs or builds.
//!
//! A datagram takes one path: `send` and `send_batch` enter the same
//! core, which routes once per receiver and launches every copy as an
//! `InFlight` on `Network::advance_flight`, the only link walk. A
//! link has one egress slot: empty, the walk crosses it as the plain
//! analytic FIFO; mounted, it holds the flat class plane of
//! `crates/qdisc` or the shaping tree of `crates/htb`, and the walk
//! suspends in its queues. Both disciplines are driven by the same
//! calls (arrival → `enqueue` → `next_ready`; service → `dequeue` →
//! `next_ready`), so one service event and one enqueue / kick / service
//! path serve whichever the caller mounted.

use crate::faults::{FaultAction, FaultPlan};
use crate::packet::{Port, WirePacket, HEADER_OVERHEAD, MAX_DATAGRAM};
use crate::payload::Payload;
use crate::time::{SimClock, Ticks};
use crate::topology::{LinkId, LinkSpec, NodeId, Route, Topology};
use crate::trace::{NetStats, NetStatsHandle};
use crate::wheel::TimingWheel;
use htb::{ShapingTree, TreeSpec, TreeStatsHandle};
use qdisc::{DequeueOutcome, EnqueueOutcome, Qdisc, QdiscConfig, QdiscStats, StatsHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Handle to a bound datagram socket.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SocketHandle(pub(crate) u32);

/// A multicast group (analogue of a class-D IP address).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// Destination of a datagram.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Addr {
    /// Deliver to the socket bound to `(node, port)`.
    Unicast(NodeId, Port),
    /// Deliver to every member socket of the group bound on `port`.
    Multicast(GroupId, Port),
}

impl Addr {
    /// Convenience constructor.
    pub fn unicast(node: NodeId, port: Port) -> Addr {
        Addr::Unicast(node, port)
    }

    /// Convenience constructor.
    pub fn multicast(group: GroupId, port: Port) -> Addr {
        Addr::Multicast(group, port)
    }
}

/// A received datagram, as handed to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Sender node.
    pub src_node: NodeId,
    /// Sender port.
    pub src_port: Port,
    /// Address the sender targeted (unicast or the multicast group).
    pub dst: Addr,
    /// Payload bytes, shared zero-copy with every other delivered copy
    /// of the same packet (dereferences to `[u8]`).
    pub payload: Payload,
    /// Simulated arrival instant.
    pub arrived_at: Ticks,
    /// True when a link's AQM marked the packet Congestion Experienced
    /// (only possible for ECN-capable flows, see [`Network::set_ecn`]).
    pub ecn_ce: bool,
}

/// Errors surfaced by [`Network`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A socket is already bound to that `(node, port)` pair.
    PortInUse(NodeId, Port),
    /// The destination node is not reachable from the source.
    Unreachable(NodeId, NodeId),
    /// Payload exceeds [`MAX_DATAGRAM`].
    PayloadTooLarge(usize),
    /// Unknown socket handle.
    BadSocket,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::PortInUse(n, p) => write!(f, "port in use: {n}{p}"),
            NetError::Unreachable(a, b) => write!(f, "no route {a} -> {b}"),
            NetError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds max datagram"),
            NetError::BadSocket => write!(f, "unknown socket handle"),
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug)]
struct Socket {
    node: NodeId,
    port: Port,
    inbox: VecDeque<Datagram>,
    /// Groups this socket belongs to (small, sorted; the authoritative
    /// membership lives in the per-group member lists).
    groups: Vec<GroupId>,
    open: bool,
    /// Whether traffic sent from this socket is ECN-capable (ECT):
    /// AQM on a congested link marks it instead of dropping it.
    ecn: bool,
}

/// A packet copy travelling a path. Links with an empty egress slot
/// are traversed analytically; a mounted hop suspends the walk in the
/// plane's queues and resumes it as a [`NetEvent::Hop`] on release.
#[derive(Debug)]
struct InFlight {
    packet: WirePacket,
    /// The route this copy was launched on, owned by the copy together
    /// with its cursor on the next link to traverse: it keeps that
    /// route to the end whatever the topology does meanwhile.
    route: Route,
    dst: Addr,
    target: Option<SocketHandle>,
    /// Sender socket was ECN-capable.
    ecn_capable: bool,
    /// Congestion Experienced mark accumulated along the path.
    ce: bool,
    /// A fault model chose to duplicate this copy on delivery.
    duplicate: bool,
}

// Every queued `NetEvent` is as wide as its widest variant, this one:
// a fatter copy is paid for by every event the wheel ever holds.
const _: () = assert!(std::mem::size_of::<InFlight>() <= 72);

#[derive(Debug)]
enum NetEvent {
    Deliver {
        socket: SocketHandle,
        dgram: Datagram,
    },
    Timer {
        key: u64,
    },
    /// Resume an in-flight packet's path walk at its arrival instant
    /// on the next hop.
    Hop {
        flight: InFlight,
    },
    /// Serve one packet from the egress plane on `link`. `gen`
    /// invalidates events superseded by an earlier reschedule.
    EgressService {
        link: LinkId,
        gen: u64,
    },
}

/// The queueing discipline mounted in a link's egress slot.
enum Plane {
    /// Flat class plane: DRR across four port-classified classes.
    /// Both planes are boxed: they keep their state inline (~1.2 kB of
    /// class state here, the tree's scheduler index there), and every
    /// slot of the egress table, mounted or not, is as wide as the
    /// widest variant.
    Flat(Box<Qdisc<InFlight>>),
    /// Shaping tree: one leaf per subscriber destination node.
    Tree(Box<ShapingTree<InFlight>>),
}

impl Plane {
    /// Offer an arriving copy. The tree picks the leaf by `dst_node`;
    /// the flat plane classifies by destination port alone.
    fn enqueue(
        &mut self,
        now_us: u64,
        dst_node: u32,
        flight: InFlight,
    ) -> EnqueueOutcome<InFlight> {
        let (Addr::Unicast(_, Port(port)) | Addr::Multicast(_, Port(port))) = flight.dst;
        let (bytes, ecn) = (flight.packet.wire_size() as u32, flight.ecn_capable);
        match self {
            Plane::Flat(q) => q.enqueue(now_us, q.classify(port), bytes, ecn, flight),
            Plane::Tree(t) => t.enqueue(now_us, dst_node, port, bytes, ecn, flight),
        }
    }

    fn next_ready(&self, after_us: u64) -> Option<u64> {
        match self {
            Plane::Flat(q) => q.next_ready(after_us),
            Plane::Tree(t) => t.next_ready(after_us),
        }
    }

    fn dequeue(&mut self, now_us: u64) -> DequeueOutcome<InFlight> {
        match self {
            Plane::Flat(q) => q.dequeue(now_us),
            Plane::Tree(t) => t.dequeue(now_us),
        }
    }
}

/// A link's mounted egress plane plus its service scheduling state.
struct LinkEgress {
    plane: Plane,
    /// Instant of the currently scheduled service event, if any.
    service_at: Option<Ticks>,
    /// Generation of the live service event; stale events are ignored.
    gen: u64,
}

/// The simulated network: topology + sockets + clock + event queue.
///
/// All operations are synchronous from the caller's point of view:
/// `send` schedules future deliveries, `run_until`/`run_for` advance
/// the clock processing deliveries and timers, and `recv` drains a
/// socket's inbox.
pub struct Network {
    topo: Topology,
    clock: SimClock,
    queue: TimingWheel<NetEvent>,
    sockets: Vec<Socket>,
    /// Per-node port tables, indexed by dense node id: each entry is a
    /// short `(port, socket)` list sorted by port for binary search.
    port_map: Vec<Vec<(Port, SocketHandle)>>,
    /// Per-group member lists, indexed by dense group id; members are
    /// kept sorted by socket index so multicast fan-out visits them in
    /// exactly the order the historical all-sockets scan did.
    groups: Vec<Vec<SocketHandle>>,
    rng: StdRng,
    stats: NetStats,
    /// Lock-free shared view of the delivery/drop counters.
    shared: NetStatsHandle,
    fired_timers: VecDeque<(Ticks, u64)>,
    /// Scripted fault actions sorted by time; `plan_next` indexes the
    /// first not-yet-applied entry.
    plan: FaultPlan,
    plan_next: usize,
    /// Egress slots indexed by dense link id (`None` where the link
    /// is the plain FIFO). Grown only by `mount`, so the table is
    /// empty — and the walk's per-hop lookup a failed bounds check —
    /// until something mounts.
    egress: Vec<Option<LinkEgress>>,
}

impl Network {
    /// A fresh network; `seed` drives the loss and fault models (and
    /// nothing else), so identical seeds yield identical runs.
    pub fn new(seed: u64) -> Self {
        Network {
            topo: Topology::new(),
            clock: SimClock::new(),
            queue: TimingWheel::new(),
            sockets: Vec::new(),
            port_map: Vec::new(),
            groups: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
            shared: NetStatsHandle::new(),
            fired_timers: VecDeque::new(),
            plan: FaultPlan::new(),
            plan_next: 0,
            egress: Vec::new(),
        }
    }

    /// Socket bound to `(node, port)`, if any.
    fn socket_at(&self, node: NodeId, port: Port) -> Option<SocketHandle> {
        let table = self.port_map.get(node.0 as usize)?;
        table
            .binary_search_by_key(&port, |&(p, _)| p)
            .ok()
            .map(|i| table[i].1)
    }

    /// The discipline mounted on `link`, if any.
    fn plane(&self, link: LinkId) -> Option<&Plane> {
        Some(&self.egress.get(link.0 as usize)?.as_ref()?.plane)
    }

    fn egress_mut(&mut self, link: LinkId) -> Option<&mut LinkEgress> {
        self.egress.get_mut(link.0 as usize)?.as_mut()
    }

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

    /// Whether `link` has a flat traffic-control plane mounted.
    pub fn qdisc_attached(&self, link: LinkId) -> bool {
        matches!(self.plane(link), Some(Plane::Flat(_)))
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

    /// Declare traffic sent from socket `s` ECN-capable (or not).
    /// AQM marks ECN-capable packets where it would drop others.
    pub fn set_ecn(&mut self, s: SocketHandle, enabled: bool) {
        if let Some(sock) = self.sockets.get_mut(s.0 as usize) {
            sock.ecn = enabled;
        }
    }

    /// Install a scripted fault plan. Actions fire during
    /// [`Network::run_until`] once the clock reaches their instant
    /// (events already due at that instant are delivered first).
    /// Replaces any previously installed plan, including its
    /// not-yet-applied entries.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.plan_next = 0;
    }

    /// Number of scripted fault actions not yet applied.
    pub fn fault_actions_pending(&self) -> usize {
        self.plan.len() - self.plan_next
    }

    fn apply_fault_action(&mut self, action: &FaultAction) {
        match action {
            FaultAction::LinkDown(l) => self.topo.set_link_up(*l, false),
            FaultAction::LinkUp(l) => self.topo.set_link_up(*l, true),
            FaultAction::SetFault(l, model) => self.topo.set_link_fault(*l, Some(*model)),
            FaultAction::ClearFault(l) => self.topo.set_link_fault(*l, None),
            FaultAction::SetLoss(l, p) => {
                let spec = self.topo.link_spec(*l).with_loss(*p);
                self.topo.set_link_spec(*l, spec);
            }
            FaultAction::Partition(island) => self.topo.partition(island),
            FaultAction::Heal => self.topo.heal(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Ticks {
        self.clock.now()
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (e.g. to degrade a link mid-run).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Whether a route currently exists from `a` to `b`. A `send`
    /// between the pair would not fail with
    /// [`NetError::Unreachable`] right now; it walks the same
    /// [`Topology::route_cached`] tree memo the data path uses without
    /// building a route, so probing between topology changes allocates
    /// nothing and sweeps nothing.
    pub fn reachable(&mut self, a: NodeId, b: NodeId) -> bool {
        self.topo.reachable(a, b)
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// A lock-free shared view of the delivery/drop counters. The
    /// handle stays live (and readable from any thread) while the
    /// simulation runs; clones share the same atomic cells.
    pub fn stats_handle(&self) -> NetStatsHandle {
        self.shared.clone()
    }

    /// Add a node. See [`Topology::add_node`].
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.topo.add_node(name)
    }

    /// Connect two nodes. See [`Topology::connect`].
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> crate::topology::LinkId {
        self.topo.connect(a, b, spec)
    }

    /// Build a star LAN: one switch node plus `names.len()` hosts, each
    /// connected to the switch with `spec`. Returns `(switch, hosts)`.
    pub fn lan(&mut self, names: &[&str], spec: LinkSpec) -> (NodeId, Vec<NodeId>) {
        let switch = self.add_node("switch");
        let hosts = names
            .iter()
            .map(|n| {
                let h = self.add_node(n);
                self.connect(switch, h, spec);
                h
            })
            .collect();
        (switch, hosts)
    }

    /// Bind a datagram socket on `(node, port)`.
    pub fn bind(&mut self, node: NodeId, port: Port) -> Result<SocketHandle, NetError> {
        let idx = node.0 as usize;
        if idx >= self.port_map.len() {
            self.port_map.resize_with(idx + 1, Vec::new);
        }
        let table = &mut self.port_map[idx];
        let slot = match table.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(_) => return Err(NetError::PortInUse(node, port)),
            Err(i) => i,
        };
        let h = SocketHandle(self.sockets.len() as u32);
        self.sockets.push(Socket {
            node,
            port,
            inbox: VecDeque::new(),
            groups: Vec::new(),
            open: true,
            ecn: false,
        });
        table.insert(slot, (port, h));
        Ok(h)
    }

    /// Close a socket, releasing its `(node, port)` binding and its
    /// group memberships.
    pub fn close(&mut self, s: SocketHandle) {
        let Some(sock) = self.sockets.get_mut(s.0 as usize) else {
            return;
        };
        if !sock.open {
            return;
        }
        sock.open = false;
        sock.inbox.clear();
        let node = sock.node;
        let port = sock.port;
        let groups = std::mem::take(&mut sock.groups);
        if let Some(table) = self.port_map.get_mut(node.0 as usize) {
            if let Ok(i) = table.binary_search_by_key(&port, |&(p, _)| p) {
                if table[i].1 == s {
                    table.remove(i);
                }
            }
        }
        for g in groups {
            if let Some(members) = self.groups.get_mut(g.0 as usize) {
                if let Ok(i) = members.binary_search_by_key(&s.0, |m| m.0) {
                    members.remove(i);
                }
            }
        }
    }

    /// Allocate a fresh multicast group id.
    pub fn new_group(&mut self) -> GroupId {
        let g = GroupId(self.groups.len() as u32);
        self.groups.push(Vec::new());
        g
    }

    /// Join a multicast group on a socket.
    pub fn join(&mut self, s: SocketHandle, g: GroupId) -> Result<(), NetError> {
        let sock = self
            .sockets
            .get_mut(s.0 as usize)
            .ok_or(NetError::BadSocket)?;
        if !sock.groups.contains(&g) {
            sock.groups.push(g);
        }
        let idx = g.0 as usize;
        if idx >= self.groups.len() {
            self.groups.resize_with(idx + 1, Vec::new);
        }
        let members = &mut self.groups[idx];
        if let Err(i) = members.binary_search_by_key(&s.0, |m| m.0) {
            members.insert(i, s);
        }
        Ok(())
    }

    /// Leave a multicast group.
    pub fn leave(&mut self, s: SocketHandle, g: GroupId) -> Result<(), NetError> {
        let sock = self
            .sockets
            .get_mut(s.0 as usize)
            .ok_or(NetError::BadSocket)?;
        sock.groups.retain(|&x| x != g);
        if let Some(members) = self.groups.get_mut(g.0 as usize) {
            if let Ok(i) = members.binary_search_by_key(&s.0, |m| m.0) {
                members.remove(i);
            }
        }
        Ok(())
    }

    /// Current members of `group` bound on `dst_port`, excluding
    /// `sender`, in ascending socket order — the multicast fan-out set.
    fn group_targets(
        &self,
        group: GroupId,
        dst_port: Port,
        sender: SocketHandle,
    ) -> Vec<(Option<SocketHandle>, NodeId)> {
        let Some(members) = self.groups.get(group.0 as usize) else {
            return Vec::new();
        };
        members
            .iter()
            .filter(|&&m| {
                let sock = &self.sockets[m.0 as usize];
                sock.open && sock.port == dst_port && m != sender
            })
            .map(|&m| (Some(m), self.sockets[m.0 as usize].node))
            .collect()
    }

    /// Node a socket is bound on.
    pub fn socket_node(&self, s: SocketHandle) -> NodeId {
        self.sockets[s.0 as usize].node
    }

    /// Port a socket is bound on.
    pub fn socket_port(&self, s: SocketHandle) -> Port {
        self.sockets[s.0 as usize].port
    }

    /// Send a datagram from socket `s` to `dst`.
    ///
    /// Unicast: the payload travels the hop-count-shortest path; each
    /// hop adds serialization (with FIFO queueing on the link) plus
    /// propagation delay and may drop the packet per the link's loss
    /// probability. Multicast: the datagram is fanned out to every
    /// current member of the group bound on the destination port,
    /// except the sending socket itself (loopback disabled, as the
    /// paper's clients do not consume their own events).
    pub fn send(
        &mut self,
        s: SocketHandle,
        dst: Addr,
        payload: impl Into<Payload>,
    ) -> Result<(), NetError> {
        self.send_payloads(s, dst, &[payload.into()]).map(|_| ())
    }

    /// Send a batch of datagrams from socket `s` to the same `dst` in
    /// one call. Semantically identical to calling [`Network::send`]
    /// once per payload, except that multicast fan-out is member-major:
    /// group membership is resolved once and each member's route is
    /// looked up once for the whole batch (instead of per payload),
    /// then every payload is launched along it in order. Per-receiver
    /// delivery order is unchanged. Returns the number of packet copies
    /// scheduled (payloads × receivers for multicast).
    pub fn send_batch<P: Into<Payload>>(
        &mut self,
        s: SocketHandle,
        dst: Addr,
        payloads: Vec<P>,
    ) -> Result<usize, NetError> {
        let payloads: Vec<Payload> = payloads.into_iter().map(Into::into).collect();
        self.send_payloads(s, dst, &payloads)
    }

    /// The one send path: validate, count, resolve the receivers, then
    /// per receiver look the route up once and launch a copy of every
    /// payload along it. A receiver without a route fails the call
    /// after the receivers before it have been served.
    fn send_payloads(
        &mut self,
        s: SocketHandle,
        dst: Addr,
        payloads: &[Payload],
    ) -> Result<usize, NetError> {
        if let Some(p) = payloads.iter().find(|p| p.len() > MAX_DATAGRAM) {
            return Err(NetError::PayloadTooLarge(p.len()));
        }
        let sock = self
            .sockets
            .get(s.0 as usize)
            .filter(|sock| sock.open)
            .ok_or(NetError::BadSocket)?;
        let (src_node, src_port, ecn_capable) = (sock.node, sock.port, sock.ecn);
        self.stats.sent += payloads.len() as u64;
        self.stats.bytes_sent += payloads
            .iter()
            .map(|p| (p.len() + HEADER_OVERHEAD) as u64)
            .sum::<u64>();
        let targets = match dst {
            // A datagram to an unbound port is silently discarded,
            // like real UDP (no ICMP in this simulator).
            Addr::Unicast(node, port) => vec![(self.socket_at(node, port), node)],
            Addr::Multicast(group, port) => self.group_targets(group, port, s),
        };
        for &(target, node) in &targets {
            let route = self
                .topo
                .route_cached(src_node, node)
                .ok_or(NetError::Unreachable(src_node, node))?;
            // `repeat_n` moves the looked-up route into the last copy,
            // so only a spilled route in a multi-payload batch clones.
            let routes = std::iter::repeat_n(route, payloads.len());
            for (payload, route) in payloads.iter().zip(routes) {
                self.advance_flight(InFlight {
                    packet: WirePacket {
                        src_node,
                        src_port,
                        payload: payload.clone(),
                    },
                    route,
                    dst,
                    target,
                    ecn_capable,
                    ce: false,
                    duplicate: false,
                });
            }
        }
        Ok(targets.len() * payloads.len())
    }

    /// Traverse one link analytically: bounded-FIFO admission (when the
    /// link has a queue cap), busy-time reservation, serialization +
    /// propagation, then the loss/fault rolls. Advances `t` to the exit
    /// instant and returns false when the copy is dropped.
    fn traverse_link(
        &mut self,
        link_id: LinkId,
        wire_size: usize,
        t: &mut Ticks,
        duplicate: &mut bool,
    ) -> bool {
        let link = &mut self.topo.links[link_id.0 as usize];
        if let Some(cap) = link.spec.queue_cap_bytes {
            // Bytes currently waiting = backlog time × line rate. The
            // check consumes no RNG, so unbounded links are untouched.
            let backlog_us = link.busy_until.saturating_sub(*t).as_micros();
            let backlog_bytes = backlog_us * link.spec.bandwidth_bps / 8_000_000;
            if backlog_bytes + wire_size as u64 > cap {
                self.stats.fifo_dropped += 1;
                return false;
            }
        }
        let start = (*t).max(link.busy_until);
        let ser = link.spec.serialization_time(wire_size);
        link.busy_until = start + ser;
        link.busy_accum += ser;
        *t = start + ser + link.spec.latency;
        self.roll_link_loss(link_id, t, duplicate)
    }

    /// Roll the per-link loss and fault-model draws for one copy at its
    /// exit from `link_id`, possibly adding jitter/reorder delay to `t`
    /// or flagging duplication. Returns false when the copy is lost.
    /// Every fault draw is gated on its rate being non-zero, so links
    /// without a model — or with [`crate::faults::FaultModel::none`] —
    /// consume exactly the same RNG stream as before faults existed.
    fn roll_link_loss(&mut self, link_id: LinkId, t: &mut Ticks, duplicate: &mut bool) -> bool {
        let link = &mut self.topo.links[link_id.0 as usize];
        if link.spec.loss > 0.0 && self.rng.random::<f64>() < link.spec.loss {
            return false;
        }
        if let Some(fault) = link.fault.as_mut() {
            // Evolve the Gilbert–Elliott chain, then sample loss at
            // the current state's rate.
            let flip = if fault.bad {
                fault.model.burst.p_exit_bad
            } else {
                fault.model.burst.p_enter_bad
            };
            if flip > 0.0 && self.rng.random::<f64>() < flip {
                fault.bad = !fault.bad;
            }
            let loss = if fault.bad {
                fault.model.burst.loss_bad
            } else {
                fault.model.burst.loss_good
            };
            if loss > 0.0 && self.rng.random::<f64>() < loss {
                return false;
            }
            if fault.model.jitter > Ticks::ZERO {
                let j = self.rng.random_range(0..=fault.model.jitter.as_micros());
                *t += Ticks::from_micros(j);
            }
            if fault.model.reorder > 0.0 && self.rng.random::<f64>() < fault.model.reorder {
                // Hold the packet back so trailing traffic can
                // overtake; the hold bounds the displacement.
                let hold = fault.model.reorder_hold.as_micros().max(1);
                *t += Ticks::from_micros(self.rng.random_range(1..=hold));
            }
            if fault.model.duplicate > 0.0 && self.rng.random::<f64>() < fault.model.duplicate {
                *duplicate = true;
            }
        }
        true
    }

    /// Schedule delivery of a copy that survived its whole path into
    /// the target inbox at `t` (twice when a fault duplicated it).
    fn deliver(&mut self, flight: InFlight, t: Ticks) {
        let Some(socket) = flight.target else {
            return;
        };
        let dgram = Datagram {
            src_node: flight.packet.src_node,
            src_port: flight.packet.src_port,
            dst: flight.dst,
            payload: flight.packet.payload,
            arrived_at: t,
            ecn_ce: flight.ce,
        };
        if flight.duplicate {
            self.stats.duplicated += 1;
            let dgram = dgram.clone();
            self.queue.schedule(t, NetEvent::Deliver { socket, dgram });
        }
        self.queue.schedule(t, NetEvent::Deliver { socket, dgram });
    }

    /// Walk an in-flight copy along its remaining path starting at the
    /// current instant — the only link walk, for fresh copies and
    /// resumed ones alike. Plain links are traversed analytically; on
    /// reaching a mounted link the copy is enqueued there (or handed
    /// off as a [`NetEvent::Hop`] when its arrival lies in the future).
    fn advance_flight(&mut self, mut flight: InFlight) {
        let now = self.clock.now();
        let mut t = now;
        while let Some(link_id) = flight.route.next_link() {
            if self.plane(link_id).is_some() {
                if t > now {
                    // The copy only reaches the plane at `t`; classify
                    // and enqueue it then, in arrival order.
                    self.queue.schedule(t, NetEvent::Hop { flight });
                } else {
                    self.egress_enqueue(link_id, flight);
                }
                return;
            }
            if !self.traverse_link(
                link_id,
                flight.packet.wire_size(),
                &mut t,
                &mut flight.duplicate,
            ) {
                self.stats.dropped += 1;
                self.shared.add_dropped(1);
                return;
            }
            flight.route.advance();
        }
        self.deliver(flight, t);
    }

    /// Offer an arriving copy to the egress plane on `link` and
    /// (re)schedule service. A tree picks the leaf by the copy's *final
    /// destination node* — for multicast fan-out, the member socket's
    /// node — so each subscriber's traffic meets its own plan and AQM
    /// regardless of addressing.
    fn egress_enqueue(&mut self, link: LinkId, flight: InFlight) {
        let now = self.clock.now();
        let dst_node = match flight.target {
            Some(s) => self.sockets[s.0 as usize].node.0,
            None => match flight.dst {
                Addr::Unicast(n, _) => n.0,
                // Unresolvable destination: the copy cannot be
                // delivered anyway; let it ride the default leaf.
                Addr::Multicast(_, _) => u32::MAX,
            },
        };
        let Some(slot) = self.egress_mut(link) else {
            return;
        };
        match slot.plane.enqueue(now.as_micros(), dst_node, flight) {
            EnqueueOutcome::Queued => self.kick_egress(link),
            EnqueueOutcome::TailDropped(_) => {
                self.stats.dropped += 1;
                self.stats.qdisc_dropped += 1;
                self.shared.add_dropped(1);
            }
        }
    }

    /// Ensure a service event is pending for the plane on `link` at
    /// the earliest instant some head packet both conforms to shaping
    /// and finds the line idle. Superseded events are invalidated by
    /// bumping the generation counter.
    fn kick_egress(&mut self, link: LinkId) {
        let now = self.clock.now();
        let busy = self.topo.links[link.0 as usize].busy_until.max(now);
        let Some(slot) = self.egress_mut(link) else {
            return;
        };
        let Some(ready) = slot.plane.next_ready(busy.as_micros()) else {
            return;
        };
        let at = Ticks::from_micros(ready);
        if slot.service_at.is_none_or(|s| at < s) {
            slot.gen += 1;
            slot.service_at = Some(at);
            let gen = slot.gen;
            self.queue
                .schedule(at, NetEvent::EgressService { link, gen });
        }
    }

    /// Serve at most one packet from the plane on `link`, putting it on
    /// the wire (busy-time reservation + loss rolls) and resuming its
    /// path walk, then reschedule service for whatever remains queued.
    fn service_egress(&mut self, link: LinkId, gen: u64) {
        let now = self.clock.now();
        let Some(slot) = self.egress_mut(link) else {
            return;
        };
        if slot.gen != gen {
            return;
        }
        slot.service_at = None;
        let out = slot.plane.dequeue(now.as_micros());
        let aqm_drops = out.aqm_dropped.len() as u64;
        self.stats.dropped += aqm_drops;
        self.stats.qdisc_dropped += aqm_drops;
        self.shared.add_dropped(aqm_drops);
        if let Some(rel) = out.released {
            let mut flight = rel.payload;
            if rel.ecn_marked {
                self.stats.ecn_marked += 1;
                flight.ce = true;
            }
            let link_ref = &mut self.topo.links[link.0 as usize];
            let ser = link_ref.spec.serialization_time(flight.packet.wire_size());
            link_ref.busy_until = now + ser;
            link_ref.busy_accum += ser;
            let mut t = now + ser + link_ref.spec.latency;
            if self.roll_link_loss(link, &mut t, &mut flight.duplicate) {
                flight.route.advance();
                if flight.route.next_link().is_some() {
                    self.queue.schedule(t, NetEvent::Hop { flight });
                } else {
                    self.deliver(flight, t);
                }
            } else {
                self.stats.dropped += 1;
                self.shared.add_dropped(1);
            }
        }
        self.kick_egress(link);
    }

    /// Schedule an opaque timer key to fire at absolute time `at`.
    /// Fired timers are collected via [`Network::poll_timers`].
    pub fn set_timer(&mut self, at: Ticks, key: u64) {
        let at = at.max(self.clock.now());
        self.queue.schedule(at, NetEvent::Timer { key });
    }

    /// Drain timers that have fired since the last poll.
    pub fn poll_timers(&mut self) -> Vec<(Ticks, u64)> {
        self.fired_timers.drain(..).collect()
    }

    /// Advance simulated time to `deadline`, processing every event due
    /// at or before it and applying scripted fault-plan actions at
    /// their scheduled instants (after same-instant deliveries).
    pub fn run_until(&mut self, deadline: Ticks) {
        while self.plan_next < self.plan.entries.len()
            && self.plan.entries[self.plan_next].0 <= deadline
        {
            // Deliver everything due up to (and at) the fault instant,
            // then apply every action scheduled for that instant.
            let at = self.plan.entries[self.plan_next].0.max(self.clock.now());
            self.drain_until(at);
            while self.plan_next < self.plan.entries.len()
                && self.plan.entries[self.plan_next].0 <= at
            {
                let action = self.plan.entries[self.plan_next].1.clone();
                self.plan_next += 1;
                self.apply_fault_action(&action);
            }
        }
        self.drain_until(deadline);
    }

    /// Process every queued event due at or before `deadline` and
    /// advance the clock to it (no fault-plan interleaving).
    fn drain_until(&mut self, deadline: Ticks) {
        while let Some(ev) = self.queue.pop_before(deadline) {
            self.clock.advance_to(ev.at);
            match ev.event {
                NetEvent::Deliver { socket, dgram } => {
                    let sock = &mut self.sockets[socket.0 as usize];
                    if sock.open {
                        let wire = (dgram.payload.len() + crate::packet::HEADER_OVERHEAD) as u64;
                        self.stats.delivered += 1;
                        self.stats.bytes_delivered += wire;
                        self.shared.add_delivered(1, wire);
                        sock.inbox.push_back(dgram);
                    }
                }
                NetEvent::Timer { key } => {
                    self.fired_timers.push_back((ev.at, key));
                }
                NetEvent::Hop { flight } => self.advance_flight(flight),
                NetEvent::EgressService { link, gen } => self.service_egress(link, gen),
            }
        }
        self.clock.advance_to(deadline);
    }

    /// Advance simulated time by `d`.
    pub fn run_for(&mut self, d: Ticks) {
        let deadline = self.clock.now() + d;
        self.run_until(deadline);
    }

    /// Run until the event queue is empty and every scripted fault
    /// action has been applied (all in-flight traffic, timers, and plan
    /// entries resolved). Returns the final time.
    pub fn run_to_quiescence(&mut self) -> Ticks {
        loop {
            let next_event = self.queue.next_time();
            let next_fault = self
                .plan
                .entries
                .get(self.plan_next)
                .map(|(t, _)| (*t).max(self.clock.now()));
            let t = match (next_event, next_fault) {
                (Some(e), Some(f)) => e.min(f),
                (Some(e), None) => e,
                (None, Some(f)) => f,
                (None, None) => break,
            };
            self.run_until(t);
        }
        self.clock.now()
    }

    /// Pop the oldest pending datagram on socket `s`, if any.
    pub fn recv(&mut self, s: SocketHandle) -> Option<Datagram> {
        self.sockets.get_mut(s.0 as usize)?.inbox.pop_front()
    }

    /// Number of queued datagrams on socket `s`.
    pub fn pending(&self, s: SocketHandle) -> usize {
        self.sockets
            .get(s.0 as usize)
            .map_or(0, |sock| sock.inbox.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Network, SocketHandle, SocketHandle, NodeId, NodeId) {
        let mut net = Network::new(42);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, LinkSpec::lan());
        let sa = net.bind(a, Port(1000)).unwrap();
        let sb = net.bind(b, Port(1000)).unwrap();
        (net, sa, sb, a, b)
    }

    #[test]
    fn unicast_delivery_and_latency() {
        let (mut net, sa, sb, _a, b) = pair();
        net.send(sa, Addr::unicast(b, Port(1000)), vec![1, 2, 3])
            .unwrap();
        assert!(net.recv(sb).is_none(), "not delivered before time passes");
        net.run_for(Ticks::from_millis(1));
        let d = net.recv(sb).unwrap();
        assert_eq!(d.payload, vec![1, 2, 3]);
        // LAN: 100us latency + serialization of 31 bytes at 100 Mb/s (~3us)
        assert!(d.arrived_at >= Ticks::from_micros(100));
        assert!(d.arrived_at <= Ticks::from_micros(110));
    }

    #[test]
    fn send_batch_unicast_delivers_all_in_order() {
        let (mut net, sa, sb, _a, b) = pair();
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 3]).collect();
        let copies = net
            .send_batch(sa, Addr::unicast(b, Port(1000)), payloads.clone())
            .unwrap();
        assert_eq!(copies, 5);
        net.run_to_quiescence();
        for want in &payloads {
            assert_eq!(&net.recv(sb).unwrap().payload, want);
        }
        assert!(net.recv(sb).is_none());
        assert_eq!(net.stats().sent, 5, "one send per payload, as serial");
    }

    #[test]
    fn send_batch_multicast_reaches_every_member() {
        let mut net = Network::new(1);
        let hub = net.add_node("hub");
        let group = net.new_group();
        let mut members = Vec::new();
        for i in 0..3 {
            let n = net.add_node(&format!("m{i}"));
            net.connect(hub, n, LinkSpec::lan());
            let s = net.bind(n, Port(2000)).unwrap();
            net.join(s, group).unwrap();
            members.push(s);
        }
        let sender = net.bind(hub, Port(2000)).unwrap();
        net.join(sender, group).unwrap();
        let payloads: Vec<Vec<u8>> = (0u8..4).map(|i| vec![i]).collect();
        let copies = net
            .send_batch(sender, Addr::multicast(group, Port(2000)), payloads.clone())
            .unwrap();
        assert_eq!(copies, 12, "4 payloads x 3 members (no loopback)");
        net.run_to_quiescence();
        for s in members {
            for want in &payloads {
                assert_eq!(&net.recv(s).unwrap().payload, want, "in-order per member");
            }
            assert!(net.recv(s).is_none());
        }
    }

    #[test]
    fn double_bind_rejected() {
        let (mut net, _sa, _sb, a, _b) = pair();
        assert!(matches!(
            net.bind(a, Port(1000)),
            Err(NetError::PortInUse(_, _))
        ));
    }

    #[test]
    fn send_to_unbound_port_is_silently_dropped() {
        let (mut net, sa, sb, _a, b) = pair();
        net.send(sa, Addr::unicast(b, Port(9)), vec![0]).unwrap();
        net.run_to_quiescence();
        assert!(net.recv(sb).is_none());
        assert_eq!(net.stats().sent, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn unreachable_destination_errors() {
        let mut net = Network::new(0);
        let a = net.add_node("a");
        let b = net.add_node("b"); // not connected
        let sa = net.bind(a, Port(1)).unwrap();
        let _sb = net.bind(b, Port(1)).unwrap();
        assert!(matches!(
            net.send(sa, Addr::unicast(b, Port(1)), vec![]),
            Err(NetError::Unreachable(_, _))
        ));
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut net, sa, _sb, _a, b) = pair();
        let big = vec![0u8; MAX_DATAGRAM + 1];
        assert!(matches!(
            net.send(sa, Addr::unicast(b, Port(1000)), big),
            Err(NetError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn multicast_fanout_excludes_sender() {
        let mut net = Network::new(3);
        let (_sw, hosts) = net.lan(&["h0", "h1", "h2", "h3"], LinkSpec::lan());
        let socks: Vec<_> = hosts
            .iter()
            .map(|&h| net.bind(h, Port(7000)).unwrap())
            .collect();
        let g = net.new_group();
        for &s in &socks {
            net.join(s, g).unwrap();
        }
        net.send(socks[0], Addr::multicast(g, Port(7000)), b"ev".to_vec())
            .unwrap();
        net.run_to_quiescence();
        assert_eq!(net.pending(socks[0]), 0, "no loopback");
        for &s in &socks[1..] {
            assert_eq!(net.pending(s), 1);
        }
    }

    #[test]
    fn multicast_respects_membership() {
        let mut net = Network::new(3);
        let (_sw, hosts) = net.lan(&["h0", "h1", "h2"], LinkSpec::lan());
        let socks: Vec<_> = hosts
            .iter()
            .map(|&h| net.bind(h, Port(7000)).unwrap())
            .collect();
        let g = net.new_group();
        net.join(socks[0], g).unwrap();
        net.join(socks[1], g).unwrap();
        // socks[2] never joins; socks[1] joins then leaves.
        net.join(socks[2], g).unwrap();
        net.leave(socks[2], g).unwrap();
        net.send(socks[0], Addr::multicast(g, Port(7000)), vec![9])
            .unwrap();
        net.run_to_quiescence();
        assert_eq!(net.pending(socks[1]), 1);
        assert_eq!(net.pending(socks[2]), 0);
    }

    #[test]
    fn lossy_link_drops_a_fraction() {
        let mut net = Network::new(1234);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, LinkSpec::lan().with_loss(0.5));
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        for _ in 0..1000 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0]).unwrap();
        }
        net.run_to_quiescence();
        let got = net.pending(sb) as f64;
        assert!((350.0..650.0).contains(&got), "got {got}, expected ~500");
        assert_eq!(net.stats().dropped + net.stats().delivered, 1000);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed: u64| -> (u64, u64) {
            let mut net = Network::new(seed);
            let a = net.add_node("a");
            let b = net.add_node("b");
            net.connect(a, b, LinkSpec::wireless().with_loss(0.3));
            let sa = net.bind(a, Port(1)).unwrap();
            let _sb = net.bind(b, Port(1)).unwrap();
            for _ in 0..200 {
                net.send(sa, Addr::unicast(b, Port(1)), vec![0; 64])
                    .unwrap();
            }
            net.run_to_quiescence();
            (net.stats().delivered, net.stats().dropped)
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, 200); // some loss actually happened
    }

    #[test]
    fn serialization_queueing_orders_arrivals() {
        // Two back-to-back packets on a slow link: second arrives later
        // by at least one serialization time.
        let mut net = Network::new(0);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, LinkSpec::wireless().with_loss(0.0));
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        net.send(sa, Addr::unicast(b, Port(1)), vec![0; 972])
            .unwrap(); // 1000 wire bytes
        net.send(sa, Addr::unicast(b, Port(1)), vec![1; 972])
            .unwrap();
        net.run_to_quiescence();
        let d1 = net.recv(sb).unwrap();
        let d2 = net.recv(sb).unwrap();
        let ser = Ticks::from_micros(8_000); // 1000B at 1 Mb/s
        assert_eq!(d2.arrived_at - d1.arrived_at, ser);
    }

    #[test]
    fn link_utilization_accounts_serialization() {
        let mut net = Network::new(0);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.connect(a, b, LinkSpec::wireless().with_loss(0.0));
        let sa = net.bind(a, Port(1)).unwrap();
        let _sb = net.bind(b, Port(1)).unwrap();
        assert_eq!(net.topology().link_busy_time(l), Ticks::ZERO);
        // 972 + 28 = 1000 wire bytes at 1 Mb/s = 8 ms serialization.
        net.send(sa, Addr::unicast(b, Port(1)), vec![0; 972])
            .unwrap();
        assert_eq!(net.topology().link_busy_time(l), Ticks::from_millis(8));
        net.run_until(Ticks::from_millis(16));
        let u = net.topology().link_utilization(l, net.now());
        assert!((u - 0.5).abs() < 1e-9, "8ms busy of 16ms = 50%, got {u}");
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net = Network::new(0);
        net.set_timer(Ticks::from_millis(5), 55);
        net.set_timer(Ticks::from_millis(1), 11);
        net.run_for(Ticks::from_millis(2));
        assert_eq!(net.poll_timers(), vec![(Ticks::from_millis(1), 11)]);
        net.run_for(Ticks::from_millis(10));
        assert_eq!(net.poll_timers(), vec![(Ticks::from_millis(5), 55)]);
    }

    #[test]
    fn inert_fault_model_changes_nothing() {
        use crate::faults::FaultModel;
        let run = |fault: Option<FaultModel>| -> (NetStats, Vec<Ticks>) {
            let mut net = Network::new(7);
            let a = net.add_node("a");
            let b = net.add_node("b");
            let l = net.connect(a, b, LinkSpec::wireless().with_loss(0.2));
            net.topology_mut().set_link_fault(l, fault);
            let sa = net.bind(a, Port(1)).unwrap();
            let sb = net.bind(b, Port(1)).unwrap();
            for _ in 0..300 {
                net.send(sa, Addr::unicast(b, Port(1)), vec![0; 100])
                    .unwrap();
            }
            net.run_to_quiescence();
            let mut arrivals = Vec::new();
            while let Some(d) = net.recv(sb) {
                arrivals.push(d.arrived_at);
            }
            (net.stats().clone(), arrivals)
        };
        // Attaching the all-zero model must be bit-identical to no model:
        // the RNG stream is untouched because zero-rate draws are skipped.
        assert_eq!(run(None), run(Some(FaultModel::none())));
    }

    #[test]
    fn burst_loss_drops_in_bursts() {
        use crate::faults::{FaultModel, GilbertElliott};
        let mut net = Network::new(5);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.connect(a, b, LinkSpec::lan());
        // ~25% of time in a fully-lossy bad state, mean burst 10 packets.
        let model = FaultModel::none().with_burst(GilbertElliott::bursty(1.0 / 30.0, 0.1, 1.0));
        net.topology_mut().set_link_fault(l, Some(model));
        let sa = net.bind(a, Port(1)).unwrap();
        let _sb = net.bind(b, Port(1)).unwrap();
        for _ in 0..2000 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0]).unwrap();
        }
        net.run_to_quiescence();
        let rate = net.stats().loss_rate();
        let expect = model.burst.steady_state_loss();
        assert!(
            (rate - expect).abs() < 0.08,
            "measured {rate:.3}, steady state {expect:.3}"
        );
        assert_eq!(net.stats().dropped + net.stats().delivered, 2000);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        use crate::faults::FaultModel;
        let mut net = Network::new(9);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.connect(a, b, LinkSpec::lan());
        net.topology_mut()
            .set_link_fault(l, Some(FaultModel::none().with_duplicate(1.0)));
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        for i in 0..5u8 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![i]).unwrap();
        }
        net.run_to_quiescence();
        assert_eq!(net.stats().duplicated, 5);
        assert_eq!(net.stats().delivered, 10);
        // Copies arrive back-to-back, preserving send order.
        let seen: Vec<u8> = std::iter::from_fn(|| net.recv(sb))
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(seen, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn reorder_hold_reorders_arrivals() {
        use crate::faults::FaultModel;
        let mut net = Network::new(11);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.connect(a, b, LinkSpec::lan());
        // Hold ~half the packets back far enough for several successors
        // to overtake.
        net.topology_mut().set_link_fault(
            l,
            Some(FaultModel::none().with_reorder(0.5, Ticks::from_millis(2))),
        );
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        for i in 0..50u8 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![i]).unwrap();
        }
        net.run_to_quiescence();
        let seen: Vec<u8> = std::iter::from_fn(|| net.recv(sb))
            .map(|d| d.payload[0])
            .collect();
        assert_eq!(seen.len(), 50, "reordering never loses packets");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u8>>());
        assert_ne!(seen, sorted, "some packets overtook others");
    }

    #[test]
    fn fault_plan_flaps_link() {
        use crate::faults::{FaultAction, FaultPlan};
        let mut net = Network::new(0);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.connect(a, b, LinkSpec::lan());
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        net.set_fault_plan(
            FaultPlan::new()
                .at(Ticks::from_millis(10), FaultAction::LinkDown(l))
                .at(Ticks::from_millis(20), FaultAction::LinkUp(l)),
        );
        assert_eq!(net.fault_actions_pending(), 2);
        net.send(sa, Addr::unicast(b, Port(1)), vec![1]).unwrap();
        net.run_until(Ticks::from_millis(15));
        assert_eq!(net.pending(sb), 1, "pre-flap packet delivered");
        assert!(
            matches!(
                net.send(sa, Addr::unicast(b, Port(1)), vec![2]),
                Err(NetError::Unreachable(_, _))
            ),
            "no route while the link is down"
        );
        net.run_until(Ticks::from_millis(25));
        assert_eq!(net.fault_actions_pending(), 0);
        net.send(sa, Addr::unicast(b, Port(1)), vec![3]).unwrap();
        net.run_to_quiescence();
        assert_eq!(net.pending(sb), 2, "traffic resumes after the flap");
    }

    #[test]
    fn fault_plan_degrades_and_restores_loss() {
        use crate::faults::{FaultAction, FaultPlan};
        let mut net = Network::new(3);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let l = net.connect(a, b, LinkSpec::lan());
        net.set_fault_plan(
            FaultPlan::new()
                .at(Ticks::from_millis(1), FaultAction::SetLoss(l, 1.0))
                .at(Ticks::from_millis(2), FaultAction::SetLoss(l, 0.0)),
        );
        net.run_until(Ticks::from_millis(1));
        assert_eq!(net.topology().link_spec(l).loss, 1.0);
        net.run_to_quiescence();
        assert_eq!(net.topology().link_spec(l).loss, 0.0);
    }

    #[test]
    fn closed_socket_stops_receiving() {
        let (mut net, sa, sb, _a, b) = pair();
        net.send(sa, Addr::unicast(b, Port(1000)), vec![1]).unwrap();
        net.close(sb);
        net.run_to_quiescence();
        assert_eq!(net.pending(sb), 0);
        // Port can be rebound after close.
        assert!(net.bind(b, Port(1000)).is_ok());
    }

    /// A slow link with a FIFO cap tail-drops the overflow instead of
    /// queueing unboundedly; without the cap the same burst queues in
    /// full (the historical behavior).
    #[test]
    fn bounded_fifo_tail_drops_overflow() {
        let run = |cap: Option<u64>| -> (u64, u64, usize) {
            let mut net = Network::new(7);
            let a = net.add_node("a");
            let b = net.add_node("b");
            let mut spec = LinkSpec::wireless().with_loss(0.0); // 1 Mb/s
            if let Some(c) = cap {
                spec = spec.with_queue_cap(c);
            }
            net.connect(a, b, spec);
            let sa = net.bind(a, Port(1)).unwrap();
            let sb = net.bind(b, Port(1)).unwrap();
            // 100 x 1000B back-to-back = 100 ms of backlog on this link.
            for _ in 0..100 {
                net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 1000])
                    .unwrap();
            }
            net.run_to_quiescence();
            let mut delivered = 0;
            while net.recv(sb).is_some() {
                delivered += 1;
            }
            (net.stats().fifo_dropped, net.stats().dropped, delivered)
        };
        let (unbounded_fifo, unbounded_drops, unbounded_delivered) = run(None);
        assert_eq!(unbounded_fifo, 0);
        assert_eq!(unbounded_drops, 0);
        assert_eq!(unbounded_delivered, 100, "no cap: everything queues");

        // Cap the backlog at ~10 packets' worth of wire bytes.
        let (fifo, drops, delivered) = run(Some(10_300));
        assert!(fifo > 0, "cap must tail-drop the burst overflow");
        assert_eq!(drops, fifo, "FIFO drops are counted in `dropped` too");
        assert_eq!(delivered as u64 + fifo, 100, "every packet accounted");
        assert!(
            (9..=12).contains(&delivered),
            "roughly the cap's worth delivered, got {delivered}"
        );
    }

    /// The FIFO cap admits packets again as the backlog drains: spacing
    /// the same offered load out over time loses nothing.
    #[test]
    fn bounded_fifo_admits_after_drain() {
        let mut net = Network::new(8);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(
            a,
            b,
            LinkSpec::wireless().with_loss(0.0).with_queue_cap(4_000),
        );
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        for _ in 0..30 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 1000])
                .unwrap();
            // 1000B wire takes ~8 ms at 1 Mb/s; 10 ms gaps keep the
            // queue shallow.
            net.run_for(Ticks::from_millis(10));
        }
        net.run_to_quiescence();
        assert_eq!(net.stats().fifo_dropped, 0, "paced load never overflows");
        let mut delivered = 0;
        while net.recv(sb).is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, 30);
    }

    // ------------------------------------------------- qdisc egress

    use qdisc::{QdiscConfig, TrafficClass};

    /// 1 Mb/s shaped link: packets are paced at the token-bucket rate
    /// rather than the (here unconstrained) link serialization rate.
    #[test]
    fn qdisc_shapes_egress_rate() {
        let mut net = Network::new(9);
        let a = net.add_node("a");
        let b = net.add_node("b");
        // Fast line so any pacing observed comes from the qdisc.
        let link = net.connect(a, b, LinkSpec::lan());
        net.attach_qdisc(link, QdiscConfig::for_rate(8_000_000)); // 1 B/us
        let sa = net.bind(a, Port(1)).unwrap();
        let sb = net.bind(b, Port(1)).unwrap();
        for _ in 0..10 {
            net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 1000])
                .unwrap();
        }
        net.run_to_quiescence();
        let mut arrivals = Vec::new();
        while let Some(d) = net.recv(sb) {
            arrivals.push(d.arrived_at);
        }
        assert_eq!(arrivals.len(), 10);
        // ~1031 wire bytes per packet at 1 B/µs: steady-state spacing
        // near 1 ms once the 3000-byte burst is spent.
        let gaps: Vec<u64> = arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]).as_micros())
            .collect();
        let tail = &gaps[gaps.len() - 4..];
        for g in tail {
            assert!(
                (900..=1200).contains(g),
                "steady-state pacing ~1ms/packet, got gaps {gaps:?}"
            );
        }
        let stats = net.qdisc_stats(link).unwrap();
        assert_eq!(stats.class(TrafficClass::Background).dequeued, 10);
    }

    /// ECN-capable traffic through a congested qdisc arrives CE-marked
    /// and undropped; the same overload drops non-ECT traffic instead.
    #[test]
    fn qdisc_marks_ect_instead_of_dropping() {
        let run = |ecn: bool| -> (usize, usize, u64, u64) {
            let mut net = Network::new(10);
            let a = net.add_node("a");
            let b = net.add_node("b");
            let link = net.connect(a, b, LinkSpec::lan());
            let mut cfg = QdiscConfig::for_rate(800_000); // 0.1 B/us
            cfg.codel_target_us = 5_000;
            cfg.codel_interval_us = 20_000;
            net.attach_qdisc(link, cfg);
            let sa = net.bind(a, Port(1)).unwrap();
            let sb = net.bind(b, Port(1)).unwrap();
            net.set_ecn(sa, ecn);
            // 500B every 2 ms = 2 Mb/s offered against 0.8 Mb/s of
            // shaped capacity: deep sustained backlog, CoDel far past
            // target.
            for _ in 0..60 {
                net.send(sa, Addr::unicast(b, Port(1)), vec![0u8; 500])
                    .unwrap();
                net.run_for(Ticks::from_millis(2));
            }
            net.run_for(Ticks::from_secs(5));
            let mut total = 0;
            let mut marked = 0;
            while let Some(d) = net.recv(sb) {
                total += 1;
                if d.ecn_ce {
                    marked += 1;
                }
            }
            (
                total,
                marked,
                net.stats().ecn_marked,
                net.stats().qdisc_dropped,
            )
        };
        let (ect_total, ect_marked, ect_mark_stat, ect_drops) = run(true);
        assert!(ect_marked > 0, "AQM must mark the ECT flow");
        assert_eq!(ect_marked as u64, ect_mark_stat);
        assert_eq!(ect_drops, 0, "ECT traffic is marked, not dropped");
        assert_eq!(ect_total, 60, "nothing lost");

        let (not_total, not_marked, not_mark_stat, not_drops) = run(false);
        assert_eq!(not_marked, 0, "non-ECT can never carry CE");
        assert_eq!(not_mark_stat, 0);
        assert!(not_drops > 0, "same overload drops non-ECT traffic");
        assert!(not_total < 60);
    }

    // ------------------------------------------------- shaping tree

    use htb::{RatePlan, TreeSpec};

    /// A hub topology: one core node behind the shared uplink, two
    /// subscriber nodes behind a switch. Mounting the tree on the
    /// core→switch uplink shapes per-destination traffic.
    fn tree_world() -> (Network, NodeId, Vec<NodeId>, LinkId) {
        let mut net = Network::new(12);
        let core = net.add_node("core");
        let sw = net.add_node("switch");
        let uplink = net.connect(core, sw, LinkSpec::lan());
        let subs: Vec<NodeId> = (0..2)
            .map(|i| {
                let n = net.add_node(&format!("sub-{i}"));
                net.connect(sw, n, LinkSpec::lan());
                n
            })
            .collect();
        (net, core, subs, uplink)
    }

    /// Each subscriber's ceiling paces its own flow: a bronze plan is
    /// held to its ceiling while a gold neighbour on the same uplink
    /// runs faster.
    #[test]
    fn tree_enforces_per_subscriber_ceilings() {
        let (mut net, core, subs, uplink) = tree_world();
        let mut spec = TreeSpec::new(80_000_000);
        let ap = spec.add_ap(htb::ROOT, "ap", 80_000_000, 80_000_000);
        let gold = RatePlan::new("gold", 16_000_000, 40_000_000);
        let bronze = RatePlan::new("bronze", 2_000_000, 4_000_000);
        spec.add_subscriber(ap, "gold", &gold, subs[0].0);
        spec.add_subscriber(ap, "bronze", &bronze, subs[1].0);
        let stats = net.attach_tree(uplink, spec);
        assert!(net.tree_attached(uplink));
        let sa = net.bind(core, Port(1)).unwrap();
        let s0 = net.bind(subs[0], Port(5004)).unwrap();
        let s1 = net.bind(subs[1], Port(5004)).unwrap();
        net.set_ecn(sa, true);
        for _ in 0..200 {
            net.send(sa, Addr::unicast(subs[0], Port(5004)), vec![0u8; 1000])
                .unwrap();
            net.send(sa, Addr::unicast(subs[1], Port(5004)), vec![0u8; 1000])
                .unwrap();
            net.run_for(Ticks::from_micros(500));
        }
        let elapsed_us = 200u64 * 500;
        // Node layout: 0 root, 1 default, 2 ap, 3 gold, 4 bronze.
        let bronze_bits = stats.bits_sent(4);
        let gold_bits = stats.bits_sent(3);
        let bronze_cap = 4_000_000 * elapsed_us / 1_000_000 + 3_000 * 8;
        assert!(
            bronze_bits <= bronze_cap,
            "bronze {bronze_bits} bits exceeds ceiling cap {bronze_cap}"
        );
        assert!(
            gold_bits > bronze_bits,
            "gold ({gold_bits}) should outrun bronze ({bronze_bits})"
        );
        net.run_to_quiescence();
        let mut g = 0;
        while net.recv(s0).is_some() {
            g += 1;
        }
        let mut b = 0;
        while net.recv(s1).is_some() {
            b += 1;
        }
        assert!(g + b > 0, "traffic flows through the tree");
    }

    /// ECN-capable traffic through one congested subscriber leaf
    /// arrives CE-marked; the idle neighbour's leaf stays clean.
    #[test]
    fn tree_marks_congested_subscriber_only() {
        let (mut net, core, subs, uplink) = tree_world();
        let mut spec = TreeSpec::new(80_000_000);
        let plan = RatePlan::new("slow", 800_000, 800_000); // 0.1 B/µs
        spec.add_subscriber(htb::ROOT, "hot", &plan, subs[0].0);
        spec.add_subscriber(htb::ROOT, "idle", &plan, subs[1].0);
        let spec = spec.with_codel(5_000, 20_000);
        let stats = net.attach_tree(uplink, spec);
        let sa = net.bind(core, Port(1)).unwrap();
        let s0 = net.bind(subs[0], Port(5004)).unwrap();
        let s1 = net.bind(subs[1], Port(5004)).unwrap();
        net.set_ecn(sa, true);
        // Overload subscriber 0 only; one late packet to subscriber 1.
        for _ in 0..60 {
            net.send(sa, Addr::unicast(subs[0], Port(5004)), vec![0u8; 500])
                .unwrap();
            net.run_for(Ticks::from_millis(2));
        }
        net.send(sa, Addr::unicast(subs[1], Port(5004)), vec![0u8; 500])
            .unwrap();
        net.run_for(Ticks::from_secs(5));
        let mut hot_total = 0;
        let mut hot_marked = 0;
        while let Some(d) = net.recv(s0) {
            hot_total += 1;
            if d.ecn_ce {
                hot_marked += 1;
            }
        }
        assert_eq!(hot_total, 60, "ECT flow is marked, never dropped");
        assert!(hot_marked > 0, "sustained overload must mark");
        let d = net.recv(s1).expect("idle subscriber's packet arrives");
        assert!(!d.ecn_ce, "fresh leaf has no CoDel state to mark with");
        assert_eq!(stats.ecn_marks(2), hot_marked as u64);
        assert_eq!(stats.ecn_marks(3), 0);
        assert_eq!(net.stats().qdisc_dropped, 0);
    }

    /// FNV-1a over every datagram's arrival instant, source, length
    /// and CE bit, then every [`NetStats`] counter. The constants the
    /// determinism tests compare it with were captured at the commit
    /// before the two egress tables were folded into one slot, so they
    /// pin identity with that datapath, not only run-to-run agreement.
    fn run_digest(arrivals: &[Datagram], stats: &NetStats) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for d in arrivals {
            mix(d.arrived_at.as_micros());
            mix(u64::from(d.src_node.0));
            mix(u64::from(d.src_port.0));
            mix(d.payload.len() as u64);
            mix(u64::from(d.ecn_ce));
        }
        for v in [
            stats.sent,
            stats.delivered,
            stats.dropped,
            stats.bytes_sent,
            stats.bytes_delivered,
            stats.duplicated,
            stats.fifo_dropped,
            stats.qdisc_dropped,
            stats.ecn_marked,
        ] {
            mix(v);
        }
        h
    }

    /// Same seed + same tree spec ⇒ identical arrival trace, loss
    /// rolls included — and the trace the parent commit produced.
    #[test]
    fn tree_runs_are_deterministic() {
        let run = || -> (Vec<Datagram>, NetStats) {
            let mut net = Network::new(13);
            let a = net.add_node("a");
            let b = net.add_node("b");
            let link = net.connect(a, b, LinkSpec::wireless()); // has loss
            let mut spec = TreeSpec::new(1_000_000);
            let plan = RatePlan::new("only", 500_000, 800_000);
            spec.add_subscriber(htb::ROOT, "b", &plan, b.0);
            net.attach_tree(link, spec);
            let sa = net.bind(a, Port(5004)).unwrap();
            let sb = net.bind(b, Port(5004)).unwrap();
            net.set_ecn(sa, true);
            for n in 0..40u8 {
                net.send(sa, Addr::unicast(b, Port(5004)), vec![n; 200])
                    .unwrap();
                net.run_for(Ticks::from_millis(2));
            }
            net.run_to_quiescence();
            let out: Vec<Datagram> = std::iter::from_fn(|| net.recv(sb)).collect();
            (out, net.stats().clone())
        };
        let (arrivals, stats) = run();
        assert_eq!((arrivals.clone(), stats.clone()), run());
        assert_eq!(run_digest(&arrivals, &stats), 0x9b734bb9be29b1bf);
    }

    /// A link's egress slot is filled once: a second mount of either
    /// kind, in either order, panics instead of discarding the queued
    /// copies of the plane already there.
    #[test]
    fn tree_and_qdisc_are_mutually_exclusive() {
        type Mount = fn(&mut Network, LinkId);
        let flat: Mount = |net, link| {
            net.attach_qdisc(link, QdiscConfig::for_rate(1_000_000));
        };
        let tree: Mount = |net, link| {
            net.attach_tree(link, TreeSpec::new(1_000_000));
        };
        for (first, second) in [(flat, tree), (tree, flat), (flat, flat), (tree, tree)] {
            let mut net = Network::new(14);
            let a = net.add_node("a");
            let b = net.add_node("b");
            let link = net.connect(a, b, LinkSpec::lan());
            first(&mut net, link);
            let second_mount = std::panic::AssertUnwindSafe(|| second(&mut net, link));
            let panic = std::panic::catch_unwind(second_mount).expect_err("occupied slot");
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"link already has an egress plane")
            );
        }
    }

    /// A shaping tree on hop 1 and a flat qdisc on hop 2 of one path:
    /// every copy suspends and resumes in both planes through the same
    /// slot machinery. Whichever plane is the bottleneck sets CE, and
    /// the mark survives the other plane to [`Datagram::ecn_ce`]; a
    /// non-ECT flood beside it is dropped, and every copy is accounted
    /// for.
    #[test]
    fn tree_then_qdisc_on_one_path() {
        // `(leaf_bps, flat_bps)` → arrivals at `b`, final stats, CE
        // marks the tree leaf set, CE marks the flat plane set.
        let run = |leaf_bps: u64, flat_bps: u64| -> (Vec<Datagram>, NetStats, u64, u64) {
            let mut net = Network::new(15);
            let a = net.add_node("a");
            let r = net.add_node("r");
            let b = net.add_node("b");
            let hop1 = net.connect(a, r, LinkSpec::lan());
            let hop2 = net.connect(r, b, LinkSpec::lan());
            let mut spec = TreeSpec::new(80_000_000);
            let plan = RatePlan::new("leaf", leaf_bps, leaf_bps);
            spec.add_subscriber(htb::ROOT, "b", &plan, b.0);
            let tree_stats = net.attach_tree(hop1, spec.with_codel(5_000, 20_000));
            let mut cfg = QdiscConfig::for_rate(flat_bps);
            cfg.codel_target_us = 5_000;
            cfg.codel_interval_us = 20_000;
            net.attach_qdisc(hop2, cfg);
            let ect = net.bind(a, Port(5004)).unwrap();
            let plain = net.bind(a, Port(9000)).unwrap();
            let media = net.bind(b, Port(5004)).unwrap();
            let other = net.bind(b, Port(9000)).unwrap();
            net.set_ecn(ect, true);
            for _ in 0..60 {
                net.send(ect, Addr::unicast(b, Port(5004)), vec![0u8; 500])
                    .unwrap();
                net.send(plain, Addr::unicast(b, Port(9000)), vec![0u8; 500])
                    .unwrap();
                net.run_for(Ticks::from_millis(2));
            }
            net.run_to_quiescence();
            let mut arrivals: Vec<Datagram> = std::iter::from_fn(|| net.recv(media)).collect();
            assert_eq!(arrivals.len(), 60, "ECT flow is marked, never dropped");
            arrivals.extend(std::iter::from_fn(|| net.recv(other)));
            let flat_marks = net.qdisc_stats(hop2).unwrap().ecn_marks();
            // Node layout: 0 root, 1 default, 2 the subscriber leaf.
            (
                arrivals,
                net.stats().clone(),
                tree_stats.ecn_marks(2),
                flat_marks,
            )
        };
        for (leaf_bps, flat_bps) in [(800_000, 8_000_000), (8_000_000, 800_000)] {
            let (arrivals, stats, tree_marks, flat_marks) = run(leaf_bps, flat_bps);
            let ce = arrivals.iter().filter(|d| d.ecn_ce).count() as u64;
            assert!(ce > 0, "the bottleneck plane must mark");
            assert_eq!(ce, tree_marks + flat_marks, "no mark lost on the way");
            if leaf_bps < flat_bps {
                assert_eq!((tree_marks, flat_marks), (ce, 0), "hop 1 marked");
            } else {
                assert_eq!((tree_marks, flat_marks), (0, ce), "hop 2 marked");
            }
            assert!(stats.qdisc_dropped > 0, "non-ECT flood is dropped");
            assert_eq!(stats.sent, 120);
            assert_eq!(stats.sent, stats.delivered + stats.dropped);
            assert_eq!(stats.delivered, arrivals.len() as u64);
            let (again, again_stats, ..) = run(leaf_bps, flat_bps);
            assert_eq!((arrivals, stats), (again, again_stats));
        }
    }

    /// Same seed + same qdisc config ⇒ identical arrival trace — and
    /// the trace the parent commit produced.
    #[test]
    fn qdisc_runs_are_deterministic() {
        let run = || -> (Vec<Datagram>, NetStats) {
            let mut net = Network::new(11);
            let a = net.add_node("a");
            let b = net.add_node("b");
            let link = net.connect(a, b, LinkSpec::wireless()); // has loss
            net.attach_qdisc(link, QdiscConfig::for_rate(500_000));
            let sa = net.bind(a, Port(5004)).unwrap();
            let sb = net.bind(b, Port(5004)).unwrap();
            net.set_ecn(sa, true);
            for n in 0..40u8 {
                net.send(sa, Addr::unicast(b, Port(5004)), vec![n; 200])
                    .unwrap();
                net.run_for(Ticks::from_millis(2));
            }
            net.run_to_quiescence();
            let out: Vec<Datagram> = std::iter::from_fn(|| net.recv(sb)).collect();
            (out, net.stats().clone())
        };
        let (arrivals, stats) = run();
        assert_eq!((arrivals.clone(), stats.clone()), run());
        assert_eq!(run_digest(&arrivals, &stats), 0x2f64a1310c6d4dea);
    }

    /// A four-host star with nothing mounted: every link has Bernoulli
    /// loss plus a full fault model (burst loss, jitter, reorder,
    /// duplication), every host has a socket in one multicast group.
    /// `cut` isolates that host from the switch.
    fn faulty_lan(seed: u64, cut: Option<usize>) -> (Network, GroupId, Vec<SocketHandle>) {
        use crate::faults::{FaultModel, GilbertElliott};
        let mut net = Network::new(seed);
        let (_switch, hosts) = net.lan(&["h0", "h1", "h2", "h3"], LinkSpec::lan().with_loss(0.05));
        let model = FaultModel::none()
            .with_burst(GilbertElliott::bursty(0.1, 0.3, 0.5))
            .with_jitter(Ticks::from_micros(300))
            .with_reorder(0.2, Ticks::from_millis(2))
            .with_duplicate(0.1);
        for l in 0..hosts.len() as u32 {
            net.topology_mut().set_link_fault(LinkId(l), Some(model));
        }
        let group = net.new_group();
        let socks: Vec<SocketHandle> = hosts
            .iter()
            .map(|&h| {
                let s = net.bind(h, Port(7000)).unwrap();
                net.join(s, group).unwrap();
                s
            })
            .collect();
        if let Some(i) = cut {
            net.topology_mut().partition(&[hosts[i]]);
        }
        (net, group, socks)
    }

    fn drain_all(net: &mut Network, socks: &[SocketHandle]) -> Vec<Datagram> {
        socks
            .iter()
            .flat_map(|&s| std::iter::from_fn(|| net.recv(s)).collect::<Vec<_>>())
            .collect()
    }

    /// The path no egress plane touches — multi-hop multicast over
    /// lossy, faulty links — pinned to the trace the analytic hop loop
    /// produced at the commit before it was folded into the in-flight
    /// walk.
    #[test]
    fn planeless_runs_are_deterministic() {
        let run = || -> (Vec<Datagram>, NetStats) {
            let (mut net, group, socks) = faulty_lan(17, None);
            let dst = Addr::multicast(group, Port(7000));
            for n in 0..30u8 {
                net.send(socks[0], dst, vec![n; 100]).unwrap();
                let batch: Vec<Vec<u8>> = (1..4).map(|k| vec![n; 100 * k]).collect();
                assert_eq!(net.send_batch(socks[1], dst, batch), Ok(9));
                net.run_for(Ticks::from_micros(400));
            }
            net.run_to_quiescence();
            (drain_all(&mut net, &socks), net.stats().clone())
        };
        let (arrivals, stats) = run();
        assert!(stats.dropped > 0 && stats.duplicated > 0, "faults fired");
        assert_eq!((arrivals.clone(), stats.clone()), run());
        assert_eq!(run_digest(&arrivals, &stats), 0x325dc244409ce5b3);
    }

    /// `send(p)` is `send_batch(vec![p])`: same copies, same RNG draws,
    /// same counters, same errors — unicast and multicast, reachable or
    /// not, oversized or not.
    #[test]
    fn send_is_the_one_packet_batch() {
        type Send1 = fn(&mut Network, SocketHandle, Addr, Vec<u8>) -> Result<(), NetError>;
        let single: Send1 = |net, s, dst, p| net.send(s, dst, p);
        let batch: Send1 = |net, s, dst, p| net.send_batch(s, dst, vec![p]).map(|_| ());
        let run = |send: Send1, cut: Option<usize>, unicast: bool| {
            let (mut net, group, socks) = faulty_lan(23, cut);
            let dst = if unicast {
                Addr::unicast(net.socket_node(socks[2]), Port(7000))
            } else {
                Addr::multicast(group, Port(7000))
            };
            let mut results = Vec::new();
            for n in 0..40u8 {
                results.push(send(&mut net, socks[0], dst, vec![n; 64]));
                net.run_for(Ticks::from_micros(200));
            }
            results.push(send(&mut net, socks[0], dst, vec![0; MAX_DATAGRAM + 1]));
            net.run_to_quiescence();
            let arrivals = drain_all(&mut net, &socks);
            (results, run_digest(&arrivals, net.stats()), arrivals.len())
        };
        // Digests of the `send` runs at the commit before the fold.
        for (unicast, pinned) in [(true, 0xb80ddab524d93dab), (false, 0x2a80cc2c1a872d24)] {
            let (results, digest, arrived) = run(single, None, unicast);
            assert_eq!(digest, pinned);
            assert!(results[..40].iter().all(Result::is_ok));
            assert_eq!(
                results[40],
                Err(NetError::PayloadTooLarge(MAX_DATAGRAM + 1))
            );
            assert_eq!((results, digest, arrived), run(batch, None, unicast));
            // Host 2 cut off: unicast fails outright; multicast reaches
            // host 1, then fails at host 2 and never tries host 3.
            let (results, digest, arrived) = run(single, Some(2), unicast);
            assert!(matches!(results[0], Err(NetError::Unreachable(_, _))));
            assert_eq!(arrived > 0, !unicast);
            assert_eq!((results, digest, arrived), run(batch, Some(2), unicast));
        }
    }
}
