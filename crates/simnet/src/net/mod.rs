//! The network simulator core: sockets, datagram transmission,
//! multicast groups, and the event loop.
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
//! core, which launches every copy as an `InFlight` on
//! `Network::advance_flight`, the only link walk. A unicast looks its
//! route up; a multicast reads its receivers and their routes off the
//! group's fan-out list for the sender's tree root (the sender, or a
//! single-homed sender's one neighbour), rebuilt only when membership
//! or the topology epoch moved, and puts the sender's access link in
//! front of each route. A copy suspended between hops waits in a slab
//! (`Parked`) and its event carries the index, so a wheel cell is
//! 48 bytes whatever a copy carries. A
//! link has one egress slot: empty, the walk crosses it as the plain
//! analytic FIFO; mounted, it holds one shaping tree of `crates/htb`
//! — compiled from a `TreeSpec`, or from a `QdiscConfig` as the flat
//! class plane's four class leaves — and the walk suspends in its
//! queues. One service event and one enqueue / kick / service path
//! drive it (arrival → `enqueue` → `next_ready`; service → `dequeue` →
//! `next_ready`).
//!
//! What lives where: this file — the public vocabulary, the
//! [`Network`], its clock, topology, counters, the scripted
//! fault plan and the run loop; `sockets` — bind / close / receive,
//! groups, `(node, port)` resolution; `egress` — mounting a tree in a
//! link's egress slot; `datapath` — everything a packet copy
//! touches between `send` and an inbox. The datapath is one module on
//! purpose: `send_payloads` → `advance_flight` → `traverse_link` →
//! `roll_link_loss` → `deliver`, suspended and resumed through the
//! three `*_egress` functions, call each other per copy, and split by
//! egress / no egress neither half could be read — or inlined —
//! without the other.

mod datapath;
mod egress;
mod sockets;
#[cfg(test)]
mod tests;

use crate::faults::{FaultAction, FaultPlan};
use crate::packet::Port;
use crate::payload::{Payload, PayloadMut};
use crate::time::{SimClock, Ticks};
use crate::topology::{LinkSpec, NodeId, Topology};
use crate::trace::{NetStats, NetStatsHandle};
use crate::wheel::TimingWheel;
use datapath::{LinkEgress, NetEvent, Parked};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sockets::{Group, Socket};

/// The most spare buffers a [`Network`] keeps for [`Network::buffer`].
const MAX_SPARES: usize = 64;
/// The largest capacity, in bytes, of a buffer kept as a spare.
const MAX_SPARE_CAPACITY: usize = 16 << 10;

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
    /// Payload exceeds [`MAX_DATAGRAM`](crate::packet::MAX_DATAGRAM).
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

/// The simulated network: topology + sockets + clock + event queue.
///
/// All operations are synchronous from the caller's point of view:
/// `send` schedules future deliveries, `run_until`/`run_for` advance
/// the clock processing deliveries, and `recv` drains a
/// socket's inbox.
pub struct Network {
    topo: Topology,
    clock: SimClock,
    queue: TimingWheel<NetEvent>,
    sockets: Vec<Socket>,
    /// Per-node port tables, indexed by dense node id: each entry is a
    /// short `(port, socket)` list sorted by port for binary search.
    port_map: Vec<Vec<(Port, SocketHandle)>>,
    /// Groups indexed by dense group id: member lists kept sorted by
    /// socket index, so multicast fan-out visits them in exactly the
    /// order the historical all-sockets scan did, and their fan-out
    /// lists.
    groups: Vec<Group>,
    rng: StdRng,
    stats: NetStatsHandle,
    /// Scripted fault actions sorted by time; `plan_next` indexes the
    /// first not-yet-applied entry.
    plan: FaultPlan,
    plan_next: usize,
    /// Egress slots indexed by dense link id (`None` where the link
    /// is the plain FIFO). Grown only by `mount`, so the table is
    /// empty — and the walk's per-hop lookup a failed bounds check —
    /// until something mounts.
    egress: Vec<Option<LinkEgress>>,
    /// Copies between two hops, indexed by their `Hop` events.
    parked: Parked,
    /// Every launch's target and route links, for the fan-out list's
    /// differential test.
    #[cfg(test)]
    launched: Vec<(Option<SocketHandle>, Vec<crate::topology::LinkId>)>,
    /// Buffers given back by their readers, for the next sends.
    spares: Vec<PayloadMut>,
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
            stats: NetStatsHandle::new(),
            plan: FaultPlan::new(),
            plan_next: 0,
            egress: Vec::new(),
            parked: Parked::default(),
            #[cfg(test)]
            launched: Vec::new(),
            spares: Vec::with_capacity(MAX_SPARES),
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

    /// Cumulative traffic statistics, copied out of the cells
    /// [`Network::stats_handle`] reads.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// A lock-free shared view of the traffic counters. The handle
    /// stays live (and readable from any thread) while the simulation
    /// runs; clones share the same atomic cells.
    pub fn stats_handle(&self) -> NetStatsHandle {
        self.stats.clone()
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

    /// Advance simulated time by `d`.
    pub fn run_for(&mut self, d: Ticks) {
        let deadline = self.clock.now() + d;
        self.run_until(deadline);
    }

    /// Run until the event queue is empty and every scripted fault
    /// action has been applied (all in-flight traffic and plan
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
}
