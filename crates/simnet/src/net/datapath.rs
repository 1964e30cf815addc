//! The datapath: one send core, one link walk, one egress enqueue /
//! kick / service path, one event dispatch. One module because each
//! calls the next per packet copy (see the parent's header).

use super::{Addr, Datagram, GroupId, NetError, Network, SocketHandle};
use crate::packet::{Port, WirePacket, HEADER_OVERHEAD, MAX_DATAGRAM};
use crate::payload::Payload;
use crate::time::Ticks;
use crate::topology::{LinkId, NodeId, Route};
use crate::trace::Counter;
use htb::{EnqueueOutcome, ShapingTree};
use rand::Rng;

/// A packet copy travelling a path. Links with an empty egress slot
/// are traversed analytically; a mounted hop suspends the walk in the
/// plane's queues and resumes it as a [`NetEvent::Hop`] on release.
#[derive(Debug)]
pub(super) struct InFlight {
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

#[derive(Debug)]
pub(super) enum NetEvent {
    /// Put a copy into `socket`'s inbox; it arrives at the event's own
    /// instant.
    Deliver {
        socket: SocketHandle,
        src_node: NodeId,
        src_port: Port,
        dst: Addr,
        payload: Payload,
        ecn_ce: bool,
    },
    /// Resume the path walk of the copy parked at `flight` in
    /// [`Parked`] at its arrival instant on the next hop.
    Hop { flight: u32 },
    /// Serve one packet from the egress plane on `link`. `gen`
    /// invalidates events superseded by an earlier reschedule.
    EgressService { link: LinkId, gen: u64 },
}

// Every wheel cell is as wide as the widest event: a copy between two
// hops waits in `Parked`, not in the cell, so what a hop carries (its
// route, its stamps) never widens the millions of `Deliver` events.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 32);

/// Copies suspended between two hops while their [`NetEvent::Hop`]
/// waits in the wheel: a slab of cells, each vacant one on a free list,
/// grown to the most copies ever suspended at once and kept.
#[derive(Debug, Default)]
pub(super) struct Parked {
    cells: Vec<Option<InFlight>>,
    vacant: Vec<u32>,
}

impl Parked {
    fn park(&mut self, flight: InFlight) -> u32 {
        match self.vacant.pop() {
            Some(i) => {
                self.cells[i as usize] = Some(flight);
                i
            }
            None => {
                self.cells.push(Some(flight));
                (self.cells.len() - 1) as u32
            }
        }
    }

    fn unpark(&mut self, i: u32) -> InFlight {
        self.vacant.push(i);
        self.cells[i as usize]
            .take()
            .expect("a hop event's copy is parked")
    }
}

/// A link's mounted egress plane plus its service scheduling state.
pub(super) struct LinkEgress {
    /// Boxed: the tree keeps its scheduler index inline, and every slot
    /// of the egress table, mounted or not, is as wide as a mounted one.
    pub(super) plane: Box<ShapingTree<InFlight>>,
    /// Instant of the currently scheduled service event, if any.
    pub(super) service_at: Option<Ticks>,
    /// Generation of the live service event; stale events are ignored.
    pub(super) gen: u64,
}

impl Network {
    /// The tree mounted on `link`, if any.
    pub(super) fn plane(&self, link: LinkId) -> Option<&ShapingTree<InFlight>> {
        Some(&self.egress.get(link.0 as usize)?.as_ref()?.plane)
    }

    fn egress_mut(&mut self, link: LinkId) -> Option<&mut LinkEgress> {
        self.egress.get_mut(link.0 as usize)?.as_mut()
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
    /// the group's fan-out list is read once for the whole batch
    /// (instead of per payload), and every payload is launched along
    /// each member's route in order. Per-receiver
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

    /// The one send path: validate, count, then launch a copy of every
    /// payload to each receiver along its route. A unicast receiver's
    /// route is looked up; a multicast reads the group's fan-out list
    /// for the sender's tree root. A receiver without a route fails the
    /// call after the receivers before it have been served.
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
        self.stats.add(Counter::Sent, payloads.len() as u64);
        let bytes = payloads.iter().map(|p| (p.len() + HEADER_OVERHEAD) as u64);
        self.stats.add(Counter::BytesSent, bytes.sum());
        let launch = Launch {
            src_node,
            src_port,
            dst,
            ecn_capable,
            payloads,
        };
        match dst {
            Addr::Unicast(node, port) => {
                // A datagram to an unbound port is silently discarded,
                // like real UDP (no ICMP in this simulator).
                let target = self.socket_at(node, port);
                let route = self
                    .topo
                    .route_cached(src_node, node)
                    .ok_or(NetError::Unreachable(src_node, node))?;
                self.launch(&launch, target, route);
                Ok(payloads.len())
            }
            Addr::Multicast(group, port) => self.multicast(s, group, port, &launch),
        }
    }

    /// Fan `launch` out to every open member of `group` bound on
    /// `port` but the sender, in socket order. A sender's route to a
    /// member on its own node is empty; to any other, its access link
    /// (if single-homed) and the member's route on the fan-out list.
    fn multicast(
        &mut self,
        s: SocketHandle,
        group: GroupId,
        port: Port,
        launch: &Launch<'_>,
    ) -> Result<usize, NetError> {
        let src_node = launch.src_node;
        let (first, root) = self.topo.tree_root(src_node);
        let access_up = first.is_none_or(|l| self.topo.link_up(l));
        let Some(list) = self.take_fanout(group, root) else {
            return Ok(0);
        };
        // Not `?` in the loop: the list goes back on `self` even when a
        // receiver has no route.
        let mut sent = Ok(0);
        for r in list.1.iter().filter(|r| r.port == port && r.socket != s) {
            let route = match (&r.route, first) {
                _ if r.node == src_node => Some(Route::with_len(0)),
                _ if !access_up => None,
                (Some(rest), Some(first)) => Some(Route::after(first, rest)),
                (rest, _) => rest.clone(),
            };
            let Some(route) = route else {
                sent = Err(NetError::Unreachable(src_node, r.node));
                break;
            };
            self.launch(launch, Some(r.socket), route);
            sent = sent.map(|n| n + launch.payloads.len());
        }
        self.put_fanout(group, list);
        sent
    }

    /// Launch a copy of every payload of `launch` to `target` along
    /// `route`. `repeat_n` moves the route into the last copy, so only
    /// a spilled route in a multi-payload batch clones.
    fn launch(&mut self, launch: &Launch<'_>, target: Option<SocketHandle>, route: Route) {
        #[cfg(test)]
        self.launched.push((target, route.links().to_vec()));
        let routes = std::iter::repeat_n(route, launch.payloads.len());
        for (payload, route) in launch.payloads.iter().zip(routes) {
            self.advance_flight(InFlight {
                packet: WirePacket {
                    src_node: launch.src_node,
                    src_port: launch.src_port,
                    payload: payload.clone(),
                },
                route,
                dst: launch.dst,
                target,
                ecn_capable: launch.ecn_capable,
                ce: false,
                duplicate: false,
            });
        }
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
                self.stats.add(Counter::FifoDropped, 1);
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
        let deliver = |payload| NetEvent::Deliver {
            socket,
            src_node: flight.packet.src_node,
            src_port: flight.packet.src_port,
            dst: flight.dst,
            payload,
            ecn_ce: flight.ce,
        };
        if flight.duplicate {
            self.stats.add(Counter::Duplicated, 1);
            let copy = deliver(flight.packet.payload.clone());
            self.queue.schedule(t, copy);
        }
        self.queue.schedule(t, deliver(flight.packet.payload));
    }

    /// Suspend `flight` until `t`, when its walk resumes on its next hop.
    fn schedule_hop(&mut self, t: Ticks, flight: InFlight) {
        let flight = self.parked.park(flight);
        self.queue.schedule(t, NetEvent::Hop { flight });
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
                    self.schedule_hop(t, flight);
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
                self.stats.add(Counter::Dropped, 1);
                return;
            }
            flight.route.advance();
        }
        self.deliver(flight, t);
    }

    /// Offer an arriving copy to the egress plane on `link` and
    /// (re)schedule service. The tree picks a subscriber leaf by the
    /// copy's *final destination node* — for multicast fan-out, the
    /// member socket's node — so each subscriber's traffic meets its
    /// own plan and AQM regardless of addressing; any other copy rides
    /// the default leaf of its destination port's class.
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
        let (Addr::Unicast(_, Port(port)) | Addr::Multicast(_, Port(port))) = flight.dst;
        let (bytes, ecn) = (flight.packet.wire_size() as u32, flight.ecn_capable);
        let t = now.as_micros();
        match slot.plane.enqueue(t, dst_node, port, bytes, ecn, flight) {
            EnqueueOutcome::Queued => self.kick_egress(link),
            EnqueueOutcome::TailDropped(_) => {
                self.stats.add(Counter::Dropped, 1);
                self.stats.add(Counter::QdiscDropped, 1);
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
        self.stats.add(Counter::Dropped, aqm_drops);
        self.stats.add(Counter::QdiscDropped, aqm_drops);
        if let Some(rel) = out.released {
            let mut flight = rel.payload;
            if rel.ecn_marked {
                self.stats.add(Counter::EcnMarked, 1);
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
                    self.schedule_hop(t, flight);
                } else {
                    self.deliver(flight, t);
                }
            } else {
                self.stats.add(Counter::Dropped, 1);
            }
        }
        self.kick_egress(link);
    }

    /// Process every queued event due at or before `deadline` and
    /// advance the clock to it (no fault-plan interleaving). Deliveries
    /// are counted once per drain, not once per copy.
    pub(super) fn drain_until(&mut self, deadline: Ticks) {
        let (mut delivered, mut bytes_delivered) = (0, 0);
        while let Some(ev) = self.queue.pop_before(deadline) {
            self.clock.advance_to(ev.at);
            match ev.event {
                NetEvent::Deliver {
                    socket,
                    src_node,
                    src_port,
                    dst,
                    payload,
                    ecn_ce,
                } => {
                    let sock = &mut self.sockets[socket.0 as usize];
                    if sock.open {
                        delivered += 1;
                        bytes_delivered += (payload.len() + HEADER_OVERHEAD) as u64;
                        sock.inbox.push_back(Datagram {
                            src_node,
                            src_port,
                            dst,
                            payload,
                            arrived_at: ev.at,
                            ecn_ce,
                        });
                    }
                }
                NetEvent::Hop { flight } => {
                    let flight = self.parked.unpark(flight);
                    self.advance_flight(flight);
                }
                NetEvent::EgressService { link, gen } => self.service_egress(link, gen),
            }
        }
        if delivered > 0 {
            self.stats.add(Counter::Delivered, delivered);
            self.stats.add(Counter::BytesDelivered, bytes_delivered);
        }
        self.clock.advance_to(deadline);
    }
}

/// What every copy of one send shares.
struct Launch<'a> {
    src_node: NodeId,
    src_port: Port,
    dst: Addr,
    ecn_capable: bool,
    payloads: &'a [Payload],
}
