//! Sockets and multicast groups: the slab of bound endpoints, the
//! per-node port tables, and the per-group member lists (sorted by
//! socket index, so fan-out order never depends on join order) with
//! their fan-out lists.

use super::{Datagram, GroupId, NetError, Network, SocketHandle, MAX_SPARES, MAX_SPARE_CAPACITY};
use crate::packet::Port;
use crate::payload::{Payload, PayloadMut};
use crate::topology::{NodeId, Route};
use std::collections::VecDeque;

/// A multicast group: its members and what a send to it reads.
#[derive(Debug, Default)]
pub(super) struct Group {
    /// Member sockets, sorted by socket index: the fan-out order.
    pub(super) members: Vec<SocketHandle>,
    /// One fan-out list per tree root a send to the group was made
    /// from, rebuilt in place when it went stale.
    lists: Vec<FanoutList>,
}

/// The group's open members, in fan-out order, each with its route
/// from one tree root ([`crate::topology::Topology::tree_root`]): every
/// sender reading routes off that root's tree shares the list, and
/// prefixes its own access link to each route.
#[derive(Debug)]
struct FanoutList {
    root: NodeId,
    /// Topology epoch the routes were read at; `None` once the
    /// group's membership moved.
    epoch: Option<u64>,
    receivers: Vec<Receiver>,
}

/// One member socket on a fan-out list.
#[derive(Debug)]
pub(super) struct Receiver {
    pub(super) socket: SocketHandle,
    pub(super) node: NodeId,
    pub(super) port: Port,
    /// From the list's root; `None` when the root cannot reach `node`.
    pub(super) route: Option<Route>,
}

#[derive(Debug)]
pub(super) struct Socket {
    pub(super) node: NodeId,
    pub(super) port: Port,
    pub(super) inbox: VecDeque<Datagram>,
    /// Groups this socket belongs to (small, sorted; the authoritative
    /// membership lives in the per-group member lists).
    groups: Vec<GroupId>,
    pub(super) open: bool,
    /// Whether traffic sent from this socket is ECN-capable (ECT):
    /// AQM on a congested link marks it instead of dropping it.
    pub(super) ecn: bool,
}

impl Network {
    /// Socket bound to `(node, port)`, if any.
    pub(super) fn socket_at(&self, node: NodeId, port: Port) -> Option<SocketHandle> {
        let table = self.port_map.get(node.0 as usize)?;
        table
            .binary_search_by_key(&port, |&(p, _)| p)
            .ok()
            .map(|i| table[i].1)
    }

    /// Declare traffic sent from socket `s` ECN-capable (or not).
    /// AQM marks ECN-capable packets where it would drop others.
    pub fn set_ecn(&mut self, s: SocketHandle, enabled: bool) {
        if let Some(sock) = self.sockets.get_mut(s.0 as usize) {
            sock.ecn = enabled;
        }
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
            self.drop_member(s, g);
        }
    }

    /// Take `s` off `g`'s member list, if it is on it.
    fn drop_member(&mut self, s: SocketHandle, g: GroupId) {
        if let Some(group) = self.groups.get_mut(g.0 as usize) {
            if let Ok(i) = group.members.binary_search_by_key(&s.0, |m| m.0) {
                group.members.remove(i);
                group.membership_moved();
            }
        }
    }

    /// Allocate a fresh multicast group id.
    pub fn new_group(&mut self) -> GroupId {
        let g = GroupId(self.groups.len() as u32);
        self.groups.push(Group::default());
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
            self.groups.resize_with(idx + 1, Group::default);
        }
        let group = &mut self.groups[idx];
        if let Err(i) = group.members.binary_search_by_key(&s.0, |m| m.0) {
            group.members.insert(i, s);
            group.membership_moved();
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
        self.drop_member(s, g);
        Ok(())
    }

    /// Take `group`'s fan-out list for `root` out of the table, rebuilt
    /// first if membership or the topology epoch moved since it was
    /// read; `None` for a group never allocated. The caller hands it
    /// back with [`Network::put_fanout`], so a list is read in place
    /// of the network it launches copies on and its buffer is reused.
    pub(super) fn take_fanout(
        &mut self,
        group: GroupId,
        root: NodeId,
    ) -> Option<(usize, Vec<Receiver>)> {
        let epoch = self.topo.epoch();
        let g = self.groups.get_mut(group.0 as usize)?;
        let at = match g.lists.iter().position(|l| l.root == root) {
            Some(at) => at,
            None => {
                g.lists.push(FanoutList {
                    root,
                    epoch: None,
                    receivers: Vec::new(),
                });
                g.lists.len() - 1
            }
        };
        let list = &mut g.lists[at];
        let mut receivers = std::mem::take(&mut list.receivers);
        if list.epoch != Some(epoch) {
            list.epoch = Some(epoch);
            receivers.clear();
            for &m in &g.members {
                let sock = &self.sockets[m.0 as usize];
                if sock.open {
                    receivers.push(Receiver {
                        socket: m,
                        node: sock.node,
                        port: sock.port,
                        route: self.topo.route_from_root(root, sock.node),
                    });
                }
            }
        }
        Some((at, receivers))
    }

    /// Hand back the list [`Network::take_fanout`] took.
    pub(super) fn put_fanout(&mut self, group: GroupId, (at, receivers): (usize, Vec<Receiver>)) {
        self.groups[group.0 as usize].lists[at].receivers = receivers;
    }

    /// Node a socket is bound on.
    pub fn socket_node(&self, s: SocketHandle) -> NodeId {
        self.sockets[s.0 as usize].node
    }

    /// Pop the oldest pending datagram on socket `s`, if any.
    pub fn recv(&mut self, s: SocketHandle) -> Option<Datagram> {
        self.sockets.get_mut(s.0 as usize)?.inbox.pop_front()
    }

    /// A buffer to write the next datagram into: a spare one that
    /// [`Network::recycle`] kept, or a fresh one. It is empty.
    pub fn buffer(&mut self) -> PayloadMut {
        self.spares.pop().unwrap_or_default()
    }

    /// Give back a payload its reader is done with. The buffer is kept
    /// for [`Network::buffer`] only if this was its last handle, and
    /// only up to 64 spares of at most 16 KiB each.
    pub fn recycle(&mut self, payload: Payload) {
        if self.spares.len() < MAX_SPARES {
            self.spares.extend(payload.reclaim(MAX_SPARE_CAPACITY));
        }
    }

    /// Number of queued datagrams on socket `s`.
    pub fn pending(&self, s: SocketHandle) -> usize {
        self.sockets
            .get(s.0 as usize)
            .map_or(0, |sock| sock.inbox.len())
    }
}

impl Group {
    /// Mark every fan-out list stale: the next send rebuilds it.
    fn membership_moved(&mut self) {
        for list in &mut self.lists {
            list.epoch = None;
        }
    }
}
