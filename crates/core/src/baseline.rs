//! The centralized-server baseline architecture.
//!
//! §2: "Centralized server based collaboration architectures, where
//! session management is performed by a single central server, provide
//! tightly controlled interactions ... However these architectures are
//! not scalable and cannot readily adapt to changing client interests
//! and capabilities." §7 names Habanero's "central arbitrator" and
//! "central router" as the concrete instance.
//!
//! The central server here implements that design faithfully: clients
//! register by name with their profile (the roster the semantic
//! substrate never needs), every event is **unicast to the server**,
//! and the server interprets profiles and **unicasts a copy to each
//! interested client**. [`compare_architectures`] runs the same
//! workload over both designs and reports wire bytes, delivery
//! latency, and server load — the quantities behind the paper's
//! scalability argument.

use sempubsub::{MatchEngine, Profile, SemanticMessage, WireMessage};
use simnet::packet::well_known;
use simnet::{Addr, LinkSpec, Network, NodeId, Port, SocketHandle, Ticks};
use std::collections::BTreeMap;

/// A registered client on the central server.
struct Registration {
    name: String,
    node: NodeId,
    profile: Profile,
}

/// The Habanero-style central arbitrator + router.
struct CentralServer {
    socket: SocketHandle,
    /// The global roster the paper's design eliminates.
    roster: Vec<Registration>,
    /// Compiles each selector once and interprets it against every
    /// roster profile's snapshot.
    matcher: MatchEngine,
    /// Events routed (server load proxy).
    pub events_routed: u64,
    /// Copies fanned out.
    pub copies_sent: u64,
}

/// The port the central server listens on.
const SERVER_PORT: Port = Port(6000);

impl CentralServer {
    /// Bind the server on `node`.
    pub fn bind(net: &mut Network, node: NodeId) -> Result<Self, simnet::net::NetError> {
        Ok(CentralServer {
            socket: net.bind(node, SERVER_PORT)?,
            roster: Vec::new(),
            matcher: MatchEngine::new(),
            events_routed: 0,
            copies_sent: 0,
        })
    }

    /// Register a client (name + profile + node): the roster update
    /// that every join costs in this architecture.
    pub fn register(&mut self, name: &str, node: NodeId, profile: Profile) {
        self.roster.push(Registration {
            name: name.to_string(),
            node,
            profile,
        });
    }

    /// Route all pending events: for each, interpret every roster
    /// profile against the selector and unicast a copy to each match.
    pub fn route(&mut self, net: &mut Network) -> usize {
        let mut routed = 0;
        while let Some(dgram) = net.recv(self.socket) {
            let Ok(msg) = WireMessage::decode(&dgram.payload) else {
                continue;
            };
            if self.matcher.compile(msg.selector()).is_err() {
                continue;
            }
            self.events_routed += 1;
            routed += 1;
            for reg in &self.roster {
                if reg.name == msg.sender() {
                    continue;
                }
                let matched = self
                    .matcher
                    .interpret(&reg.profile, msg.selector(), msg.content())
                    .is_ok_and(|o| o.is_ok_and(|o| o.is_accepted()));
                if matched {
                    let _ = net.send(
                        self.socket,
                        Addr::unicast(reg.node, CLIENT_PORT),
                        dgram.payload.clone(),
                    );
                    self.copies_sent += 1;
                }
            }
        }
        routed
    }
}

/// The port baseline clients listen on.
const CLIENT_PORT: Port = Port(6001);

/// A baseline client: sends everything to the server, receives
/// pre-filtered unicasts.
struct BaselineClient {
    socket: SocketHandle,
    server: NodeId,
    name: String,
    seq: u64,
    /// Events received.
    pub received: Vec<WireMessage>,
}

impl BaselineClient {
    /// Bind on `node`, targeting the server.
    pub fn bind(
        net: &mut Network,
        node: NodeId,
        server: NodeId,
        name: &str,
    ) -> Result<Self, simnet::net::NetError> {
        Ok(BaselineClient {
            socket: net.bind(node, CLIENT_PORT)?,
            server,
            name: name.to_string(),
            seq: 0,
            received: Vec::new(),
        })
    }

    /// Send an event to the server for routing.
    pub fn publish(
        &mut self,
        net: &mut Network,
        kind: &str,
        selector: &str,
        body: Vec<u8>,
    ) -> Result<(), simnet::net::NetError> {
        let msg = SemanticMessage {
            sender: self.name.clone(),
            kind: kind.to_string(),
            selector: selector.to_string(),
            seq: self.seq,
            content: BTreeMap::new(),
            body,
        };
        self.seq += 1;
        net.send(
            self.socket,
            Addr::unicast(self.server, SERVER_PORT),
            msg.encode(),
        )
    }

    /// Drain received events.
    pub fn poll(&mut self, net: &mut Network) {
        while let Some(dgram) = net.recv(self.socket) {
            if let Ok(msg) = WireMessage::decode(&dgram.payload) {
                self.received.push(msg);
            }
        }
    }
}

/// Results of one architecture run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchitectureReport {
    /// Application-offered wire bytes (what end hosts and the server
    /// must push; the multicast fabric replicates below this layer).
    pub bytes_sent: u64,
    /// Bytes actually delivered across the fabric (copies included).
    pub bytes_delivered: u64,
    /// Copies delivered to interested clients.
    pub deliveries: u64,
    /// Events the central point processed (0 for peer multicast).
    pub server_events: u64,
    /// Simulated time until the last delivery completed.
    pub completion: Ticks,
}

/// Run the same chat-fanout workload (`n_clients` all interested,
/// `n_events` events from client 0) through both architectures and
/// return `(centralized, multicast)` reports.
pub fn compare_architectures(
    n_clients: usize,
    n_events: usize,
) -> (ArchitectureReport, ArchitectureReport) {
    assert!(n_clients >= 2);
    let interested = |name: &str| {
        let mut p = Profile::new(name);
        p.set(
            "interested_in",
            sempubsub::AttrValue::List(vec![sempubsub::AttrValue::str("chat")]),
        );
        p
    };

    // ---- centralized ----
    let central = {
        let mut net = Network::new(5);
        let names: Vec<String> = (0..n_clients).map(|i| format!("c{i}")).collect();
        let mut all: Vec<&str> = vec!["server"];
        all.extend(names.iter().map(String::as_str));
        let (_sw, nodes) = net.lan(&all, LinkSpec::lan());
        let mut server = CentralServer::bind(&mut net, nodes[0]).unwrap();
        let mut clients: Vec<BaselineClient> = names
            .iter()
            .enumerate()
            .map(|(i, n)| BaselineClient::bind(&mut net, nodes[i + 1], nodes[0], n).unwrap())
            .collect();
        for (i, n) in names.iter().enumerate() {
            server.register(n, nodes[i + 1], interested(n));
        }
        for e in 0..n_events {
            clients[0]
                .publish(
                    &mut net,
                    "chat",
                    "interested_in contains 'chat'",
                    vec![e as u8; 64],
                )
                .unwrap();
        }
        // Route until quiescent.
        loop {
            net.run_for(Ticks::from_millis(5));
            server.route(&mut net);
            if net.stats().delivered >= (n_events * n_clients) as u64 {
                break;
            }
        }
        let completion = net.run_to_quiescence();
        for c in clients.iter_mut() {
            c.poll(&mut net);
        }
        let deliveries: u64 = clients.iter().map(|c| c.received.len() as u64).sum();
        ArchitectureReport {
            bytes_sent: net.stats().bytes_sent,
            bytes_delivered: net.stats().bytes_delivered,
            deliveries,
            server_events: server.events_routed,
            completion,
        }
    };

    // ---- peer multicast (the paper's design) ----
    let multicast = {
        let mut net = Network::new(5);
        let names: Vec<String> = (0..n_clients).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let (_sw, nodes) = net.lan(&name_refs, LinkSpec::lan());
        let group = net.new_group();
        let mut endpoints: Vec<sempubsub::BusEndpoint> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                sempubsub::BusEndpoint::join(
                    &mut net,
                    nodes[i],
                    well_known::SESSION_DATA,
                    group,
                    interested(n),
                )
                .unwrap()
            })
            .collect();
        for e in 0..n_events {
            endpoints[0]
                .publish(
                    &mut net,
                    "chat",
                    "interested_in contains 'chat'",
                    BTreeMap::new(),
                    vec![e as u8; 64],
                )
                .unwrap();
        }
        let completion = net.run_to_quiescence();
        let mut deliveries = 0u64;
        for ep in endpoints.iter_mut() {
            deliveries += ep.poll(&mut net).len() as u64;
        }
        ArchitectureReport {
            bytes_sent: net.stats().bytes_sent,
            bytes_delivered: net.stats().bytes_delivered,
            deliveries,
            server_events: 0,
            completion,
        }
    };

    (central, multicast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_architectures_deliver_everything() {
        let (central, multicast) = compare_architectures(4, 5);
        // 5 events to 3 other clients each.
        assert_eq!(central.deliveries, 15);
        assert_eq!(multicast.deliveries, 15);
        assert_eq!(central.server_events, 5);
        assert_eq!(multicast.server_events, 0);
    }

    #[test]
    fn centralized_costs_more_wire_and_latency() {
        let (central, multicast) = compare_architectures(8, 10);
        // Every event crosses the network twice (client->server,
        // server->each client): strictly more *offered* bytes than
        // multicast, whose fanout happens below the app layer.
        assert!(
            central.bytes_sent > multicast.bytes_sent,
            "central {} vs multicast {}",
            central.bytes_sent,
            multicast.bytes_sent
        );
        // Fabric-delivered bytes are comparable (same copies arrive),
        // confirming the saving is at the app/server layer.
        assert!(central.bytes_delivered >= multicast.bytes_delivered);
        // And the extra hop shows up as completion latency.
        assert!(central.completion >= multicast.completion);
    }

    #[test]
    fn server_load_scales_with_session_not_clients_for_multicast() {
        let (c4, m4) = compare_architectures(4, 6);
        let (c12, m12) = compare_architectures(12, 6);
        // The central router's fanout grows with the roster...
        assert!(c12.bytes_sent > c4.bytes_sent);
        // ...while its event-processing load is the real bottleneck:
        // every event of every client funnels through one box.
        assert_eq!(c4.server_events, 6);
        assert_eq!(c12.server_events, 6);
        // The multicast fabric carries the fanout below the app layer;
        // no single node processes all session events.
        assert_eq!(m4.server_events, 0);
        assert_eq!(m12.server_events, 0);
    }

    #[test]
    fn roster_registration_is_required_in_baseline() {
        // An unregistered client silently receives nothing — the
        // synchronization burden §3 criticizes.
        let mut net = Network::new(1);
        let (_sw, nodes) = net.lan(&["server", "a", "ghost"], LinkSpec::lan());
        let mut server = CentralServer::bind(&mut net, nodes[0]).unwrap();
        let mut a = BaselineClient::bind(&mut net, nodes[1], nodes[0], "a").unwrap();
        let mut ghost = BaselineClient::bind(&mut net, nodes[2], nodes[0], "ghost").unwrap();
        server.register("a", nodes[1], {
            let mut p = Profile::new("a");
            p.set("x", sempubsub::AttrValue::Int(1));
            p
        });
        ghost.publish(&mut net, "chat", "true", vec![1]).unwrap();
        a.publish(&mut net, "chat", "true", vec![2]).unwrap();
        net.run_for(Ticks::from_millis(10));
        server.route(&mut net);
        net.run_to_quiescence();
        a.poll(&mut net);
        ghost.poll(&mut net);
        assert_eq!(a.received.len(), 1, "a hears ghost's event");
        assert!(ghost.received.is_empty(), "ghost is not on the roster");
    }
}
