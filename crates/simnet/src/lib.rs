//! # simnet — deterministic discrete-event network simulator
//!
//! `simnet` is the substrate that replaces the paper's Windows-NT LAN
//! testbed. It provides:
//!
//! * a microsecond-resolution simulated clock and a hierarchical
//!   timing-wheel event queue ([`time`], [`wheel`]; the reference
//!   ordered heap lives in [`event`]),
//! * nodes and links with bandwidth, propagation latency, and a
//!   Bernoulli loss model ([`topology`]),
//! * UDP-style datagram sockets with unicast and IP-multicast-style
//!   group addressing over slab-allocated endpoint tables ([`net`]),
//!   carrying reference-counted zero-copy payloads ([`payload`]) so
//!   multicast fan-out encodes once and shares the buffer (readers give
//!   spent buffers back for the next sends to write into),
//! * the receiver report of the paper's "thin layer based on the
//!   RTP-RTCP scheme" (§5.1): loss, duplicate and ECN-CE counts and
//!   fractions ([`rtp`]); the receiving application sequences its own
//!   media packets and fills the report,
//! * per-network statistics for tests and benches ([`trace`]),
//! * the one bounded byte reader every wire decoder outside `media`
//!   reads received bytes through ([`wire`]),
//! * an optional per-link shaping tree (token-bucket shaping, DRR
//!   scheduling, ECN-capable CoDel AQM per leaf): the flat class plane
//!   mounted with [`Network::attach_qdisc`] ([`qdisc`]), or a
//!   subscriber hierarchy with [`Network::attach_tree`] ([`htb`]).
//!
//! The simulator is fully deterministic: all randomness (packet loss)
//! derives from a seed supplied to [`Network::new`].
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Network, LinkSpec, Addr, Port, Ticks};
//!
//! let mut net = Network::new(7);
//! let a = net.add_node("alice");
//! let b = net.add_node("bob");
//! net.connect(a, b, LinkSpec::lan());
//! let sa = net.bind(a, Port(5000)).unwrap();
//! let sb = net.bind(b, Port(5000)).unwrap();
//! net.send(sa, Addr::unicast(b, Port(5000)), b"hello".to_vec()).unwrap();
//! net.run_for(Ticks::from_millis(10));
//! let dgram = net.recv(sb).expect("delivered");
//! assert_eq!(dgram.payload, b"hello");
//! ```
#![forbid(unsafe_code)]

pub use htb;

/// The `qdisc` crate's parts and configuration, with the class-keyed
/// front end of the tree a `QdiscConfig` compiles to and that tree's
/// counter handle, whose own counters are the root's.
pub mod qdisc {
    pub use ::qdisc::*;
    pub use htb::{Qdisc, TreeStatsHandle as StatsHandle};
}

pub mod event;
pub mod faults;
pub mod net;
pub mod packet;
pub mod payload;
pub mod rtp;
pub mod time;
pub mod topology;
pub mod trace;
pub mod traffic;
pub mod wheel;
pub mod wire;

pub use faults::{FaultAction, FaultModel, FaultPlan, GilbertElliott};
pub use net::{Addr, Datagram, GroupId, Network, SocketHandle};
pub use packet::Port;
pub use payload::{Payload, PayloadMut};
pub use time::{SimClock, Ticks};
pub use topology::{LinkId, LinkSpec, NodeId};
pub use trace::{NetStats, NetStatsHandle};
pub use wheel::TimingWheel;
