//! # broker — content-based routing overlay for the semantic bus
//!
//! The paper's semantic publisher–subscriber substrate (§3) floods
//! every message to every endpoint of a session; each endpoint then
//! interprets the selector locally. That is faithful for a lab-sized
//! session but scales as O(N·M) interpretations. This crate adds a
//! SIENA-style multi-broker overlay on top of `sempubsub` + `simnet`:
//!
//! * [`algebra`] — satisfiability and covering/subsumption over the
//!   existing selector AST (`covers(a, b)` ⇒ every profile matching
//!   `b` matches `a`), used to aggregate downstream subscriptions,
//! * [`overlay`] — broker nodes with unicast mesh links and per-domain
//!   multicast groups; subscription advertisements flood with
//!   generation numbers and a hop bound, are merged via covering
//!   before re-advertisement, and drive per-link forwarding decisions;
//!   messages carry a `(sender, seq)` dedup id and never revisit a
//!   broker, which remembers each id it has seen as one bit: per
//!   interned origin a sliding 64-seq window above a watermark, and
//!   one word per 64-seq block past it (`dedup`),
//! * [`mib`] — per-broker SNMP instrumentation under `tassl.21.*`
//!   (routing-table size, forwarded, suppressed, advertisements
//!   merged) served through the existing agent.
//!
//! Delivery semantics are unchanged: a brokered session produces
//! bit-identical results to a flat-multicast session; the overlay only
//! removes interpretations that were guaranteed to reject.
#![forbid(unsafe_code)]

pub mod algebra;
mod dedup;
pub mod mib;
pub mod overlay;

pub use algebra::{covers, covers_expr, merge_covering, satisfiable};
pub use mib::install_broker_metrics;
pub use overlay::{
    merge_advertisements, Advertisement, BrokerNode, BrokerStatsHandle, Overlay, ADV_KIND, MAX_HOPS,
};
