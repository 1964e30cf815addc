//! Disruption-tolerant custody store for the broker federation.
//!
//! The paper's collaboration sessions assume brokers stay connected,
//! but its heterogeneous-environment story — mobile hosts, wireless
//! links, base stations — makes partitions the norm. This crate is the
//! store-carry-forward layer (modeled on Bundle Protocol 7) each
//! broker attaches: a message addressed to a currently unreachable
//! downstream domain is wrapped as a [`Bundle`] (creation tick,
//! lifetime, sequence number, source/destination domain, custody
//! flag) and retained in a bounded [`CustodyStore`] under a per-broker
//! byte+count quota with deterministic eviction — expired lifetimes
//! first, then the oldest arrival. Custody transfers hop-by-hop toward
//! the partition edge with custody-accepted / custody-refused signals
//! ([`Frame`]), so exactly one broker owns each undelivered bundle at
//! any time. On heal, stored bundles drain in source-sequence order
//! through the overlay's normal selector-covering forward path, whose
//! `(sender, seq)` dedup ids suppress replays: exactly-once, in-order
//! delivery across the partition.
//!
//! The store itself is pure data-structure code — the overlay in
//! `crates/broker` decides *when* to store, transfer, and drain; the
//! session layer surfaces the counters as `tassl.23` MIB rows.
#![forbid(unsafe_code)]

pub mod bundle;
pub mod mib;
pub mod store;

pub use bundle::{Bundle, Frame};
pub use mib::install_store_metrics;
pub use store::{CustodyStore, InsertResult, StoreConfig, StoreStatsHandle};
