//! # sysmon — simulated hosts and the embedded SNMP extension agent
//!
//! The paper's testbed recorded page faults and CPU load on Windows NT
//! workstations through "a specialized embedded extension agent that
//! runs on each host and is serviced by instrumentation routines"
//! (§5.5). This crate provides the substitute: a [`SimHost`] whose
//! CPU-load and page-fault processes follow configurable generator
//! profiles (constant, linear sweep, sinusoid, seeded random walk), and
//! [`agent::install_host_agent`], which registers instrumentation
//! routines for those metrics in an [`snmp::SnmpAgent`] under the
//! private enterprise arc, so a management station reads them with
//! ordinary SNMP GETs over the simulated network.
#![forbid(unsafe_code)]

pub mod agent;
pub mod host;
pub mod workload;

pub use agent::{install_host_agent, HOST_METRICS};
pub use host::{HostState, LoadProfile, SharedHost, SimHost};
pub use workload::sweep;
