//! # cqos-core — the adaptive QoS management framework
//!
//! The paper's primary contribution (§5): a framework that locally
//! adapts shared information to each collaborating client's
//! capabilities, interests, and current system/network state, while
//! preserving semantic content. It composes the workspace substrates:
//!
//! * `sempubsub` — the semantic publisher–subscriber messaging
//!   substrate (profiles, selectors, transform-aware matching),
//! * `simnet` — the multicast communication substrate with the
//!   RTP-like thin reliability layer,
//! * `snmp` + `sysmon` — the network/system state interface,
//! * `media` — the information transformer suite (progressive EZW
//!   images, sketches, text, speech),
//! * `wireless` — the base-station extension (SIR, thresholds, power
//!   control).
//!
//! Modules (mirroring §5's implementation architecture):
//!
//! * [`contract`] — user-specified QoS contracts: constraints over
//!   system and application parameters,
//! * [`policy`] — the policy database consulted by the inference
//!   engine, with the paper's page-fault and CPU-load rule sets,
//! * [`inference`] — the inference engine: fuses client profile and
//!   system state into concrete adaptation decisions (packet budget,
//!   modality, resolution),
//! * [`engines`] — alternative adaptation engines (fuzzy controller,
//!   discrete Bayesian network) behind the
//!   [`AdaptationPolicy`] trait,
//! * [`state`] — the metric vocabulary and the typed state vector
//!   every engine decides on,
//! * [`netstate`] — the network state interface: SNMP-backed sampling
//!   of CPU load, page faults, memory, bandwidth,
//! * [`transformer`] — the information transformer registry
//!   (image→sketch, image→text, text→speech, speech→text),
//! * [`events`] — the application event vocabulary (chat, whiteboard,
//!   image share, profile update) with wire codecs,
//! * [`state_repo`] — the client state repository of shared-object
//!   entries,
//! * [`concurrency`] — concurrency control: per-object Lamport
//!   ordering and lock arbitration,
//! * [`apps`] — the three application entities (chat area, whiteboard,
//!   image viewer) and the media store that encodes each shared image
//!   once and decodes each prefix of it once,
//! * [`session`] — the collaboration session: wired clients as peers,
//!   the base station as the wireless gateway,
//! * [`experiments`] — closed-loop drivers that regenerate the
//!   paper's Figures 6–10 series (used by benches, repro binaries and
//!   integration tests).
#![forbid(unsafe_code)]

pub mod apps;
pub mod baseline;
pub mod concurrency;
pub mod contract;
pub mod engines;
pub mod events;
pub mod experiments;
pub mod hysteresis;
pub mod inference;
pub mod netstate;
pub mod policy;
pub mod probe;
pub mod session;
pub mod state;
pub mod state_repo;
pub mod transformer;
pub mod trapwatch;

pub use contract::{Constraint, QosContract, Violation};
pub use engines::{BayesEngine, EngineChoice, FuzzyEngine};
pub use inference::{AdaptationDecision, FiredRules, InferenceEngine, ModalityChoice};
pub use policy::{AdaptationAction, AdaptationPolicy, PolicyDb};
pub use session::{CollaborationSession, SessionConfig};
pub use state::{Metric, StateVector};
