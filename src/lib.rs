//! # collabqos
//!
//! A from-scratch Rust reproduction of *"Adaptive QoS Management for
//! Collaboration in Heterogeneous Environments"* (Chowdhury,
//! Bhandarkar & Parashar, IPPS 2002): an adaptive QoS management
//! framework for collaborative multimedia applications over a semantic
//! publisher–subscriber substrate, with an SNMP network-state
//! interface, a progressive wavelet image coder, and a wireless
//! base-station extension driven by SIR thresholds and power control.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`simnet`] | deterministic discrete-event network simulator (UDP, multicast, RTP-thin layer) |
//! | [`snmp`] | SNMPv2c subset: BER, OIDs, MIB, agent, manager |
//! | [`sempubsub`] | semantic selectors, profiles, transform-aware matching, multicast bus |
//! | [`broker`] | multi-broker overlay: selector covering, advertisement flooding, content-based routing |
//! | [`media`] | EZW progressive image coding, sketches, text/speech modalities |
//! | [`wireless`] | SIR model (eq. 1), base station, power control |
//! | [`sysmon`] | simulated hosts + embedded SNMP extension agent |
//! | `core` (re-export of `cqos_core`) | contracts, policies, inference engine, session, experiments |
//!
//! ## Quickstart
//!
//! ```
//! use collabqos::prelude::*;
//!
//! // Build a session with a publisher and an adaptive viewer.
//! let mut session = CollaborationSession::new(SessionConfig::default());
//! let mut profile = Profile::new("publisher");
//! profile.set("interested_in", AttrValue::List(vec![AttrValue::str("image")]));
//! let publisher = session
//!     .add_wired_client(
//!         profile.clone(),
//!         InferenceEngine::new(PolicyDb::new(), QosContract::default()),
//!         SimHost::idle("publisher"),
//!     )
//!     .unwrap();
//! let mut viewer_profile = Profile::new("viewer");
//! viewer_profile.set("interested_in", AttrValue::List(vec![AttrValue::str("image")]));
//! let viewer = session
//!     .add_wired_client(
//!         viewer_profile,
//!         InferenceEngine::new(PolicyDb::paper_page_fault_policy(), QosContract::default()),
//!         SimHost::idle("viewer"),
//!     )
//!     .unwrap();
//!
//! // Adapt, share, pump.
//! session.adapt(viewer);
//! let scene = synthetic_scene(64, 64, 1, 3, 7);
//! session.share_image(publisher, &scene, "interested_in contains 'image'").unwrap();
//! let completed = session.pump(Ticks::from_millis(200));
//! assert!(completed.iter().any(|(c, _)| *c == viewer));
//! ```

pub use broker;
pub use cqos_core as core;
pub use dtn;
pub use htb;
pub use media;
pub use sempubsub;
pub use simnet;
pub use snmp;
pub use sysmon;
pub use wireless;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use broker::{Advertisement, BrokerStatsHandle, Overlay};
    pub use cqos_core::apps::{ImageViewer, ViewStore, ViewedImage};
    pub use cqos_core::contract::{Constraint, QosContract};
    pub use cqos_core::engines::{BayesEngine, EngineChoice, FuzzyEngine};
    pub use cqos_core::experiments;
    pub use cqos_core::inference::{AdaptationDecision, InferenceEngine, ModalityChoice};
    pub use cqos_core::policy::{AdaptationAction, AdaptationPolicy, PolicyDb};
    pub use cqos_core::session::{CollaborationSession, SessionConfig};
    pub use cqos_core::transformer::{MediaKind, MediaObject, TransformerRegistry};
    pub use dtn::{Bundle, CustodyStore, StoreConfig, StoreStatsHandle};
    pub use htb::{RatePlan, ShapingTree, TreeSpec, TreeStatsHandle};
    pub use media::image::{synthetic_scene, Scene};
    pub use media::Image;
    pub use sempubsub::{AttrValue, Profile, Selector, TransformCap};
    pub use simnet::{LinkSpec, Network, Ticks};
    pub use sysmon::{HostState, LoadProfile, SimHost};
    pub use wireless::{BaseStation, ClientRadio, Modality, ModalityThresholds, PathLossModel};
}
