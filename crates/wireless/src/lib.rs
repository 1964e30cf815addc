//! # wireless — base station, SIR model, and power control
//!
//! The paper's wireless extension (§4.2, §6.3): thin clients join the
//! collaboration through a **base station** that is itself a peer in
//! the multicast session. The base station tracks each client's
//! distance, transmit power, and capability; computes the
//! signal-to-interference ratio of eq. (1),
//!
//! ```text
//! SIR_i = P_i G_i / ( Σ_{j≠i} P_j G_j + σ² )
//! ```
//!
//! with path gain `G = K d^-α`; and applies SIR thresholds to decide
//! which modality of a client's contribution is forwarded to the
//! session — text description only, text + base-image sketch, or the
//! full image (§6.3). Power control follows Goodman–Mandayam
//! (the paper's ref \[9\]) and Foschini–Miljanic target tracking.
//!
//! * [`channel`] — path-loss model and dB helpers,
//! * [`sir`] — eq. (1) over a set of client radios,
//! * [`station`] — the base station: registry, assessment, modality
//!   thresholds, power-reduction requests,
//! * [`power`] — Foschini–Miljanic iteration, equal-factor power
//!   scaling, and the bits-per-joule utility of ref \[9\],
//! * [`mobility`] — piecewise-linear distance schedules driving the
//!   Figure 8–10 experiments.
#![forbid(unsafe_code)]

pub mod channel;
pub mod mobility;
pub mod power;
pub mod sir;
pub mod station;

pub use channel::PathLossModel;
pub use mobility::DistanceSchedule;
pub use sir::{sir_db, sir_linear, ClientRadio};
pub use station::{BaseStation, Modality, ModalityThresholds, ServiceAssessment};
