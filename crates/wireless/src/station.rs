//! The base station: control coordinator and QoS manager of the
//! wireless extension (§4.2, §6.3).
//!
//! It keeps the radio profile of every attached wireless client,
//! periodically computes SIRs, selects the forwarded **modality** per
//! client by SIR thresholds ("different threshold levels of SIR are set
//! for text description only, or text and base image, or the full image
//! description"), suggests power reductions when a client has headroom,
//! and enforces an admission limit (§6.3.3's upper bound on session
//! size).

use crate::channel::{from_db, PathLossModel};
use crate::power::power_reduction_suggestion;
use crate::sir::{sir_db, sir_linear, ClientRadio};

/// Shannon-bound achievable rate at the given SIR over `bandwidth_hz`:
/// `B log2(1 + SIR)`. This is the "transmitting rate" entry of the
/// base station's per-client profile (§4.2) — what the radio can
/// actually carry, which the QoS manager compares against each
/// modality's payload size.
fn achievable_rate_bps(sir_linear_value: f64, bandwidth_hz: f64) -> f64 {
    assert!(sir_linear_value >= 0.0 && bandwidth_hz > 0.0);
    bandwidth_hz * (1.0 + sir_linear_value).log2()
}

/// Which representation of a shared object the base station forwards
/// for a client at its current SIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Modality {
    /// Below even the text threshold: nothing usable.
    None,
    /// Text description only.
    TextOnly,
    /// Text plus the base-image sketch.
    TextAndSketch,
    /// The full progressive image.
    FullImage,
}

/// SIR thresholds (dB) separating the modalities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModalityThresholds {
    /// Minimum SIR to carry the text description.
    pub text_db: f64,
    /// Minimum SIR to add the base-image sketch.
    pub sketch_db: f64,
    /// Minimum SIR to carry the full image (the paper's example: 4 dB).
    pub image_db: f64,
}

impl Default for ModalityThresholds {
    fn default() -> Self {
        ModalityThresholds {
            text_db: -15.0,
            sketch_db: -5.0,
            image_db: 4.0,
        }
    }
}

impl ModalityThresholds {
    /// Classify an SIR into a modality.
    pub fn classify(&self, sir: f64) -> Modality {
        if sir >= self.image_db {
            Modality::FullImage
        } else if sir >= self.sketch_db {
            Modality::TextAndSketch
        } else if sir >= self.text_db {
            Modality::TextOnly
        } else {
            Modality::None
        }
    }
}

/// The "basic service assessment" the base station returns to a
/// joining or queried client (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAssessment {
    /// Client identity.
    pub id: String,
    /// Current SIR at the base station, dB.
    pub sir_db: f64,
    /// Modality the BS will forward at this SIR.
    pub modality: Modality,
    /// Achievable uplink rate at this SIR (Shannon bound over the
    /// station's channel bandwidth) — the profile's "transmitting
    /// rate".
    pub rate_bps: f64,
    /// Suggested reduced transmit power (mW) when the client has
    /// headroom above the image threshold (battery conservation).
    pub suggested_power_mw: Option<f64>,
}

/// Errors from base-station operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StationError {
    /// A client with this id is already attached.
    DuplicateId(String),
    /// Unknown client id.
    UnknownId(String),
    /// Admission would push some client below the text threshold.
    AdmissionDenied {
        /// The client that would fall below threshold.
        victim: String,
        /// Its projected SIR in dB.
        projected_sir_db: f64,
    },
}

impl std::fmt::Display for StationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StationError::DuplicateId(id) => write!(f, "duplicate client id '{id}'"),
            StationError::UnknownId(id) => write!(f, "unknown client id '{id}'"),
            StationError::AdmissionDenied {
                victim,
                projected_sir_db,
            } => write!(
                f,
                "admission denied: '{victim}' would fall to {projected_sir_db:.1} dB"
            ),
        }
    }
}

impl std::error::Error for StationError {}

/// The base station.
#[derive(Debug, Clone)]
pub struct BaseStation {
    /// Channel model for all attached clients.
    pub model: PathLossModel,
    /// Modality thresholds.
    pub thresholds: ModalityThresholds,
    /// Headroom margin for power-reduction suggestions (multiplied onto
    /// the image threshold).
    pub power_margin: f64,
    /// Channel bandwidth used for rate estimates, Hz.
    pub channel_bandwidth_hz: f64,
    clients: Vec<ClientRadio>,
}

impl BaseStation {
    /// A base station with the given channel model and thresholds.
    pub fn new(model: PathLossModel, thresholds: ModalityThresholds) -> Self {
        BaseStation {
            model,
            thresholds,
            power_margin: 1.25,
            channel_bandwidth_hz: 1_000_000.0, // a 1 MHz 2002-era channel
            clients: Vec::new(),
        }
    }

    /// Attached client count.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Current radios (profile view).
    pub fn clients(&self) -> &[ClientRadio] {
        &self.clients
    }

    fn index_of(&self, id: &str) -> Option<usize> {
        self.clients.iter().position(|c| c.id == id)
    }

    /// Admission check: would adding `candidate` keep every client
    /// (including the candidate) at or above the text threshold?
    fn can_admit(&self, candidate: &ClientRadio) -> Result<(), StationError> {
        let mut projected = self.clients.clone();
        projected.push(candidate.clone());
        let floor = self.thresholds.text_db;
        for i in 0..projected.len() {
            let s = sir_db(i, &projected, &self.model);
            if s < floor {
                return Err(StationError::AdmissionDenied {
                    victim: projected[i].id.clone(),
                    projected_sir_db: s,
                });
            }
        }
        Ok(())
    }

    /// Join with admission control; returns the initial assessment.
    pub fn join(&mut self, client: ClientRadio) -> Result<ServiceAssessment, StationError> {
        if self.index_of(&client.id).is_some() {
            return Err(StationError::DuplicateId(client.id));
        }
        self.can_admit(&client)?;
        let id = client.id.clone();
        self.clients.push(client);
        Ok(self.assess(&id).expect("just added"))
    }

    /// Join without admission control (used to reproduce the §6.3.3
    /// saturation experiment, where clients keep piling on).
    pub fn join_unchecked(
        &mut self,
        client: ClientRadio,
    ) -> Result<ServiceAssessment, StationError> {
        if self.index_of(&client.id).is_some() {
            return Err(StationError::DuplicateId(client.id));
        }
        let id = client.id.clone();
        self.clients.push(client);
        Ok(self.assess(&id).expect("just added"))
    }

    /// Detach a client.
    pub fn leave(&mut self, id: &str) -> Result<(), StationError> {
        let i = self
            .index_of(id)
            .ok_or_else(|| StationError::UnknownId(id.to_string()))?;
        self.clients.remove(i);
        Ok(())
    }

    /// Update a client's distance (mobility).
    pub fn update_distance(&mut self, id: &str, distance_m: f64) -> Result<(), StationError> {
        assert!(distance_m > 0.0);
        let i = self
            .index_of(id)
            .ok_or_else(|| StationError::UnknownId(id.to_string()))?;
        self.clients[i].distance_m = distance_m;
        Ok(())
    }

    /// Update a client's transmit power.
    pub fn update_power(&mut self, id: &str, tx_power_mw: f64) -> Result<(), StationError> {
        assert!(tx_power_mw > 0.0);
        let i = self
            .index_of(id)
            .ok_or_else(|| StationError::UnknownId(id.to_string()))?;
        self.clients[i].tx_power_mw = tx_power_mw;
        Ok(())
    }

    /// Advance the shadowing epoch (redraws every client's fade).
    pub fn advance_shadowing_epoch(&mut self) {
        self.model.epoch += 1;
    }

    /// Assess one client: SIR, modality, and any power suggestion.
    pub fn assess(&self, id: &str) -> Option<ServiceAssessment> {
        let i = self.index_of(id)?;
        let s = sir_db(i, &self.clients, &self.model);
        let lin = sir_linear(i, &self.clients, &self.model);
        let suggested = power_reduction_suggestion(
            i,
            &self.clients,
            &self.model,
            from_db(self.thresholds.image_db),
            self.power_margin,
        );
        Some(ServiceAssessment {
            id: id.to_string(),
            sir_db: s,
            modality: self.thresholds.classify(s),
            rate_bps: achievable_rate_bps(lin, self.channel_bandwidth_hz),
            suggested_power_mw: suggested,
        })
    }

    /// The modality `id`'s current SIR allows: [`BaseStation::assess`]'s
    /// `modality` alone, without the rest of the assessment.
    pub fn modality(&self, id: &str) -> Option<Modality> {
        let i = self.index_of(id)?;
        Some(
            self.thresholds
                .classify(sir_db(i, &self.clients, &self.model)),
        )
    }

    /// Assess every attached client.
    pub fn assess_all(&self) -> Vec<ServiceAssessment> {
        self.clients
            .iter()
            .map(|c| self.assess(&c.id).expect("attached"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs() -> BaseStation {
        BaseStation::new(PathLossModel::default(), ModalityThresholds::default())
    }

    #[test]
    fn thresholds_classify_in_order() {
        let t = ModalityThresholds::default();
        assert_eq!(t.classify(10.0), Modality::FullImage);
        assert_eq!(t.classify(4.0), Modality::FullImage);
        assert_eq!(t.classify(0.0), Modality::TextAndSketch);
        assert_eq!(t.classify(-10.0), Modality::TextOnly);
        assert_eq!(t.classify(-30.0), Modality::None);
        assert!(Modality::FullImage > Modality::TextOnly);
    }

    #[test]
    fn single_client_gets_full_image_and_power_suggestion() {
        let mut s = bs();
        let a = s.join(ClientRadio::new("a", 20.0, 200.0)).unwrap();
        assert_eq!(a.modality, Modality::FullImage);
        assert!(a.sir_db > 4.0);
        assert!(
            a.suggested_power_mw.is_some(),
            "lone nearby client has headroom"
        );
    }

    #[test]
    fn second_client_degrades_modality() {
        let mut s = bs();
        s.join(ClientRadio::new("a", 40.0, 100.0)).unwrap();
        let before = s.assess("a").unwrap();
        assert_eq!(before.modality, Modality::FullImage);
        s.join_unchecked(ClientRadio::new("b", 45.0, 100.0))
            .unwrap();
        let after = s.assess("a").unwrap();
        assert!(after.sir_db < before.sir_db);
        assert!(after.modality < before.modality);
    }

    #[test]
    fn join_leave_restores_sir() {
        let mut s = bs();
        s.join(ClientRadio::new("a", 40.0, 100.0)).unwrap();
        let solo = s.assess("a").unwrap().sir_db;
        s.join_unchecked(ClientRadio::new("b", 50.0, 100.0))
            .unwrap();
        assert!(s.assess("a").unwrap().sir_db < solo);
        s.leave("b").unwrap();
        assert!((s.assess("a").unwrap().sir_db - solo).abs() < 1e-9);
    }

    #[test]
    fn duplicate_and_unknown_ids() {
        let mut s = bs();
        s.join(ClientRadio::new("a", 40.0, 100.0)).unwrap();
        assert!(matches!(
            s.join(ClientRadio::new("a", 10.0, 10.0)),
            Err(StationError::DuplicateId(_))
        ));
        assert!(matches!(s.leave("zz"), Err(StationError::UnknownId(_))));
        assert!(s.assess("zz").is_none());
    }

    #[test]
    fn admission_control_eventually_refuses() {
        let mut s = bs();
        let mut admitted = 0;
        for i in 0..50 {
            let c = ClientRadio::new(&format!("c{i}"), 60.0, 100.0);
            match s.join(c) {
                Ok(_) => admitted += 1,
                Err(StationError::AdmissionDenied { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(admitted >= 2, "a couple of clients must fit");
        assert!(admitted < 50, "the §6.3.3 upper limit must bind");
    }

    #[test]
    fn mobility_updates_change_assessment() {
        let mut s = bs();
        s.join(ClientRadio::new("a", 100.0, 100.0)).unwrap();
        s.join_unchecked(ClientRadio::new("b", 100.0, 100.0))
            .unwrap();
        let far = s.assess("a").unwrap().sir_db;
        s.update_distance("a", 50.0).unwrap();
        let near = s.assess("a").unwrap().sir_db;
        assert!(near > far, "closer is better for a");
        s.update_power("b", 400.0).unwrap();
        let jammed = s.assess("a").unwrap().sir_db;
        assert!(jammed < near, "b's power rise hurts a");
    }

    #[test]
    fn achievable_rate_tracks_sir() {
        assert_eq!(achievable_rate_bps(0.0, 1e6), 0.0);
        assert!(
            (achievable_rate_bps(1.0, 1e6) - 1e6).abs() < 1.0,
            "SIR 1 -> 1 b/s/Hz"
        );
        assert!(
            (achievable_rate_bps(3.0, 1e6) - 2e6).abs() < 1.0,
            "SIR 3 -> 2 b/s/Hz"
        );
        // Assessments expose it, monotone in SIR.
        let mut s = bs();
        s.join(ClientRadio::new("near", 20.0, 100.0)).unwrap();
        s.join_unchecked(ClientRadio::new("far", 90.0, 100.0))
            .unwrap();
        let near = s.assess("near").unwrap();
        let far = s.assess("far").unwrap();
        assert!(near.rate_bps > far.rate_bps);
        assert!(far.rate_bps > 0.0);
    }

    #[test]
    fn assess_all_covers_everyone() {
        let mut s = bs();
        s.join(ClientRadio::new("a", 30.0, 100.0)).unwrap();
        s.join_unchecked(ClientRadio::new("b", 60.0, 150.0))
            .unwrap();
        let all = s.assess_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, "a");
        assert_eq!(all[1].id, "b");
    }
}
