//! Power control: Foschini–Miljanic target tracking and the
//! Goodman–Mandayam bits-per-joule utility (the paper's ref \[9\]).

use crate::channel::PathLossModel;
use crate::sir::{sir_linear, ClientRadio};

/// Result of a Foschini–Miljanic run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerControlResult {
    /// Whether every client reached the target SIR within tolerance.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Final transmit powers (mW), client order preserved.
    pub powers_mw: Vec<f64>,
}

/// Distributed Foschini–Miljanic iteration: each client scales its
/// power by `target / current_sir` each round. Converges to the
/// minimal power vector achieving `target_sir_linear` when feasible;
/// reports non-convergence (infeasible target) otherwise.
pub fn foschini_miljanic(
    clients: &[ClientRadio],
    model: &PathLossModel,
    target_sir_linear: f64,
    max_power_mw: f64,
    max_iterations: usize,
) -> PowerControlResult {
    assert!(target_sir_linear > 0.0 && max_power_mw > 0.0);
    let mut state: Vec<ClientRadio> = clients.to_vec();
    let tol = 1e-6;
    for iter in 0..max_iterations {
        let sirs: Vec<f64> = (0..state.len())
            .map(|i| sir_linear(i, &state, model))
            .collect();
        if sirs
            .iter()
            .all(|&s| (s - target_sir_linear).abs() / target_sir_linear < tol)
        {
            return PowerControlResult {
                converged: true,
                iterations: iter,
                powers_mw: state.iter().map(|c| c.tx_power_mw).collect(),
            };
        }
        for (i, c) in state.iter_mut().enumerate() {
            let next = (c.tx_power_mw * target_sir_linear / sirs[i]).min(max_power_mw);
            c.tx_power_mw = next.max(1e-12);
        }
    }
    PowerControlResult {
        converged: false,
        iterations: max_iterations,
        powers_mw: state.iter().map(|c| c.tx_power_mw).collect(),
    }
}

/// Scale every client's power by the same factor (the equal-factor
/// reduction of ref \[9\]): while interference dominates the noise
/// floor, every SIR is (nearly) unchanged but energy use falls.
pub fn equal_factor_scaling(clients: &[ClientRadio], factor: f64) -> Vec<ClientRadio> {
    assert!(factor > 0.0);
    clients
        .iter()
        .map(|c| ClientRadio {
            id: c.id.clone(),
            distance_m: c.distance_m,
            tx_power_mw: c.tx_power_mw * factor,
        })
        .collect()
}

/// Frame-success efficiency function `f(γ) = (1 - e^{-γ})^L` over
/// `bits_per_frame` bits — the standard modification used in the
/// power-control literature (including Goodman–Mandayam) with
/// `f(0) = 0`, so that utility does not diverge as power goes to zero.
fn frame_success(sir_linear_value: f64, bits_per_frame: u32) -> f64 {
    assert!(sir_linear_value >= 0.0);
    (1.0 - (-sir_linear_value).exp()).powi(bits_per_frame as i32)
}

/// Goodman–Mandayam utility for client `i`: throughput per unit power
/// (bits per joule, arbitrary rate units).
pub fn utility(
    i: usize,
    clients: &[ClientRadio],
    model: &PathLossModel,
    bits_per_frame: u32,
) -> f64 {
    let s = sir_linear(i, clients, model);
    frame_success(s, bits_per_frame) / clients[i].tx_power_mw
}

/// The power-reduction headroom rule the paper describes: "if the SIR
/// threshold for image data is at 4 dB ... while the current target SIR
/// achieved is about 7 dB, then BS requests the client to transmit at a
/// lower power". Returns the suggested power (mW) that would bring the
/// client down to `threshold_linear * margin`, or `None` if it has no
/// headroom.
pub fn power_reduction_suggestion(
    i: usize,
    clients: &[ClientRadio],
    model: &PathLossModel,
    threshold_linear: f64,
    margin: f64,
) -> Option<f64> {
    assert!(threshold_linear > 0.0 && margin > 0.0);
    let current = sir_linear(i, clients, model);
    let desired = threshold_linear * margin;
    if current <= desired {
        return None;
    }
    // SIR(p) = p G / (I + σ²)  =>  p = desired (I + σ²) / G
    let g = model.gain(clients[i].distance_m);
    let interference: f64 = clients
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, c)| c.received_mw(model))
        .sum();
    let p = desired * (interference + model.noise_floor_mw) / g;
    (p < clients[i].tx_power_mw).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::from_db;
    use crate::sir::all_sirs_db;

    fn model() -> PathLossModel {
        PathLossModel::default()
    }

    fn two_clients() -> Vec<ClientRadio> {
        vec![
            ClientRadio::new("a", 80.0, 100.0),
            ClientRadio::new("b", 60.0, 100.0),
        ]
    }

    #[test]
    fn fm_converges_to_feasible_target() {
        let clients = two_clients();
        let target = from_db(-3.0); // modest target, feasible for 2 clients
        let r = foschini_miljanic(&clients, &model(), target, 1e6, 500);
        assert!(r.converged, "did not converge in {} iters", r.iterations);
        // Verify the final powers actually achieve the target.
        let finals: Vec<ClientRadio> = clients
            .iter()
            .zip(&r.powers_mw)
            .map(|(c, &p)| ClientRadio {
                tx_power_mw: p,
                ..c.clone()
            })
            .collect();
        for i in 0..finals.len() {
            let s = sir_linear(i, &finals, &model());
            assert!((s - target).abs() / target < 1e-3, "client {i}: {s}");
        }
        // FM converges to the *minimal* power vector: far below the cap.
        assert!(r.powers_mw.iter().all(|&p| p < 100.0));
    }

    #[test]
    fn fm_detects_infeasible_target() {
        // Two clients cannot both sustain SIR >= ~1 (0 dB) against each
        // other's interference: 6 dB is infeasible.
        let clients = two_clients();
        let r = foschini_miljanic(&clients, &model(), from_db(6.0), 1e6, 200);
        assert!(!r.converged);
    }

    #[test]
    fn equal_factor_scaling_preserves_interference_limited_sir() {
        let clients = two_clients();
        let before = all_sirs_db(&clients, &model());
        let scaled = equal_factor_scaling(&clients, 0.25);
        let after = all_sirs_db(&scaled, &model());
        // Interference dominates the noise floor here, so SIRs move by
        // well under a dB.
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 0.1, "{b} vs {a}");
        }
    }

    #[test]
    fn equal_factor_reduction_raises_utility_until_noise_bites() {
        // Ref [9]'s theorem: scaling all powers down raises bits/joule
        // while interference-limited; deep in the noise it collapses.
        let clients = two_clients();
        let u1 = utility(0, &clients, &model(), 80);
        let u_half = utility(0, &equal_factor_scaling(&clients, 0.5), &model(), 80);
        assert!(u_half > u1, "halving powers should raise bits/joule");
        let u_tiny = utility(0, &equal_factor_scaling(&clients, 1e-9), &model(), 80);
        assert!(u_tiny < u_half, "noise-dominated regime collapses utility");
    }

    #[test]
    fn frame_success_monotone_in_sir() {
        assert!(frame_success(10.0, 80) > frame_success(1.0, 80));
        assert!(frame_success(1.0, 80) > frame_success(0.1, 80));
        assert!(frame_success(100.0, 80) <= 1.0);
        assert_eq!(frame_success(0.0, 80), 0.0);
    }

    #[test]
    fn power_reduction_suggested_when_headroom() {
        // Single client, far above any threshold.
        let clients = vec![ClientRadio::new("a", 10.0, 500.0)];
        let threshold = from_db(4.0);
        let p = power_reduction_suggestion(0, &clients, &model(), threshold, 1.2);
        let p = p.expect("headroom exists");
        assert!(p > 0.0 && p < 500.0);
        // Applying the suggestion lands near threshold * margin.
        let adjusted = vec![ClientRadio::new("a", 10.0, p)];
        let s = sir_linear(0, &adjusted, &model());
        assert!((s - threshold * 1.2).abs() / (threshold * 1.2) < 1e-6);
    }

    #[test]
    fn no_reduction_without_headroom() {
        let clients = vec![
            ClientRadio::new("a", 120.0, 100.0),
            ClientRadio::new("b", 40.0, 100.0),
        ];
        // Client a is interference-swamped; no reduction possible.
        assert!(power_reduction_suggestion(0, &clients, &model(), from_db(4.0), 1.2).is_none());
    }

    #[test]
    fn fm_iteration_count_grows_with_target() {
        let clients = two_clients();
        let easy = foschini_miljanic(&clients, &model(), from_db(-10.0), 1e6, 500);
        let hard = foschini_miljanic(&clients, &model(), from_db(-3.0), 1e6, 500);
        assert!(easy.converged && hard.converged);
        assert!(hard.iterations >= easy.iterations);
    }
}
