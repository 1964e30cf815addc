//! Simulated host kernels: CPU-load and page-fault processes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

/// Instantaneous host metrics (what the extension agent samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostState {
    /// CPU busy percentage, `0..=100`.
    pub cpu_load: f64,
    /// Page faults per second.
    pub page_faults: f64,
    /// Available memory, KiB.
    pub mem_avail_kb: f64,
}

impl Default for HostState {
    fn default() -> Self {
        HostState {
            cpu_load: 10.0,
            page_faults: 5.0,
            mem_avail_kb: 65_536.0,
        }
    }
}

/// A generator process for one metric.
#[derive(Debug, Clone)]
pub enum LoadProfile {
    /// Fixed value.
    Constant(f64),
    /// Linear sweep from `from` to `to` over `steps` steps, then hold.
    Sweep {
        /// Start value.
        from: f64,
        /// End value.
        to: f64,
        /// Steps to traverse.
        steps: usize,
    },
    /// Sinusoid: `mid + amp * sin(2π step / period)`.
    Sine {
        /// Midpoint.
        mid: f64,
        /// Amplitude.
        amp: f64,
        /// Period in steps.
        period: usize,
    },
    /// Replay a recorded trace (e.g. captured perfmon samples), holding
    /// the last value after the trace ends.
    Trace(Vec<f64>),
    /// Bounded random walk with the given step size and seed.
    RandomWalk {
        /// Initial value.
        start: f64,
        /// Maximum step per tick.
        step: f64,
        /// Inclusive bounds.
        bounds: (f64, f64),
        /// RNG seed.
        seed: u64,
    },
}

impl LoadProfile {
    fn value_at(&self, step: usize, rng_state: &mut Option<(StdRng, f64)>) -> f64 {
        match self {
            LoadProfile::Constant(v) => *v,
            LoadProfile::Sweep { from, to, steps } => {
                if *steps == 0 || step >= *steps {
                    *to
                } else {
                    from + (to - from) * step as f64 / *steps as f64
                }
            }
            LoadProfile::Trace(samples) => {
                if samples.is_empty() {
                    0.0
                } else {
                    samples[step.min(samples.len() - 1)]
                }
            }
            LoadProfile::Sine { mid, amp, period } => {
                let phase = 2.0 * std::f64::consts::PI * step as f64 / (*period).max(1) as f64;
                mid + amp * phase.sin()
            }
            LoadProfile::RandomWalk {
                start,
                step: delta,
                bounds,
                seed,
            } => {
                let (rng, value) =
                    rng_state.get_or_insert_with(|| (StdRng::seed_from_u64(*seed), *start));
                let d = rng.random_range(-*delta..=*delta);
                *value = (*value + d).clamp(bounds.0, bounds.1);
                *value
            }
        }
    }
}

/// A simulated host: metric generators plus current state.
#[derive(Debug)]
pub struct SimHost {
    /// Host name (matches the simnet node name by convention).
    pub name: String,
    cpu_profile: LoadProfile,
    fault_profile: LoadProfile,
    mem_profile: LoadProfile,
    cpu_rng: Option<(StdRng, f64)>,
    fault_rng: Option<(StdRng, f64)>,
    mem_rng: Option<(StdRng, f64)>,
    step: usize,
    state: SharedHost,
}

/// Shared handle to a host's current state, read by instrumentation
/// routines from the SNMP agent.
pub type SharedHost = Rc<Cell<HostState>>;

impl SimHost {
    /// A host with the given generator profiles.
    pub fn new(
        name: &str,
        cpu_profile: LoadProfile,
        fault_profile: LoadProfile,
        mem_profile: LoadProfile,
    ) -> SimHost {
        let mut host = SimHost {
            name: name.to_string(),
            cpu_profile,
            fault_profile,
            mem_profile,
            cpu_rng: None,
            fault_rng: None,
            mem_rng: None,
            step: 0,
            state: Rc::default(),
        };
        host.apply(0);
        host
    }

    /// An idle host (constant low load).
    pub fn idle(name: &str) -> SimHost {
        SimHost::new(
            name,
            LoadProfile::Constant(5.0),
            LoadProfile::Constant(2.0),
            LoadProfile::Constant(131_072.0),
        )
    }

    /// Shared state handle for the agent's instrumentation routines.
    pub fn shared(&self) -> SharedHost {
        self.state.clone()
    }

    /// Current metrics snapshot.
    pub fn state(&self) -> HostState {
        self.state.get()
    }

    fn apply(&mut self, step: usize) {
        let cpu = self
            .cpu_profile
            .value_at(step, &mut self.cpu_rng)
            .clamp(0.0, 100.0);
        let faults = self
            .fault_profile
            .value_at(step, &mut self.fault_rng)
            .max(0.0);
        let mem = self.mem_profile.value_at(step, &mut self.mem_rng).max(0.0);
        self.state.set(HostState {
            cpu_load: cpu,
            page_faults: faults,
            mem_avail_kb: mem,
        });
    }

    /// Advance the generators one tick.
    pub fn tick(&mut self) {
        self.step += 1;
        let step = self.step;
        self.apply(step);
    }

    /// Force specific metrics (used by tests and closed-loop
    /// experiments that drive exact sweep values).
    pub fn force(&mut self, state: HostState) {
        self.state.set(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_holds() {
        let mut h = SimHost::idle("h");
        let s0 = h.state();
        h.tick();
        h.tick();
        assert_eq!(h.state(), s0);
    }

    #[test]
    fn sweep_interpolates_then_holds() {
        let mut h = SimHost::new(
            "h",
            LoadProfile::Sweep {
                from: 30.0,
                to: 100.0,
                steps: 7,
            },
            LoadProfile::Constant(0.0),
            LoadProfile::Constant(0.0),
        );
        assert_eq!(h.state().cpu_load, 30.0);
        for _ in 0..7 {
            h.tick();
        }
        assert_eq!(h.state().cpu_load, 100.0);
        h.tick();
        assert_eq!(h.state().cpu_load, 100.0, "holds at end");
    }

    #[test]
    fn cpu_load_clamped_to_percent() {
        let mut h = SimHost::new(
            "h",
            LoadProfile::Sine {
                mid: 90.0,
                amp: 50.0,
                period: 4,
            },
            LoadProfile::Constant(0.0),
            LoadProfile::Constant(0.0),
        );
        for _ in 0..10 {
            h.tick();
            let c = h.state().cpu_load;
            assert!((0.0..=100.0).contains(&c), "clamped, got {c}");
        }
    }

    #[test]
    fn trace_profile_replays_then_holds() {
        let mut h = SimHost::new(
            "h",
            LoadProfile::Trace(vec![12.0, 75.0, 33.0]),
            LoadProfile::Trace(vec![]),
            LoadProfile::Constant(0.0),
        );
        assert_eq!(h.state().cpu_load, 12.0);
        assert_eq!(h.state().page_faults, 0.0, "empty trace reads zero");
        h.tick();
        assert_eq!(h.state().cpu_load, 75.0);
        h.tick();
        assert_eq!(h.state().cpu_load, 33.0);
        h.tick();
        assert_eq!(h.state().cpu_load, 33.0, "holds last sample");
    }

    #[test]
    fn random_walk_is_bounded_and_seeded() {
        let mk = || {
            SimHost::new(
                "h",
                LoadProfile::RandomWalk {
                    start: 50.0,
                    step: 10.0,
                    bounds: (20.0, 80.0),
                    seed: 7,
                },
                LoadProfile::Constant(0.0),
                LoadProfile::Constant(0.0),
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..50 {
            a.tick();
            b.tick();
            assert_eq!(a.state().cpu_load, b.state().cpu_load, "deterministic");
            assert!((20.0..=80.0).contains(&a.state().cpu_load));
        }
    }

    #[test]
    fn shared_handle_sees_ticks() {
        let mut h = SimHost::new(
            "h",
            LoadProfile::Sweep {
                from: 0.0,
                to: 100.0,
                steps: 10,
            },
            LoadProfile::Constant(1.0),
            LoadProfile::Constant(1.0),
        );
        let shared = h.shared();
        h.tick();
        assert_eq!(shared.get().cpu_load, 10.0);
    }

    #[test]
    fn force_overrides() {
        let mut h = SimHost::idle("h");
        h.force(HostState {
            cpu_load: 77.0,
            page_faults: 42.0,
            mem_avail_kb: 1.0,
        });
        assert_eq!(h.state().cpu_load, 77.0);
        assert_eq!(h.state().page_faults, 42.0);
    }
}
