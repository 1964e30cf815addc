//! Deterministic per-link fault injection.
//!
//! Real wireless and wide-area paths do not lose packets i.i.d.: loss
//! arrives in bursts, packets are reordered and duplicated, delay
//! jitters, and links flap. This module models those failure modes so
//! the layers that must cope with them (the image viewer's in-order
//! reassembly and its loss accounting, the adaptation loop) can be
//! exercised under repeatable, seed-driven chaos:
//!
//! * [`FaultModel`] — per-link Gilbert–Elliott burst loss, reorder
//!   probability with bounded displacement, duplication, and jitter.
//!   Every random draw is gated on its rate being non-zero, so an
//!   inert model consumes **no** RNG draws and leaves a seeded run
//!   bit-identical to one with no fault model at all.
//! * [`FaultPlan`] — a script of timed [`FaultAction`]s (link flaps,
//!   partitions, degrade/restore) applied by
//!   [`crate::Network::run_until`] at their scheduled instants.

use crate::time::Ticks;
use crate::topology::{LinkId, NodeId};
use std::fmt;

/// Two-state Markov (Gilbert–Elliott) burst-loss channel.
///
/// The link is either in the *good* or the *bad* state; each packet
/// traversal first evolves the chain (enter/exit probabilities), then
/// samples loss at the current state's rate. Mean burst length is
/// `1 / p_exit_bad` packets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of moving good → bad.
    pub p_enter_bad: f64,
    /// Per-packet probability of moving bad → good.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A channel that never loses and never changes state.
    pub fn disabled() -> Self {
        GilbertElliott {
            p_enter_bad: 0.0,
            p_exit_bad: 0.0,
            loss_good: 0.0,
            loss_bad: 0.0,
        }
    }

    /// A classic bursty channel: lossless good state, `loss_bad` loss
    /// while in the bad state.
    pub fn bursty(p_enter_bad: f64, p_exit_bad: f64, loss_bad: f64) -> Self {
        for p in [p_enter_bad, p_exit_bad, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        }
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// Long-run average loss rate of the chain.
    pub fn steady_state_loss(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_enter_bad / denom;
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

impl Default for GilbertElliott {
    fn default() -> Self {
        GilbertElliott::disabled()
    }
}

/// Per-link fault injection parameters. Attach with
/// [`crate::topology::Topology::set_link_fault`] or a
/// [`FaultAction::SetFault`] plan entry.
///
/// Fault sampling happens per packet traversal, **after** the link's
/// base [`crate::LinkSpec::loss`] Bernoulli draw, in a fixed order
/// (state evolution, burst loss, jitter, reorder, duplication) so runs
/// are reproducible from the network seed. Each draw is skipped when
/// its rate is zero: [`FaultModel::none`] consumes no randomness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultModel {
    /// Burst-loss channel.
    pub burst: GilbertElliott,
    /// Probability a packet is held back so later traffic overtakes it.
    pub reorder: f64,
    /// Maximum extra hold applied to a reordered packet (bounds the
    /// displacement: roughly `reorder_hold / serialization_time`
    /// packets can overtake).
    pub reorder_hold: Ticks,
    /// Probability a surviving packet is delivered twice.
    pub duplicate: f64,
    /// Maximum uniform extra delay added to every traversal.
    pub jitter: Ticks,
}

impl FaultModel {
    /// The inert model: no loss, no reorder, no duplication, no jitter,
    /// and — critically — no RNG draws, so attaching it leaves a
    /// seeded run bit-identical to a run without it.
    pub fn none() -> Self {
        FaultModel {
            burst: GilbertElliott::disabled(),
            reorder: 0.0,
            reorder_hold: Ticks::ZERO,
            duplicate: 0.0,
            jitter: Ticks::ZERO,
        }
    }

    /// Set the burst-loss channel.
    pub fn with_burst(mut self, burst: GilbertElliott) -> Self {
        self.burst = burst;
        self
    }

    /// Set reorder probability and maximum hold-back.
    pub fn with_reorder(mut self, p: f64, hold: Ticks) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.reorder = p;
        self.reorder_hold = hold;
        self
    }

    /// Set the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.duplicate = p;
        self
    }

    /// Set the maximum per-traversal jitter.
    pub fn with_jitter(mut self, jitter: Ticks) -> Self {
        self.jitter = jitter;
        self
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ge({:.3}/{:.3} loss {:.3}/{:.3}) reorder {:.3}<= {} dup {:.3} jitter {}",
            self.burst.p_enter_bad,
            self.burst.p_exit_bad,
            self.burst.loss_good,
            self.burst.loss_bad,
            self.reorder,
            self.reorder_hold,
            self.duplicate,
            self.jitter
        )
    }
}

/// Mutable per-link fault state: the model plus the current
/// Gilbert–Elliott channel state.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub model: FaultModel,
    /// True while the burst channel is in the bad state.
    pub bad: bool,
}

impl FaultState {
    pub fn new(model: FaultModel) -> Self {
        FaultState { model, bad: false }
    }
}

/// One scripted network event in a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Take a link down: routing avoids it until it comes back up.
    /// Packets already in flight are unaffected.
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Attach (or replace) a link's fault model.
    SetFault(LinkId, FaultModel),
    /// Remove a link's fault model.
    ClearFault(LinkId),
    /// Replace a link's base Bernoulli loss probability.
    SetLoss(LinkId, f64),
    /// Take down every link crossing the boundary of this node set,
    /// isolating it from the rest of the topology.
    Partition(Vec<NodeId>),
    /// Bring every link back up.
    Heal,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::LinkDown(l) => write!(f, "link-down l{}", l.0),
            FaultAction::LinkUp(l) => write!(f, "link-up l{}", l.0),
            FaultAction::SetFault(l, m) => write!(f, "set-fault l{} [{m}]", l.0),
            FaultAction::ClearFault(l) => write!(f, "clear-fault l{}", l.0),
            FaultAction::SetLoss(l, p) => write!(f, "set-loss l{} {p:.3}", l.0),
            FaultAction::Partition(nodes) => {
                write!(f, "partition {{")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, "}}")
            }
            FaultAction::Heal => write!(f, "heal"),
        }
    }
}

/// A script of timed fault actions, applied during
/// [`crate::Network::run_until`] once the clock reaches each entry.
/// Entries at the same instant apply in insertion order; events already
/// due at that instant are delivered first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub(crate) entries: Vec<(Ticks, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (no scripted events).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append an action at absolute time `at` (builder style).
    pub fn at(mut self, at: Ticks, action: FaultAction) -> Self {
        self.push(at, action);
        self
    }

    /// Append an action at absolute time `at`.
    pub fn push(&mut self, at: Ticks, action: FaultAction) {
        self.entries.push((at, action));
        // Stable: same-instant entries keep insertion order.
        self.entries.sort_by_key(|(t, _)| *t);
    }

    /// Number of scripted actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the plan has no actions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scripted actions in application order.
    pub fn entries(&self) -> &[(Ticks, FaultAction)] {
        &self.entries
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "(empty plan)");
        }
        for (i, (t, a)) in self.entries.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  @{t}: {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_loss_matches_chain() {
        let ge = GilbertElliott::bursty(0.1, 0.3, 0.8);
        // pi_bad = 0.1 / 0.4 = 0.25; loss = 0.25 * 0.8 = 0.2
        assert!((ge.steady_state_loss() - 0.2).abs() < 1e-12);
        assert_eq!(GilbertElliott::disabled().steady_state_loss(), 0.0);
    }

    #[test]
    fn plan_sorts_by_time_keeping_insertion_order() {
        let l = LinkId(0);
        let plan = FaultPlan::new()
            .at(Ticks::from_millis(20), FaultAction::LinkUp(l))
            .at(Ticks::from_millis(5), FaultAction::LinkDown(l))
            .at(Ticks::from_millis(20), FaultAction::Heal);
        let times: Vec<u64> = plan.entries().iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![5, 20, 20]);
        assert_eq!(plan.entries()[1].1, FaultAction::LinkUp(l));
        assert_eq!(plan.entries()[2].1, FaultAction::Heal);
    }

    #[test]
    fn plan_display_is_reproducible_recipe() {
        let plan = FaultPlan::new()
            .at(Ticks::from_millis(5), FaultAction::LinkDown(LinkId(2)))
            .at(
                Ticks::from_millis(9),
                FaultAction::Partition(vec![NodeId(0), NodeId(3)]),
            );
        let text = format!("{plan}");
        assert!(text.contains("@5.000ms: link-down l2"), "{text}");
        assert!(text.contains("partition {n0,n3}"), "{text}");
        assert_eq!(format!("{}", FaultPlan::new()), "(empty plan)");
    }
}
