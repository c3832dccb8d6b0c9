//! Node-level failure and overload models.
//!
//! The per-message [`monatt_net::sim::FaultModel`] loses, duplicates,
//! corrupts and delays individual records; this module models the next
//! failure class up: whole protocol entities — cloud servers, the
//! Attestation Server, the Cloud Controller link — crashing and
//! recovering as units ([`OutageModel`]), and the Attestation Server
//! protecting itself from session overload with a bounded admission
//! gate ([`AdmissionControl`]).
//!
//! An [`OutageModel`] is a *schedule*: scripted `crash_at`/`recover_at`
//! transitions plus, optionally, a seeded MTBF/MTTR renewal process over
//! the cloud servers. The model itself never touches the cloud — the
//! cloud's event loop drains due transitions out of it
//! (`OutageModel::drain_due`) into ordinary engine events, applies
//! them, and asks the model to chain the follow-up transition
//! (`OutageModel::chain`). All stochastic draws come from the model's
//! own [`Drbg`] stream, so installing an outage model never perturbs
//! the cloud's main RNG: a run with no outage model is bit-identical to
//! one before this module existed.
//!
//! What a crash *means* (black-holed deliveries, fail-fast sessions,
//! VM evacuation, forced re-handshake on recovery) is implemented in
//! the cloud facade; the counters live in [`OutageStats`].

use crate::types::{NodeId, ServerId};
use monatt_crypto::drbg::Drbg;
use std::collections::BTreeSet;

/// One node state transition the schedule wants to happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transition {
    /// Virtual time at which the transition fires.
    pub at_us: u64,
    /// The node changing state.
    pub node: NodeId,
    /// `true` = the node crashes; `false` = it recovers.
    pub down: bool,
    /// Whether this transition came from the MTBF/MTTR renewal process
    /// (and should chain its opposite when it fires) rather than the
    /// scripted schedule.
    pub stochastic: bool,
}

/// A seeded schedule of node crashes and recoveries.
///
/// Two sources compose:
///
/// * **Scripted** transitions ([`OutageModel::crash_at`] /
///   [`OutageModel::recover_at`]) fire at exact instants — the tool for
///   reproducible scenario tests.
/// * A **renewal process** ([`OutageModel::mtbf`]) gives every cloud
///   server an alternating up/down lifetime: up-times draw uniformly
///   from `[MTBF/2, 3·MTBF/2]`, down-times from `[MTTR/2, 3·MTTR/2]`,
///   all from the model's private DRBG. Control-plane nodes (controller
///   instances and AS replicas) do not churn by default — taking them
///   down is a deliberate act — but an explicit
///   [`OutageModel::control_plane_mtbf`] opts them into their own
///   renewal process with separate means, drawn *after* all server
///   draws so enabling it never shifts the server schedule.
///
/// Transitions only fire inside [`crate::Cloud::run`]; between runs the
/// schedule simply waits.
#[derive(Debug)]
pub struct OutageModel {
    rng: Drbg,
    mtbf_us: Option<u64>,
    mttr_us: u64,
    /// Control-plane renewal means (controller instances, AS replicas).
    cp_mtbf_us: Option<u64>,
    cp_mttr_us: u64,
    /// Pending transitions, unsorted; `drain_due` orders the due ones.
    pending: Vec<Transition>,
    /// Whether the renewal process has drawn its first crash times.
    primed: bool,
    /// Same, for the control-plane renewal process.
    cp_primed: bool,
}

impl OutageModel {
    /// An empty schedule with its own seeded RNG stream (decoupled from
    /// the cloud's, so installing the model does not shift any other
    /// seeded draw).
    pub fn new(seed: u64) -> Self {
        OutageModel {
            rng: Drbg::from_seed(seed ^ 0xC8A5_4EC0_DEAD_BEA7),
            mtbf_us: None,
            mttr_us: 0,
            cp_mtbf_us: None,
            cp_mttr_us: 0,
            pending: Vec::new(),
            primed: false,
            cp_primed: false,
        }
    }

    /// Gives every cloud server an MTBF/MTTR renewal schedule: crash
    /// after roughly `mtbf_us` of uptime, recover after roughly
    /// `mttr_us` (each drawn uniformly within ±50% of its mean).
    pub fn mtbf(mut self, mtbf_us: u64, mttr_us: u64) -> Self {
        self.mtbf_us = Some(mtbf_us.max(1));
        self.mttr_us = mttr_us.max(1);
        self
    }

    /// Gives every *control-plane* node (controller instances and AS
    /// replicas of the cloud's [`crate::ControlPlaneTopology`]) its own
    /// MTBF/MTTR renewal schedule, separate from the server means.
    /// Control-plane crashes are rarer and repairs faster in practice;
    /// keeping the knobs apart lets the chaos bench churn both layers
    /// at realistic, independent rates.
    pub fn control_plane_mtbf(mut self, mtbf_us: u64, mttr_us: u64) -> Self {
        self.cp_mtbf_us = Some(mtbf_us.max(1));
        self.cp_mttr_us = mttr_us.max(1);
        self
    }

    /// Scripts a crash of `node` at virtual time `at_us`.
    pub fn crash_at(mut self, at_us: u64, node: NodeId) -> Self {
        self.pending.push(Transition {
            at_us,
            node,
            down: true,
            stochastic: false,
        });
        self
    }

    /// Scripts a recovery of `node` at virtual time `at_us`.
    pub fn recover_at(mut self, at_us: u64, node: NodeId) -> Self {
        self.pending.push(Transition {
            at_us,
            node,
            down: false,
            stochastic: false,
        });
        self
    }

    /// Uniform draw within ±50% of `mean`: `[mean/2, 3·mean/2]`.
    fn lifetime(&mut self, mean: u64) -> u64 {
        mean / 2 + self.rng.next_u64_below(mean + 1)
    }

    /// Draws the first crash time for every server (in server-id order,
    /// for a stable draw sequence). Called once, on the first `run`
    /// after installation; later calls are no-ops.
    pub(crate) fn prime<I: IntoIterator<Item = ServerId>>(&mut self, servers: I, now_us: u64) {
        if !std::mem::replace(&mut self.primed, true) {
            self.draw_first_crashes(
                self.mtbf_us,
                servers.into_iter().map(NodeId::Server),
                now_us,
            );
        }
    }

    /// Draws the first crash time for every control-plane node, in the
    /// deterministic order the topology enumerates them (controllers
    /// first, then AS replicas). Idempotent like [`OutageModel::prime`];
    /// a no-op unless [`OutageModel::control_plane_mtbf`] was set, so
    /// existing server-churn seeds draw an identical stream. Called
    /// after `prime` so control-plane draws always follow the full
    /// server draw prefix.
    pub(crate) fn prime_control_plane<I: IntoIterator<Item = NodeId>>(
        &mut self,
        nodes: I,
        now_us: u64,
    ) {
        if !std::mem::replace(&mut self.cp_primed, true) {
            self.draw_first_crashes(self.cp_mtbf_us, nodes, now_us);
        }
    }

    /// Queues one stochastic crash per node, an up-time of mean `mtbf`
    /// from now; nothing when the renewal process is not configured.
    fn draw_first_crashes(
        &mut self,
        mtbf: Option<u64>,
        nodes: impl IntoIterator<Item = NodeId>,
        now_us: u64,
    ) {
        let Some(mtbf) = mtbf else {
            return;
        };
        for node in nodes {
            let at_us = now_us.saturating_add(self.lifetime(mtbf));
            self.pending.push(Transition {
                at_us,
                node,
                down: true,
                stochastic: true,
            });
        }
    }

    /// Removes and returns every pending transition due strictly before
    /// `horizon_us`, ordered by `(at_us, node, down)` so same-instant
    /// transitions schedule deterministically. Transitions at or past
    /// the horizon stay pending for a later `run` — the same half-open
    /// `[start, end)` convention `Cloud::run` uses when seeding
    /// subscription firings, so splitting one run into two at any
    /// boundary processes the identical event set.
    pub(crate) fn drain_due(&mut self, horizon_us: u64) -> Vec<Transition> {
        let mut due: Vec<Transition> = Vec::new();
        let mut keep = Vec::with_capacity(self.pending.len());
        for t in self.pending.drain(..) {
            if t.at_us < horizon_us {
                due.push(t);
            } else {
                keep.push(t);
            }
        }
        self.pending = keep;
        due.sort_by_key(|t| (t.at_us, t.node, t.down));
        due
    }

    /// Chains the renewal process after a stochastic transition fired:
    /// a crash queues the recovery, a recovery queues the next crash.
    /// The chained transition lands in `pending`; the caller drains it
    /// (if due within its horizon) via [`OutageModel::drain_due`].
    pub(crate) fn chain(&mut self, node: NodeId, went_down: bool, now_us: u64) {
        let control_plane = !matches!(node, NodeId::Server(_));
        let (mtbf, mttr) = if control_plane {
            (self.cp_mtbf_us, self.cp_mttr_us)
        } else {
            (self.mtbf_us, self.mttr_us)
        };
        let mean = if went_down {
            mttr
        } else {
            match mtbf {
                Some(m) => m,
                None => return,
            }
        };
        let at_us = now_us.saturating_add(self.lifetime(mean.max(1)));
        self.pending.push(Transition {
            at_us,
            node,
            down: !went_down,
            stochastic: true,
        });
    }

    /// Whether any transitions are still pending.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// Counters of node-level failure activity, surfaced via
/// [`crate::Cloud::outage_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutageStats {
    /// Node crash transitions applied.
    pub crashes: u64,
    /// Node recovery transitions applied.
    pub recoveries: u64,
    /// Secure channels re-established after a recovery (stale session
    /// keys never resume across a crash). Re-keying is *lazy*: a
    /// recovery only marks the node's channels stale, and each channel
    /// re-handshakes on its first post-recovery use, so this counts
    /// performed handshakes, not recovered nodes.
    pub rehandshakes: u64,
    /// Channel re-handshakes deferred at recovery time (marked stale,
    /// to be re-keyed on first use). Deferring avoids a synchronized
    /// handshake burst when churn recovers many nodes at once.
    pub deferred_rekeys: u64,
    /// In-flight sessions failed fast with [`crate::CloudError::NodeDown`].
    pub node_down_failures: u64,
    /// VMs migrated off a crashed server onto a live one.
    pub evacuations: u64,
    /// VMs that could not be evacuated (no live server with capacity
    /// and the required properties) and were terminated.
    pub evacuation_failures: u64,
}

/// The outage side of the cloud: the installed schedule, the nodes
/// currently crashed and the failure counters. What a crash *does* to
/// the other planes is [`crate::Cloud`]'s crash/recovery handler; this
/// is the one owner of "which nodes are down".
#[derive(Debug, Default)]
pub(crate) struct Outages {
    /// The installed node-outage schedule, if any.
    pub(crate) model: Option<OutageModel>,
    /// Nodes currently crashed.
    pub(crate) down: BTreeSet<NodeId>,
    /// Node-failure activity counters.
    pub(crate) stats: OutageStats,
}

impl Outages {
    /// Servers currently crashed (the exclusion set for placement).
    pub(crate) fn down_servers(&self) -> BTreeSet<ServerId> {
        self.down
            .iter()
            .filter_map(|n| match n {
                NodeId::Server(id) => Some(*id),
                _ => None,
            })
            .collect()
    }
}

/// The Attestation Server's bounded admission gate.
///
/// Beyond `high` sessions in flight, new sessions are *shed* — refused
/// at admission with [`crate::CloudError::Overloaded`] before any work
/// (or RNG draw) happens — rather than queued unboundedly. Shedding
/// persists until the backlog drains to `low` (hysteresis: without the
/// gap, in-flight load hovering at the threshold would flap the gate on
/// every admission).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionControl {
    high: usize,
    low: usize,
    shedding: bool,
}

impl AdmissionControl {
    /// A gate that starts shedding at `high` sessions in flight and
    /// re-admits once in-flight drains to `low` (clamped to `high`).
    pub fn new(high: usize, low: usize) -> Self {
        let high = high.max(1);
        AdmissionControl {
            high,
            low: low.min(high),
            shedding: false,
        }
    }

    /// Decides one admission given the current sessions-in-flight
    /// count. Updates the hysteresis state.
    pub(crate) fn admit(&mut self, in_flight: usize) -> bool {
        if self.shedding && in_flight <= self.low {
            self.shedding = false;
        }
        if !self.shedding && in_flight >= self.high {
            self.shedding = true;
        }
        !self.shedding
    }

    /// Whether the gate is currently refusing admissions.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_transitions_drain_in_time_order() {
        let mut model = OutageModel::new(1)
            .crash_at(500, NodeId::Server(ServerId(1)))
            .crash_at(100, NodeId::Controller(0))
            .recover_at(300, NodeId::Controller(0));
        let due = model.drain_due(400);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].at_us, 100);
        assert!(due[0].down);
        assert_eq!(due[1].at_us, 300);
        assert!(!due[1].down);
        // The 500us crash is past the horizon: still pending.
        assert!(model.has_pending());
        let later = model.drain_due(1_000);
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].node, NodeId::Server(ServerId(1)));
        assert!(!model.has_pending());
    }

    #[test]
    fn renewal_process_primes_once_per_server_and_chains() {
        let mut model = OutageModel::new(7).mtbf(1_000_000, 100_000);
        model.prime([ServerId(0), ServerId(1)], 0);
        model.prime([ServerId(0), ServerId(1)], 0); // idempotent
        let due = model.drain_due(u64::MAX);
        assert_eq!(due.len(), 2);
        for t in &due {
            assert!(t.down && t.stochastic);
            // Uniform ±50% of the mean.
            assert!((500_000..=1_500_000).contains(&t.at_us), "{}", t.at_us);
        }
        // A fired crash chains its recovery.
        model.chain(due[0].node, true, due[0].at_us);
        let rec = model.drain_due(u64::MAX);
        assert_eq!(rec.len(), 1);
        assert!(!rec[0].down);
        let downtime = rec[0].at_us - due[0].at_us;
        assert!((50_000..=150_000).contains(&downtime), "{downtime}");
    }

    #[test]
    fn control_plane_renewal_is_opt_in_and_separately_paced() {
        // Without the knob, priming control-plane nodes draws nothing:
        // server-only seeds see an identical stream.
        let mut server_only = OutageModel::new(11).mtbf(1_000_000, 100_000);
        server_only.prime([ServerId(0)], 0);
        server_only.prime_control_plane([NodeId::Controller(0), NodeId::AttestationServer(0)], 0);
        assert_eq!(server_only.drain_due(u64::MAX).len(), 1);

        let mut model = OutageModel::new(11)
            .mtbf(1_000_000, 100_000)
            .control_plane_mtbf(4_000_000, 50_000);
        model.prime([ServerId(0)], 0);
        model.prime_control_plane([NodeId::Controller(0), NodeId::AttestationServer(1)], 0);
        model.prime_control_plane([NodeId::Controller(0), NodeId::AttestationServer(1)], 0); // idempotent
        let due = model.drain_due(u64::MAX);
        assert_eq!(due.len(), 3);
        let cp: Vec<_> = due
            .iter()
            .filter(|t| !matches!(t.node, NodeId::Server(_)))
            .collect();
        assert_eq!(cp.len(), 2);
        for t in &cp {
            assert!(t.down && t.stochastic);
            assert!((2_000_000..=6_000_000).contains(&t.at_us), "{}", t.at_us);
        }
        // A fired control-plane crash chains a recovery on the
        // control-plane MTTR, not the server one.
        model.chain(NodeId::AttestationServer(1), true, 4_000_000);
        let rec = model.drain_due(u64::MAX);
        assert_eq!(rec.len(), 1);
        let downtime = rec[0].at_us - 4_000_000;
        assert!((25_000..=75_000).contains(&downtime), "{downtime}");
    }

    #[test]
    fn model_is_deterministic_per_seed() {
        let first_crashes = |seed: u64| {
            let mut m = OutageModel::new(seed).mtbf(500_000, 50_000);
            m.prime([ServerId(0), ServerId(1), ServerId(2)], 0);
            m.drain_due(u64::MAX)
                .into_iter()
                .map(|t| t.at_us)
                .collect::<Vec<_>>()
        };
        assert_eq!(first_crashes(3), first_crashes(3));
        assert_ne!(first_crashes(3), first_crashes(4));
    }

    #[test]
    fn admission_gate_hysteresis() {
        let mut gate = AdmissionControl::new(4, 2);
        assert!(gate.admit(0));
        assert!(gate.admit(3));
        // Hitting the high-water mark starts shedding.
        assert!(!gate.admit(4));
        assert!(gate.is_shedding());
        // Still above low water: keep shedding even below high.
        assert!(!gate.admit(3));
        // Drained to low water: re-admit.
        assert!(gate.admit(2));
        assert!(!gate.is_shedding());
        assert!(gate.admit(3));
    }

    #[test]
    fn admission_gate_clamps_degenerate_marks() {
        // low > high clamps to high: a plain threshold.
        let gate = AdmissionControl::new(2, 9);
        assert_eq!((gate.low, gate.high), (2, 2));
        let mut gate = AdmissionControl::new(0, 0); // high clamps to 1
        assert!(gate.admit(0));
        assert!(!gate.admit(1));
    }
}
