//! Periodic attestation (Table 1's `runtime_attest_periodic` family)
//! and [`Cloud::run`], the discrete-event loop that fires subscriptions
//! as they come due.
//!
//! Each firing starts an independent event-driven session
//! ([`crate::session`]), so N subscriptions attest concurrently: a
//! subscription whose server is behind a lossy path retries on its own
//! timer while every other subscription's messages keep flowing — no
//! head-of-line blocking. Sample completion (report bookkeeping, missed
//! counters, escalation to the Response Module) happens when the
//! session finishes, in the event order the queue dictates.

use super::{AttestationReport, Cloud};
use crate::error::CloudError;
use crate::session::{CloudEvent, SessionOrigin};
use crate::types::{HealthStatus, SecurityProperty, Vid};
use monatt_crypto::drbg::Drbg;

/// The cadence of a periodic attestation (Table 1: "at the frequency of
/// freq or at random intervals").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frequency {
    /// A fixed period.
    Fixed(u64),
    /// Uniformly random intervals in `[min_us, max_us]` — randomized
    /// monitoring is harder for an attacker to schedule around.
    Random {
        /// Shortest interval.
        min_us: u64,
        /// Longest interval.
        max_us: u64,
    },
}

impl Frequency {
    /// Convenience constructor for a fixed period in seconds.
    pub fn secs(s: u64) -> Self {
        Frequency::Fixed(s * 1_000_000)
    }

    pub(crate) fn next_interval(&self, rng: &mut Drbg) -> u64 {
        match *self {
            Frequency::Fixed(us) => us,
            Frequency::Random { min_us, max_us } => {
                // Sample from [min_us, max_us] exactly. A degenerate or
                // inverted range (max_us <= min_us) clamps to min_us
                // instead of silently overshooting max_us; a zero
                // interval would never advance the clock, so floor at 1.
                if max_us <= min_us {
                    return min_us.max(1);
                }
                min_us + rng.next_u64_below(max_us - min_us + 1)
            }
        }
    }
}

/// A periodic attestation subscription.
#[derive(Debug)]
pub(crate) struct Subscription {
    pub(crate) vid: Vid,
    pub(crate) property: SecurityProperty,
    pub(crate) frequency: Frequency,
    pub(crate) next_due_us: u64,
    pub(crate) reports: Vec<AttestationReport>,
    /// The degradation counters, kept in their reporting form
    /// (`delivered` is counted from `reports` on read).
    pub(crate) health: SubscriptionHealth,
}

/// Degradation counters of one periodic subscription — missed samples
/// are recorded, not silently discarded, so a lossy network is
/// distinguishable from a healthy one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubscriptionHealth {
    /// Reports successfully delivered so far.
    pub delivered: u64,
    /// Samples that came due but produced no report.
    pub missed: u64,
    /// Failures since the last successful sample.
    pub consecutive_failures: u32,
    /// Times the failure streak reached the escalation threshold.
    pub escalations: u32,
    /// Automatic remediation responses that failed (e.g. a migration
    /// with no qualified destination). Previously these errors were
    /// silently discarded.
    pub failed_responses: u64,
}

impl Cloud {
    /// Table 1: `runtime_attest_periodic(Vid, P, freq, N)` — subscribes
    /// to periodic attestation. Reports accumulate as the cloud
    /// [`Cloud::run`]s.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] if the VM does not exist.
    pub fn runtime_attest_periodic(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
        freq_us: u64,
    ) -> Result<u64, CloudError> {
        self.runtime_attest_with_frequency(vid, property, Frequency::Fixed(freq_us))
    }

    /// Table 1's random-interval mode: periodic attestation at uniformly
    /// random intervals, which an attacker cannot schedule around.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] if the VM does not exist.
    pub fn runtime_attest_with_frequency(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
        frequency: Frequency,
    ) -> Result<u64, CloudError> {
        if self.fleet.controller.vm(vid).is_none() {
            return Err(CloudError::UnknownVm(vid));
        }
        let id = self.next_subscription;
        self.next_subscription += 1;
        let first = frequency.next_interval(&mut self.rng);
        self.subscriptions.insert(
            id,
            Subscription {
                vid,
                property,
                frequency,
                next_due_us: self.events.now() + first,
                reports: Vec::new(),
                health: SubscriptionHealth::default(),
            },
        );
        Ok(id)
    }

    /// Degradation counters of a periodic subscription.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownSubscription`] for an unknown id.
    pub fn subscription_health(&self, subscription: u64) -> Result<SubscriptionHealth, CloudError> {
        let sub = self
            .subscriptions
            .get(&subscription)
            .ok_or(CloudError::UnknownSubscription(subscription))?;
        let delivered = sub.reports.iter().filter(|r| !r.status.is_unreachable());
        Ok(SubscriptionHealth {
            delivered: delivered.count() as u64,
            ..sub.health
        })
    }

    /// Table 1: `stop_attest_periodic(Vid, P, N)` — ends a subscription
    /// and returns the accumulated reports.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownSubscription`] for an unknown id.
    pub fn stop_attest_periodic(
        &mut self,
        subscription: u64,
    ) -> Result<Vec<AttestationReport>, CloudError> {
        self.subscriptions
            .remove(&subscription)
            .map(|s| s.reports)
            .ok_or(CloudError::UnknownSubscription(subscription))
    }

    /// Runs the cloud for `duration_us`, firing periodic attestations as
    /// they come due and interleaving all resulting protocol sessions on
    /// one event queue.
    ///
    /// ## Horizon semantics
    ///
    /// The run covers the half-open interval `[start, end)` with
    /// `end = start + duration_us`: a subscription firing or outage
    /// transition due strictly before `end` fires in this run; one due
    /// exactly at `end` is carried (in `next_due_us` or the outage
    /// model's pending set) and fires first thing in the next run. All
    /// three scheduling sites — initial subscription seeding here,
    /// follow-up firings in `schedule_subscription_due`, and the outage
    /// model's `drain_due` — use the same strict `< end` comparison, so
    /// back-to-back runs of `d` and `d'` microseconds process exactly
    /// the events one run of `d + d'` would (pinned by the
    /// horizon-boundary test in `cloud/tests.rs`).
    ///
    /// A sample that fails (protocol failure or unreachable server) is
    /// recorded on the subscription, not silently discarded; after
    /// [`super::CloudBuilder::escalation_threshold`] consecutive
    /// failures the subscription files an [`HealthStatus::Unreachable`]
    /// report and, under auto-response, invokes the Response Module's
    /// unreachable policy.
    pub fn run(&mut self, duration_us: u64) {
        let now = self.events.now();
        let end = now + duration_us;
        self.events.horizon = Some(end);
        // Seed the queue with every subscription's next firing. A due
        // time already in the past fires immediately, in subscription-id
        // order (the queue breaks ties by schedule order). Strictly
        // `< end`: a firing due exactly at the horizon belongs to the
        // next run (see the doc comment's horizon semantics).
        for (&id, sub) in &self.subscriptions {
            if sub.next_due_us < end {
                let due = sub.next_due_us.max(now);
                self.events
                    .schedule(due, CloudEvent::SubscriptionDue { id });
            }
        }
        // Seed the outage model's transitions due inside this run. The
        // model keeps its own RNG, so priming it never perturbs the
        // cloud's stream; chained follow-ups are scheduled as each
        // transition fires (see `apply_outage`), horizon-gated the same
        // way subscription firings are.
        if let Some(model) = self.outage.model.as_mut() {
            model.prime(self.fleet.nodes().keys().copied(), now);
            // Control-plane churn draws strictly after the server draws
            // (and only when its MTBF knob is set), so existing seeded
            // schedules are unchanged.
            model.prime_control_plane(self.topology.control_nodes(), now);
        }
        self.schedule_due_outages();
        self.pump(None);
        self.events.horizon = None;
        // Attestation work may already have advanced the clock past
        // `end`; saturate so the final advance never overshoots the
        // requested horizon. Event dispatch moved only the wall clock
        // (lazy pull), so even a zero advance settles every server
        // before handing control back: callers observe post-run state.
        self.advance(end.saturating_sub(self.events.now()));
    }

    /// A subscription came due: start its attestation session. An error
    /// before the session even gets on the wire counts as a missed
    /// sample immediately.
    pub(crate) fn start_subscription_sample(&mut self, id: u64) {
        let Some(sub) = self.subscriptions.get(&id) else {
            // Unsubscribed while the firing was queued: skip.
            return;
        };
        let (vid, property) = (sub.vid, sub.property);
        // With an evidence validity window configured, a sample whose
        // verdict is still fresh is served from the Attestation Server's
        // cache — no session, no measurement hops (sub-attestation
        // reuse). Steady periodic subscriptions with a period shorter
        // than the window mostly hit this path.
        if let Some(report) = self.evidence_probe(vid, property) {
            self.complete_subscription_sample(id, vid, property, Ok(report));
            return;
        }
        let (program, origin) = (self.programs.fig3_customer, SessionOrigin::Subscription(id));
        if let Err(e) = self.begin_session(vid, None, property, program, origin) {
            self.complete_subscription_sample(id, vid, property, Err(e));
        }
    }

    /// A subscription's session finished (or failed to start): record
    /// the report or the miss, run auto-response policy, and schedule
    /// the next firing.
    pub(crate) fn complete_subscription_sample(
        &mut self,
        id: u64,
        vid: Vid,
        property: SecurityProperty,
        result: Result<AttestationReport, CloudError>,
    ) {
        let Some(frequency) = self.subscriptions.get(&id).map(|s| s.frequency) else {
            return;
        };
        let auto = self.fleet.auto_response;
        // A failed attestation is remediated *before* the next firing is
        // drawn: the response's own duration pushes the schedule out.
        if let (Ok(report), true) = (&result, auto) {
            if !report.healthy() {
                let action = self.fleet.controller.choose_response(property);
                self.auto_respond(vid, action, Some(id));
            }
        }
        let now = self.events.now();
        let next_due = now + frequency.next_interval(&mut self.rng);
        let threshold = self.escalation_threshold;
        let Some(sub) = self.subscriptions.get_mut(&id) else {
            return;
        };
        sub.next_due_us = next_due;
        let health = &mut sub.health;
        let mut escalated = false;
        match result {
            Ok(report) => {
                health.consecutive_failures = 0;
                sub.reports.push(report);
            }
            Err(e) => {
                health.missed += 1;
                // An admission-shed sample is the attestation server's
                // own load decision, not evidence the monitored node is
                // failing: it counts as missed but does not feed the
                // unreachable-escalation streak.
                if !matches!(e, CloudError::Overloaded { .. }) {
                    health.consecutive_failures += 1;
                    escalated = health.consecutive_failures >= threshold;
                }
                if escalated {
                    health.escalations += 1;
                    // File the degradation as a first-class report so
                    // the customer sees the monitoring gap.
                    let missed = std::mem::take(&mut health.consecutive_failures);
                    sub.reports.push(AttestationReport {
                        vid,
                        property,
                        status: HealthStatus::Unreachable { missed },
                        elapsed_us: 0,
                        issued_at_us: now,
                    });
                }
            }
        }
        if escalated && auto {
            let action = self.fleet.controller.choose_unreachable_response();
            self.auto_respond(vid, action, Some(id));
        }
        // Schedule the next firing if it falls inside the current run
        // (strictly before its horizon, the `[start, end)` convention) —
        // otherwise `next_due_us` on the subscription carries it into
        // the next run.
        if self.events.horizon.is_some_and(|end| next_due < end) {
            self.events
                .schedule(next_due, CloudEvent::SubscriptionDue { id });
        }
    }
}
