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
use crate::verify_ring::Closing;
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
    /// Every report filed so far, held until [`Cloud::stop_attest_periodic`]:
    /// what [`SubscriptionHealth`]'s `delivered` and `escalations` count.
    pub(crate) reports: ReportLog,
    /// Samples that came due but produced no report.
    missed: u64,
    /// Failures since the last successful sample.
    consecutive_failures: u32,
    /// Automatic remediation responses that failed.
    pub(crate) failed_responses: u64,
}

impl Subscription {
    /// The degradation counters: `delivered` and `escalations` counted
    /// from the report log, the rest as kept.
    fn health(&self) -> SubscriptionHealth {
        let escalations = self.reports.unreachable();
        SubscriptionHealth {
            delivered: self.reports.len() - u64::from(escalations),
            missed: self.missed,
            consecutive_failures: self.consecutive_failures,
            escalations,
            failed_responses: self.failed_responses,
        }
    }
}

/// Records per chunk of a [`ReportLog`] (384 B).
const CHUNK: usize = 16;

/// One filed report, less the `vid` and `property` its subscription
/// holds: 24 B, where an [`AttestationReport`] is 56.
#[derive(Clone, Copy, Debug, Default)]
struct Record {
    issued_at_us: u64,
    elapsed_us: u64,
    status: Status,
}

const _: () = assert!(std::mem::size_of::<Record>() == 24);

/// A record's verdict. A compromised record's reason is the next one in
/// its log's `reasons`, so only compromised samples pay for a `String`.
#[derive(Clone, Copy, Debug, Default)]
enum Status {
    #[default]
    Healthy,
    Compromised,
    Unreachable {
        missed: u32,
    },
}

/// A subscription's reports in issue order: fixed-size records in
/// fixed-size chunks, so the log holds at most one chunk more than its
/// length.
#[derive(Debug, Default)]
pub(crate) struct ReportLog {
    /// Full chunks, then the one being filled. Each is its own
    /// allocation, so growing the log never copies a record.
    #[allow(clippy::vec_box)]
    chunks: Vec<Box<[Record; CHUNK]>>,
    len: usize,
    /// The compromised records' reasons, in issue order.
    reasons: Vec<String>,
    /// `Unreachable` records: the escalations filed.
    unreachable: u32,
}

impl ReportLog {
    fn push(&mut self, status: HealthStatus, elapsed_us: u64, issued_at_us: u64) {
        let status = match status {
            HealthStatus::Healthy => Status::Healthy,
            HealthStatus::Compromised { reason } => {
                self.reasons.push(reason);
                Status::Compromised
            }
            HealthStatus::Unreachable { missed } => {
                self.unreachable += 1;
                Status::Unreachable { missed }
            }
        };
        let slot = self.len % CHUNK;
        if slot == 0 {
            self.chunks.push(Box::new([Record::default(); CHUNK]));
        }
        if let Some(record) = self.chunks.last_mut().and_then(|c| c.get_mut(slot)) {
            *record = Record {
                issued_at_us,
                elapsed_us,
                status,
            };
            self.len += 1;
        }
    }

    /// Records filed.
    pub(crate) fn len(&self) -> u64 {
        self.len as u64
    }

    /// `Unreachable` records filed.
    pub(crate) fn unreachable(&self) -> u32 {
        self.unreachable
    }

    /// When the last record was issued, if there is one.
    pub(crate) fn last_issued_at_us(&self) -> Option<u64> {
        let last = self.len.checked_sub(1)? % CHUNK;
        self.chunks.last()?.get(last).map(|r| r.issued_at_us)
    }

    /// The reports again, in issue order, with the subscription's `vid`
    /// and `property`.
    fn into_reports(self, vid: Vid, property: SecurityProperty) -> Vec<AttestationReport> {
        let mut reasons = self.reasons.into_iter();
        let records = self.chunks.iter().flat_map(|c| c.iter()).take(self.len);
        let mut reports = Vec::with_capacity(self.len);
        reports.extend(records.map(|r| AttestationReport {
            vid,
            property,
            status: match r.status {
                Status::Healthy => HealthStatus::Healthy,
                Status::Compromised => HealthStatus::Compromised {
                    reason: reasons.next().unwrap_or_default(),
                },
                Status::Unreachable { missed } => HealthStatus::Unreachable { missed },
            },
            elapsed_us: r.elapsed_us,
            issued_at_us: r.issued_at_us,
        }));
        reports
    }
}

/// Degradation counters of one periodic subscription — missed samples
/// are recorded, not silently discarded, so a lossy network is
/// distinguishable from a healthy one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubscriptionHealth {
    /// Reports successfully delivered so far (escalations excluded).
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
        self.fleet.live(vid)?;
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
                reports: ReportLog::default(),
                missed: 0,
                consecutive_failures: 0,
                failed_responses: 0,
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
        self.subscriptions
            .get(&subscription)
            .map(Subscription::health)
            .ok_or(CloudError::UnknownSubscription(subscription))
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
            .map(|s| s.reports.into_reports(s.vid, s.property))
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
        self.pump_with_helper();
        self.events.horizon = None;
        // Attestation work may already have advanced the clock past
        // `end`; saturate so the final advance never overshoots the
        // requested horizon. Event dispatch moved only the wall clock
        // (lazy pull), so even a zero advance settles every server
        // before handing control back: callers observe post-run state.
        self.advance(end.saturating_sub(self.events.now()));
    }

    /// Drains the queue ([`Cloud::pump`]) with the verification helper
    /// alongside (see [`crate::verify_ring`]): one scoped thread that
    /// verifies each record's signatures while the event loop goes on,
    /// so the receiver finds the verdict ready. Only on a host with a
    /// second hardware thread; otherwise, and for every API call, the
    /// receivers verify inline as before. The helper drains its queue
    /// before the scope joins it.
    fn pump_with_helper(&mut self) {
        let Some(ring) = self.offload.ring(self.fleet.workers) else {
            return self.pump(None);
        };
        std::thread::scope(|scope| {
            let helper = scope.spawn(|| ring.serve());
            // Closes the ring on the way out, a panic included, so the
            // scope can join the helper.
            let _closing = Closing::new(&ring, helper.thread());
            self.offload.helper = Some(helper.thread().clone());
            self.pump(None);
            self.offload.helper = None;
        });
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
        let mut escalated = false;
        match result {
            Ok(report) => {
                debug_assert_eq!((report.vid, report.property), (vid, property));
                sub.consecutive_failures = 0;
                sub.reports
                    .push(report.status, report.elapsed_us, report.issued_at_us);
            }
            Err(e) => {
                sub.missed += 1;
                // An admission-shed sample is the attestation server's
                // own load decision, not evidence the monitored node is
                // failing: it counts as missed but does not feed the
                // unreachable-escalation streak.
                if !matches!(e, CloudError::Overloaded { .. }) {
                    sub.consecutive_failures += 1;
                    escalated = sub.consecutive_failures >= threshold;
                }
                if escalated {
                    // File the degradation as a first-class report so
                    // the customer sees the monitoring gap: the log's
                    // `Unreachable` records are the escalations.
                    let missed = std::mem::take(&mut sub.consecutive_failures);
                    sub.reports
                        .push(HealthStatus::Unreachable { missed }, 0, now);
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
