//! The `Cloud` facade: wires customer, Cloud Controller, Attestation
//! Server and Cloud Servers together over the simulated network, and
//! exposes the paper's monitoring/attestation APIs (Table 1), the VM
//! launch pipeline (Section 7.1.1), periodic attestation (Section 3.2.1)
//! and remediation responses (Section 5).
//!
//! [`Cloud`] is an interpreter over a few owned planes, each the single
//! owner of an operation (DESIGN.md §10):
//!
//! * `events` — clock, event queue, session arena: one `schedule`, one
//!   `pop`, and `Cloud::pump`, the one pop→dispatch loop.
//! * `fleet` — servers, the per-VM row, capacity: one `place`/`unplace`
//!   pair, one lifecycle `set_state`, one `live` gate.
//! * `appraisers` — the Attestation-Server replicas behind their
//!   admission gate, msg-4 coalescing buffer and evidence window.
//! * [`crate::outage`]'s `Outages` — schedule, down-set, counters.
//! * `crate::links` — every secure channel and its re-key state.
//!
//! The files of this module are the facade over them:
//!
//! * `mod.rs` — the [`Cloud`] state, its accessors, the event
//!   dispatcher and crash/recovery handler (the one place that touches
//!   every plane), plus the synchronous Table-1 attestation wrappers.
//! * `build` — [`CloudBuilder`], [`VmRequest`] and the launch
//!   pipeline.
//! * `subscriptions` — periodic attestation ([`Frequency`],
//!   [`SubscriptionHealth`]) and [`Cloud::run`].
//! * `response` — the Response Module's remediation actions.
//!
//! The protocol state machines themselves live in `crate::session` and
//! [`crate::protocol`]; this module only owns the state they operate
//! on. Cloud nodes are named by [`NodeId`] throughout — controller
//! instance `i`, Attestation-Server replica `r`, or a server.

mod appraisers;
mod build;
mod events;
mod fleet;
mod response;
mod subscriptions;
#[cfg(test)]
mod tests;

pub use build::{CloudBuilder, LaunchTiming, VmRequest, WorkloadHandles, WorkloadSpec};
pub use response::ResponseTiming;
pub use subscriptions::{Frequency, SubscriptionHealth};

use crate::attestation::AttestationServer;
use crate::controller::{ResponseAction, VmLifecycle};
use crate::controlplane::{ControlPlaneStats, ControlPlaneTopology};
use crate::error::CloudError;
use crate::latency::{LatencyParams, RetryPolicy};
use crate::links::Links;
use crate::outage::{OutageModel, OutageStats, Outages};
use crate::protocol::{CompileError, ProgramId, ProgramRegistry, Protocol};
use crate::server::CloudServerNode;
use crate::session::{CloudEvent, SessionId, SessionOrigin};
use crate::types::{HealthStatus, NodeId, ProtocolStats, SecurityProperty, ServerId, Vid};
use crate::verify_ring::Offload;
use appraisers::Appraisers;
use events::Events;
use fleet::Fleet;
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::BoundKey;
use monatt_net::sim::SimNetwork;
use std::collections::BTreeMap;
use subscriptions::Subscription;

/// The customer-facing attestation result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttestationReport {
    /// The attested VM.
    pub vid: Vid,
    /// The property checked.
    pub property: SecurityProperty,
    /// The verdict.
    pub status: HealthStatus,
    /// End-to-end attestation latency (protocol + measurement window).
    pub elapsed_us: u64,
    /// At what cloud wall-clock time the report was issued.
    pub issued_at_us: u64,
}

impl AttestationReport {
    /// True if the property was judged to hold.
    pub fn healthy(&self) -> bool {
        self.status.is_healthy()
    }
}

/// Maps a protocol-compile error into the cloud's error type.
fn compile_failure(e: CompileError) -> CloudError {
    CloudError::protocol(format!("protocol did not compile: {e}"))
}

/// The assembled CloudMonatt cloud.
pub struct Cloud {
    pub(crate) rng: Drbg,
    /// Clock, event queue, in-flight sessions.
    pub(crate) events: Events,
    /// Servers, the controller's VM rows and capacity, lifecycle.
    pub(crate) fleet: Fleet,
    /// The Attestation-Server replica pool and its front door.
    pub(crate) appraisers: Appraisers,
    /// What the customer holds: the identity key (VKc) of every
    /// controller instance, indexed by instance and bound once at
    /// deployment. Message 6 is verified against the instance that
    /// served the session.
    pub(crate) customer_anchors: Vec<BoundKey>,
    /// The outage schedule, the nodes currently down, the counters.
    pub(crate) outage: Outages,
    /// The replicated control-plane topology: shard ownership, replica
    /// health, and the per-session routing decisions.
    pub(crate) topology: ControlPlaneTopology,
    pub(crate) network: SimNetwork,
    /// Every secure channel, the identities behind them and the lazy
    /// re-key state (see [`crate::links`]).
    pub(crate) links: Links,
    pub(crate) latency: LatencyParams,
    pub(crate) retry: RetryPolicy,
    pub(crate) stats: ProtocolStats,
    pub(crate) subscriptions: BTreeMap<u64, Subscription>,
    pub(crate) next_subscription: u64,
    pub(crate) escalation_threshold: u32,
    /// Compiled attestation-protocol programs: the standard Figure-3
    /// customer/internal exchanges, layered attestation, cached fan-out
    /// variants, and anything registered through
    /// [`Cloud::register_protocol`].
    pub(crate) programs: ProgramRegistry,
    /// The event loop's end of the verification helper's ring (see
    /// [`crate::verify_ring`]): idle outside [`Cloud::run`].
    pub(crate) offload: Offload,
    /// Every failed subscription sample's error, in order: what the
    /// tests compare across helper modes.
    #[cfg(test)]
    pub(crate) failures: Vec<(Vid, CloudError)>,
}

impl std::fmt::Debug for Cloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cloud")
            .field("servers", &self.server_count())
            .field("wall_clock_us", &self.wall_clock_us())
            .field("sessions_in_flight", &self.sessions_in_flight())
            .finish_non_exhaustive()
    }
}

impl Cloud {
    /// Current cloud wall-clock time in microseconds.
    pub fn wall_clock_us(&self) -> u64 {
        self.events.now()
    }

    /// Number of cloud servers.
    pub fn server_count(&self) -> usize {
        self.fleet.nodes().len()
    }

    /// The server currently hosting `vid`.
    pub fn server_of(&self, vid: Vid) -> Option<ServerId> {
        self.fleet.controller.vm(vid).map(|r| r.server)
    }

    /// Lifecycle state of `vid`.
    pub fn vm_state(&self, vid: Vid) -> Option<VmLifecycle> {
        self.fleet.controller.vm(vid).map(|r| r.state)
    }

    /// Read access to a server node (monitor tools, experiment checks).
    /// State is as of the node's last catch-up: sessions, launches,
    /// responses and evidence-cache hits move only the wall clock and
    /// catch up just the nodes they act on — an idle node when touched, a
    /// busy one whenever any busy node is touched — so call
    /// [`Cloud::advance`] or [`Cloud::sync_servers`] first for current
    /// values.
    pub fn server(&self, id: ServerId) -> Option<&CloudServerNode> {
        self.fleet.nodes().get(&id)
    }

    /// Mutable server access — used by attack injection in experiments.
    /// The node is caught up to the wall clock first.
    pub fn server_mut(&mut self, id: ServerId) -> Option<&mut CloudServerNode> {
        self.fleet.touch(id, self.events.now())
    }

    /// The network, for installing Dolev-Yao adversaries and fault
    /// models in experiments.
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        &mut self.network
    }

    /// Turns the simulated network's transmission log on or off (off
    /// by default). A caller that reads `network_mut().log()` turns it
    /// on first; every transmit then copies its endpoint names and
    /// payloads into an unbounded log — the only allocations a warm
    /// attestation round would make. Message fates, latencies and RNG
    /// draws are unaffected.
    pub fn set_network_logging(&mut self, on: bool) {
        self.network.set_logging(on);
    }

    /// Per-hop protocol delivery counters (retries, drops seen,
    /// duplicates rejected, timeouts) and session gauges accumulated
    /// since the last reset. `max_queue_depth` is filled here, from
    /// the event queue's own high-water mark — the one place it is recorded.
    /// Read straight after [`Cloud::reset_protocol_stats`] it therefore
    /// equals the events pending at the reset, not zero.
    pub fn protocol_stats(&self) -> ProtocolStats {
        ProtocolStats {
            max_queue_depth: self.events.max_depth() as u64,
            ..self.stats
        }
    }

    /// Zeroes the protocol counters (e.g. between experiment phases).
    /// The queue-depth high-water mark restarts from the events pending
    /// right now, so the gauges describe the phase that follows, not
    /// the lifetime peak.
    pub fn reset_protocol_stats(&mut self) {
        self.stats = ProtocolStats::default();
        self.events.reset_max_depth();
    }

    /// The per-hop retransmission policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Attestation sessions currently in flight.
    pub fn sessions_in_flight(&self) -> usize {
        self.events.sessions.len()
    }

    /// Automatic remediation responses that themselves failed. A failed
    /// auto-response is recorded here (and on the owning subscription's
    /// [`SubscriptionHealth::failed_responses`]) instead of being
    /// silently discarded.
    pub fn auto_response_failures(&self) -> u64 {
        self.fleet.auto_response_failures
    }

    /// Diagnostic: draws and returns one value from the cloud's DRBG.
    ///
    /// Determinism tests use this as an RNG-position fingerprint — two
    /// runs that made the same draws in the same order return the same
    /// probe value. It mutates the DRBG state, so call it only at the
    /// end of a scenario.
    pub fn drbg_probe(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// The stage breakdown of the most recent launch (Figure 9).
    pub fn last_launch_timing(&self) -> Option<LaunchTiming> {
        self.fleet.last_launch
    }

    /// Advances the wall clock by `duration_us` and catches every server
    /// simulator up to it — the synchronous scenario-boundary form, after
    /// which observed server state (workload progress, CPU time) is
    /// current.
    pub fn advance(&mut self, duration_us: u64) {
        self.events.advance(duration_us);
        self.sync_servers();
    }

    /// Catches every server simulator up to the wall clock. Internal
    /// event dispatch and charged management time (launch, responses,
    /// evidence-cache hits) move only the wall clock (lazy pull — O(1)
    /// in fleet size); each node pays its elapsed time when next touched,
    /// or here in bulk. Busy servers, which cannot fast-forward, are
    /// caught up together and shared over the host's hardware threads
    /// (here and whenever a busy server is touched); idle ones leap on
    /// the calling thread. The result is the same on any host.
    pub fn sync_servers(&mut self) {
        self.fleet.sync(self.events.now());
    }

    /// The one event loop: pops the next event (which moves the clock),
    /// routes it to its handler, and repeats until the queue drains —
    /// or, when `until` names a session, until that session has parked
    /// its outcome. Outside [`Cloud::run`] the queue only ever holds
    /// that session's events (and those of any fork children it
    /// spawned).
    pub(crate) fn pump(&mut self, until: Option<SessionId>) {
        while !until.is_some_and(|sid| self.events.settled(sid)) {
            let Some(event) = self.events.pop() else {
                return;
            };
            match event {
                CloudEvent::Session { sid, event } => self.step_session(sid, event),
                CloudEvent::SubscriptionDue { id } => self.start_subscription_sample(id),
                CloudEvent::Outage { node, down, chain } => self.apply_outage(node, down, chain),
                CloudEvent::Msg4Flush => self.flush_msg4_batch(),
            }
        }
    }

    /// Executes an automatic remediation response, recording (instead of
    /// discarding) a failure — cloud-wide and, when a periodic sample
    /// triggered it, on the owning subscription.
    pub(crate) fn auto_respond(&mut self, vid: Vid, action: ResponseAction, sub: Option<u64>) {
        if self.respond(vid, action).is_err() {
            self.fleet.auto_response_failures += 1;
            if let Some(s) = sub.and_then(|id| self.subscriptions.get_mut(&id)) {
                s.health.failed_responses += 1;
            }
        }
    }

    // ---- Node-level failure and overload -------------------------------

    /// Installs (or replaces) a node-outage schedule. Transitions fire
    /// as engine events during [`Cloud::run`].
    pub fn set_outage_model(&mut self, model: OutageModel) {
        self.outage.model = Some(model);
    }

    /// Sets (or clears) the end-to-end deadline budget applied to every
    /// session started from now on; in-flight sessions keep the budget
    /// they were spawned with. `None` (the default) leaves sessions
    /// unbounded.
    pub fn set_session_deadline(&mut self, budget_us: Option<u64>) {
        self.events.deadline_us = budget_us;
    }

    /// Node-failure activity counters.
    pub fn outage_stats(&self) -> OutageStats {
        self.outage.stats
    }

    /// Whether `node` is currently crashed.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.outage.down.contains(&node)
    }

    /// The nodes currently crashed.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        self.outage.down.iter().copied().collect()
    }

    /// Whether the Attestation Server's admission gate is currently
    /// refusing new sessions.
    pub fn is_shedding(&self) -> bool {
        self.appraisers.is_shedding()
    }

    /// Experiment hook: crashes `node` immediately (the event-driven
    /// path is a scripted or stochastic [`OutageModel`]). Idempotent.
    /// In-flight sessions touching the node fail fast with
    /// [`CloudError::NodeDown`], as does every later hop that needs it
    /// (checked before anything is transmitted), and a cloud server's
    /// resident VMs are evacuated to live servers.
    pub fn crash_node(&mut self, node: NodeId) {
        if !self.outage.down.insert(node) {
            return;
        }
        self.outage.stats.crashes += 1;
        // A crashed controller instance hands its shards to the next
        // live instance on the ring; a crashed AS replica drops out of
        // selection. New sessions route around the hole — the in-flight
        // ones pinned to it fail fast below and re-admit.
        self.topology.on_crash(node);
        // Fail in-flight sessions whose current hop depends on the
        // node. Sessions already holding a verdict or a parked outcome
        // keep it — their network work is done.
        let victims: Vec<SessionId> = self
            .events
            .sessions
            .iter()
            .filter(|(_, s)| !s.is_terminal() && s.touches(node))
            .map(|(sid, _)| sid)
            .collect();
        for sid in victims {
            self.finish_session(sid, Err(CloudError::NodeDown { node }));
        }
        // Cached trust does not survive the platform that produced it.
        // Replica state is independent: a crashed replica loses *its*
        // evidence/AVK caches, the other replicas keep theirs.
        match node {
            NodeId::Server(id) => {
                self.appraisers
                    .each(None, |a| a.invalidate_evidence_for_server(id));
                self.fleet.on_server_crash(id);
                self.evacuate_server(id);
            }
            NodeId::AttestationServer(r) => self
                .appraisers
                .each(Some(r), AttestationServer::invalidate_all_evidence),
            NodeId::Controller(_) => {}
        }
    }

    /// Experiment hook: recovers `node` immediately. Idempotent. Every
    /// secure channel the node terminates is marked stale and
    /// re-handshaked on first use — session keys from before the crash
    /// never resume, without a synchronized handshake burst at
    /// recovery.
    pub fn recover_node(&mut self, node: NodeId) {
        if !self.outage.down.remove(&node) {
            return;
        }
        self.outage.stats.recoveries += 1;
        self.topology.on_recover(node);
        // Channel re-keying is deferred to first use (a mass recovery
        // must not burst handshakes), but the *trust boundary* advances
        // now: the pCA epoch of every replica whose links went stale
        // bumps (staling issued AVK certificates and dropping the
        // certified-AVK cache), and servers reusing an attestation
        // session start a fresh one.
        self.links.mark_stale(node, &mut self.outage.stats);
        let rekey = AttestationServer::on_rekey;
        match node {
            NodeId::Server(id) => {
                self.appraisers.each(None, rekey);
                self.fleet.reset_avk_sessions(Some(id));
            }
            NodeId::AttestationServer(r) => {
                self.appraisers.each(Some(r), rekey);
                self.fleet.reset_avk_sessions(None);
            }
            NodeId::Controller(_) => self.appraisers.each(None, rekey),
        }
    }

    /// The replicated control-plane topology: shard ownership, replica
    /// health and sizing. Dormant (K=1, N=1) unless configured via
    /// [`CloudBuilder::control_plane`].
    pub fn control_plane(&self) -> &ControlPlaneTopology {
        &self.topology
    }

    /// Cumulative control-plane failover/reroute counters.
    pub fn control_plane_stats(&self) -> ControlPlaneStats {
        self.topology.stats()
    }

    /// Turns the outage model's transitions due inside the current run
    /// into engine events; later ones stay pending in the model and
    /// seed the next run (the `[start, end)` horizon, like subscription
    /// firings). A no-op outside [`Cloud::run`].
    pub(crate) fn schedule_due_outages(&mut self) {
        let (Some(end), Some(model)) = (self.events.horizon, self.outage.model.as_mut()) else {
            return;
        };
        for t in model.drain_due(end) {
            let at = t.at_us.max(self.events.now());
            let (node, down, chain) = (t.node, t.down, t.stochastic);
            self.events
                .schedule(at, CloudEvent::Outage { node, down, chain });
        }
    }

    /// One outage-schedule transition fired; `chain` asks the renewal
    /// process for the follow-up transition.
    pub(crate) fn apply_outage(&mut self, node: NodeId, down: bool, chain: bool) {
        if down {
            self.crash_node(node);
        } else {
            self.recover_node(node);
        }
        if let (true, Some(model)) = (chain, self.outage.model.as_mut()) {
            model.chain(node, down, self.events.now());
            self.schedule_due_outages();
        }
    }

    /// Serves an attestation from the Attestation Server's evidence
    /// cache, when a validity window is configured
    /// ([`CloudBuilder::evidence_cache`]) and fresh evidence for
    /// `(vid, property)` exists. The measurement hops (messages 3 and 4,
    /// the window, the quote) are skipped entirely — the sub-attestation
    /// reuse idea — and the caller pays only the request/report
    /// processing at the controller and AS (messages 1, 2, 5 and 6).
    /// Returns `None` when the cache is disabled, the VM is gone, or the
    /// evidence is stale; the caller then runs the full protocol.
    pub(crate) fn evidence_probe(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
    ) -> Option<AttestationReport> {
        self.fleet.live(vid).ok()?;
        // Probe the replica this VM is currently served by; replica
        // caches are warmed independently, so a rerouted VM pays the
        // full protocol until its new replica has evidence.
        let replica = self.topology.serving_replica(vid);
        let cached = self
            .appraisers
            .evidence_lookup(replica, vid, property, self.events.now())?;
        let elapsed_us = self.latency.post_hop_us(1)
            + self.latency.post_hop_us(2)
            + self.latency.post_hop_us(5)
            + self.latency.post_hop_us(6);
        self.events.advance(elapsed_us);
        Some(AttestationReport {
            vid,
            property,
            status: cached.status,
            elapsed_us,
            issued_at_us: self.events.now(),
        })
    }

    /// Evidence-cache hits and misses, summed over every Attestation
    /// Server replica (each keeps its own cache).
    pub fn evidence_cache_stats(&self) -> (u64, u64) {
        self.appraisers
            .cache_stats(None, AttestationServer::evidence_cache_stats)
    }

    /// Evidence-cache hits and misses for one AS replica; `(0, 0)` for
    /// an index outside the pool. Lets tests and the chaos sweep prove
    /// cache *independence*: a crashed replica loses its evidence, the
    /// others keep theirs.
    pub fn replica_evidence_cache_stats(&self, replica: u32) -> (u64, u64) {
        self.appraisers
            .cache_stats(Some(replica), AttestationServer::evidence_cache_stats)
    }

    /// Certified-AVK cache hits and misses, summed over every
    /// replica's privacy CA.
    pub fn avk_cert_cache_stats(&self) -> (u64, u64) {
        self.appraisers
            .cache_stats(None, AttestationServer::avk_cert_cache_stats)
    }

    /// Table 1: `startup_attest_current(Vid, P, N)` — attestation before
    /// / at launch time. The full customer-facing attestation (all six
    /// messages of Figure 3), shared by the Table 1 APIs: served from
    /// fresh evidence when there is some, otherwise a session pumped to
    /// completion.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] or a protocol failure.
    pub fn startup_attest_current(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
    ) -> Result<AttestationReport, CloudError> {
        if let Some(report) = self.evidence_probe(vid, property) {
            return Ok(report);
        }
        self.attest_with_program(vid, property, self.programs.fig3_customer)
    }

    /// Table 1: `runtime_attest_current(Vid, P, N)` — an immediate
    /// runtime attestation.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] or a protocol failure.
    pub fn runtime_attest_current(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
    ) -> Result<AttestationReport, CloudError> {
        let report = self.startup_attest_current(vid, property)?;
        if !report.healthy() && self.fleet.auto_response {
            let action = self.fleet.controller.choose_response(property);
            self.auto_respond(vid, action, None);
        }
        Ok(report)
    }

    /// Layered attestation ([`Protocol::layered`]): appraise the VM's
    /// hosting platform first (a delegated boot-chain appraisal of the
    /// VMM/hypervisor), and only if that verdict is healthy measure the
    /// VM itself for `property` — the VM's VMI quote is gated on the
    /// platform's. An unhealthy platform skips the VM measurement
    /// entirely and the report certifies the negative platform verdict.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] or a protocol failure.
    pub fn layered_attest(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
    ) -> Result<AttestationReport, CloudError> {
        let program = self.programs.layered;
        self.attest_with_program(vid, property, program)
    }

    /// Multi-property fan-out ([`Protocol::fanout`]): one session
    /// measures every property in `properties` through parallel
    /// delegated measurement branches (each with its own window and
    /// quote) and certifies one combined report — healthy iff every
    /// branch is healthy. The report's `property` field carries the
    /// first requested property.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`], a protocol failure, or a protocol
    /// compile error for an empty property list.
    pub fn multi_attest(
        &mut self,
        vid: Vid,
        properties: &[SecurityProperty],
    ) -> Result<AttestationReport, CloudError> {
        let Some(&first) = properties.first() else {
            return Err(CloudError::protocol("fan-out needs at least one property"));
        };
        let program = self
            .programs
            .fanout_for(properties)
            .map_err(compile_failure)?;
        self.attest_with_program(vid, first, program)
    }

    /// Compiles and registers an arbitrary attestation-protocol term;
    /// the returned handle runs through
    /// [`Cloud::attest_with_program`].
    ///
    /// # Errors
    ///
    /// A [`CloudError::ProtocolFailure`] carrying the compile error if
    /// the term is ill-formed.
    pub fn register_protocol(&mut self, protocol: &Protocol) -> Result<ProgramId, CloudError> {
        self.programs.register(protocol).map_err(compile_failure)
    }

    /// Runs a registered protocol program as one synchronous session
    /// against `vid` (the program decides which hops, windows, forks
    /// and delegations happen).
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] or a protocol failure.
    pub fn attest_with_program(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
        program: ProgramId,
    ) -> Result<AttestationReport, CloudError> {
        let sid = self.begin_session(vid, None, property, program, SessionOrigin::Api)?;
        let outcome = self.pump_session(sid)?;
        Ok(AttestationReport {
            vid,
            property,
            status: outcome.status,
            elapsed_us: outcome.elapsed_us,
            issued_at_us: self.events.now(),
        })
    }

    /// Completed service requests of a [`WorkloadSpec::Service`] VM
    /// (throughput measurements, Figure 10).
    pub fn service_requests(&self, vid: Vid) -> Option<u64> {
        self.fleet
            .controller
            .vm(vid)?
            .handles
            .service
            .as_ref()
            .map(|s| s.get().requests)
    }

    /// Completion time of a [`WorkloadSpec::Program`] VM, if finished.
    pub fn program_elapsed_us(&self, vid: Vid) -> Option<u64> {
        self.fleet
            .controller
            .vm(vid)?
            .handles
            .program
            .as_ref()
            .and_then(|s| s.borrow().elapsed_us())
    }

    /// Experiment hook: infects a VM with rootkit-hidden malware (Case
    /// Study II).
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] if the VM is not hosted anywhere.
    pub fn infect_vm(&mut self, vid: Vid, service_name: &str) -> Result<u32, CloudError> {
        let server = self.server_of(vid).ok_or(CloudError::UnknownVm(vid))?;
        let node = self
            .server_mut(server)
            .ok_or(CloudError::UnknownServer(server))?;
        let local = node.local_vm(vid).ok_or(CloudError::UnknownVm(vid))?;
        let pid = monatt_attacks::rootkit::infect_with_rootkit(node.sim_mut(), local, service_name)
            .ok_or(CloudError::UnknownVm(vid))?;
        Ok(pid)
    }
}
