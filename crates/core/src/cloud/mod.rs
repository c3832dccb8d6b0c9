//! The `Cloud` facade: wires customer, Cloud Controller, Attestation
//! Server and Cloud Servers together over the simulated network, and
//! exposes the paper's monitoring/attestation APIs (Table 1), the VM
//! launch pipeline (Section 7.1.1), periodic attestation (Section 3.2.1)
//! and remediation responses (Section 5).
//!
//! The facade is split by concern:
//!
//! * `mod.rs` — the [`Cloud`] state, its accessors, the virtual clock
//!   and the event dispatcher, plus the synchronous Table-1 attestation
//!   wrappers that pump the event loop to completion.
//! * [`build`] — [`CloudBuilder`], [`VmRequest`] and the launch
//!   pipeline.
//! * [`subscriptions`] — periodic attestation ([`Frequency`],
//!   [`SubscriptionHealth`]) and [`Cloud::run`]'s event loop.
//! * [`response`] — the Response Module's remediation actions.
//!
//! The protocol state machines themselves live in [`crate::session`],
//! driven by the [`crate::engine`] event queue; this module only owns
//! the shared state they operate on. Cloud nodes are named by
//! [`NodeId`] throughout — controller instance `i`, Attestation-Server
//! replica `r` (an element of `Cloud::attservers`), or a server — and
//! the secure links between them, with their identities and re-key
//! state, are owned by [`crate::links`].

mod build;
mod response;
mod subscriptions;
#[cfg(test)]
mod tests;

pub use build::{CloudBuilder, LaunchTiming, VmRequest, WorkloadHandles, WorkloadSpec};
pub use response::ResponseTiming;
pub use subscriptions::{Frequency, SubscriptionHealth};

use crate::attestation::AttestationServer;
use crate::controller::{CloudController, ResponseAction, VmLifecycle};
use crate::controlplane::{ControlPlaneStats, ControlPlaneTopology};
use crate::engine::ShardedEngine;
use crate::error::CloudError;
use crate::latency::{LatencyParams, RetryPolicy};
use crate::links::Links;
use crate::outage::{AdmissionControl, OutageModel, OutageStats};
use crate::protocol::{CompileError, ProgramId, ProgramRegistry, Protocol};
use crate::server::CloudServerNode;
use crate::session::{
    CloudEvent, Msg4Meta, PendingMsg4, SessionArena, SessionEvent, SessionId, SessionOrigin,
};
use crate::types::{HealthStatus, NodeId, ProtocolStats, SecurityProperty, ServerId, Vid};
use build::VmMeta;
use monatt_crypto::drbg::Drbg;
use monatt_net::sim::SimNetwork;
use std::collections::{BTreeMap, BTreeSet};
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
    CloudError::ProtocolFailure {
        reason: format!("protocol did not compile: {e}"),
    }
}

/// The assembled CloudMonatt cloud.
pub struct Cloud {
    pub(crate) rng: Drbg,
    pub(crate) controller: CloudController,
    /// The Attestation-Server replicas, indexed by replica. Each is a
    /// fully independent appraiser: own signing identity, own privacy
    /// CA, own evidence/AVK caches. One element in the dormant topology.
    pub(crate) attservers: Vec<AttestationServer>,
    /// The replicated control-plane topology: shard ownership, replica
    /// health, and the per-session routing decisions.
    pub(crate) topology: ControlPlaneTopology,
    pub(crate) servers: BTreeMap<ServerId, CloudServerNode>,
    pub(crate) network: SimNetwork,
    /// Every secure channel, the identities behind them and the lazy
    /// re-key state (see [`crate::links`]).
    pub(crate) links: Links,
    pub(crate) latency: LatencyParams,
    pub(crate) retry: RetryPolicy,
    pub(crate) escalation_threshold: u32,
    pub(crate) stats: ProtocolStats,
    pub(crate) wall_clock_us: u64,
    pub(crate) last_launch: Option<LaunchTiming>,
    pub(crate) subscriptions: BTreeMap<u64, Subscription>,
    pub(crate) next_subscription: u64,
    pub(crate) auto_response: bool,
    pub(crate) vm_meta: BTreeMap<Vid, VmMeta>,
    pub(crate) seed: u64,
    /// The discrete-event queue every time-driven step goes through: a
    /// K-sharded timer wheel whose merged pop order is independent of K
    /// (see `crate::engine`).
    pub(crate) engine: ShardedEngine<CloudEvent>,
    /// In-flight attestation sessions: a slab arena whose slots retain
    /// their buffers across sessions (see [`crate::arena`]).
    pub(crate) sessions: SessionArena,
    /// Per-server instant until which the measurement window is owned by
    /// some session (windows are server-global; see `crate::session`).
    pub(crate) window_free_at: BTreeMap<ServerId, u64>,
    /// While [`Cloud::run`] drains the queue, the horizon past which no
    /// new subscription firings are scheduled.
    pub(crate) run_horizon: Option<u64>,
    /// Automatic remediation responses that themselves failed (the error
    /// used to be silently discarded).
    pub(crate) auto_response_failures: u64,
    /// The installed node-outage schedule, if any.
    pub(crate) outages: Option<OutageModel>,
    /// Node-failure activity counters.
    pub(crate) outage_stats: OutageStats,
    /// Nodes currently crashed.
    pub(crate) down: BTreeSet<NodeId>,
    /// The Attestation Server's admission gate, if configured.
    pub(crate) admission: Option<AdmissionControl>,
    /// End-to-end deadline budget applied to every new session, if any.
    pub(crate) session_deadline_us: Option<u64>,
    /// Reusable buffer for the record a transmit delivers (the wire
    /// bytes between seal and open). One message is in flight per
    /// transmit resolution, so a single cloud-wide buffer suffices.
    pub(crate) record_scratch: Vec<u8>,
    /// Reusable buffer ping-ponged with a session's `inbox` while the
    /// delivered plaintext is dispatched (see `Cloud::step_arrival`).
    pub(crate) inbox_scratch: Vec<u8>,
    /// Reusable encode buffers for rebuilding quote fields (measurement
    /// spec/measurement, property/status) during validation and
    /// certification.
    pub(crate) quote_scratch: monatt_net::wire::EncodeScratch,
    /// Msg-4 coalescing window at the Attestation Server, microseconds.
    /// 0 (the default) disables coalescing: message 4 validates inline
    /// on arrival, the pre-batching path.
    pub(crate) as_batch_window_us: u64,
    /// Maximum responses per coalesced batch; reaching it flushes
    /// immediately (inline, before the window timer).
    pub(crate) as_batch_max: usize,
    /// Measurement responses parked at the Attestation Server awaiting
    /// the next batched validation pass.
    pub(crate) pending_msg4: Vec<PendingMsg4>,
    /// Reusable per-flush scratch for re-read session expectations;
    /// cleared each batch, capacity retained so steady-state flushes do
    /// not reallocate.
    pub(crate) batch_meta: Vec<Option<Msg4Meta>>,
    /// Evidence-cache validity window: `Some(ttl)` serves repeat
    /// attestation requests for the same `(Vid, property)` from the AS
    /// cache for `ttl` microseconds. `None` (the default) disables the
    /// cache entirely.
    pub(crate) evidence_ttl_us: Option<u64>,
    /// Compiled attestation-protocol programs: the standard Figure-3
    /// customer/internal exchanges, layered attestation, cached fan-out
    /// variants, and anything registered through
    /// [`Cloud::register_protocol`].
    pub(crate) programs: ProgramRegistry,
}

impl std::fmt::Debug for Cloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cloud")
            .field("servers", &self.servers.len())
            .field("wall_clock_us", &self.wall_clock_us)
            .field("sessions_in_flight", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl Cloud {
    /// Current cloud wall-clock time in microseconds.
    pub fn wall_clock_us(&self) -> u64 {
        self.wall_clock_us
    }

    /// Number of cloud servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The server currently hosting `vid`.
    pub fn server_of(&self, vid: Vid) -> Option<ServerId> {
        self.controller.vm(vid).map(|r| r.server)
    }

    /// Lifecycle state of `vid`.
    pub fn vm_state(&self, vid: Vid) -> Option<VmLifecycle> {
        self.controller.vm(vid).map(|r| r.state)
    }

    /// Read access to a server node (monitor tools, experiment checks).
    /// State is as of the node's last catch-up; call [`Cloud::advance`]
    /// or [`Cloud::sync_servers`] first for current values.
    pub fn server(&self, id: ServerId) -> Option<&CloudServerNode> {
        self.servers.get(&id)
    }

    /// Mutable server access — used by attack injection in experiments.
    /// The node is caught up to the wall clock first.
    pub fn server_mut(&mut self, id: ServerId) -> Option<&mut CloudServerNode> {
        self.touch_server(id)
    }

    /// The network, for installing Dolev-Yao adversaries and fault
    /// models in experiments.
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        &mut self.network
    }

    /// Turns the simulated network's transmission log on or off (on by
    /// default). Large-fleet sweeps turn it off: per-message log
    /// entries are the only allocations a warm attestation round makes.
    /// Message fates, latencies and RNG draws are unaffected.
    pub fn set_network_logging(&mut self, on: bool) {
        self.network.set_logging(on);
    }

    /// Per-hop protocol delivery counters (retries, drops seen,
    /// duplicates rejected, timeouts) and session gauges accumulated
    /// since the last reset. `max_queue_depth` is filled here, from
    /// the engine's own high-water mark — the one place it is recorded.
    /// Read straight after [`Cloud::reset_protocol_stats`] it therefore
    /// equals the events pending at the reset (the sum of
    /// [`Cloud::shard_queue_depths`]), not zero.
    pub fn protocol_stats(&self) -> ProtocolStats {
        ProtocolStats {
            max_queue_depth: self.engine.max_depth() as u64,
            ..self.stats
        }
    }

    /// Zeroes the protocol counters (e.g. between experiment phases).
    /// The queue-depth high-water marks restart from the events pending
    /// right now, so the gauges describe the phase that follows, not
    /// the lifetime peak.
    pub fn reset_protocol_stats(&mut self) {
        self.stats = ProtocolStats::default();
        self.engine.reset_peaks();
    }

    /// The per-hop retransmission policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Attestation sessions currently in flight.
    pub fn sessions_in_flight(&self) -> usize {
        self.sessions.len()
    }

    /// Automatic remediation responses that themselves failed. A failed
    /// auto-response is recorded here (and on the owning subscription's
    /// [`SubscriptionHealth::failed_responses`]) instead of being
    /// silently discarded.
    pub fn auto_response_failures(&self) -> u64 {
        self.auto_response_failures
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
        self.last_launch
    }

    /// Advances the wall clock by `duration_us` and catches every server
    /// simulator up to it — the synchronous scenario-boundary form, after
    /// which observed server state (workload progress, CPU time) is
    /// current.
    pub fn advance(&mut self, duration_us: u64) {
        self.wall_clock_us += duration_us;
        self.sync_servers();
    }

    /// Catches every server simulator up to the wall clock. Internal
    /// event dispatch moves only the wall clock (lazy pull — O(1) in
    /// fleet size); each node pays its elapsed time when next touched,
    /// or here in bulk.
    pub fn sync_servers(&mut self) {
        let wall = self.wall_clock_us;
        for node in self.servers.values_mut() {
            node.catch_up(wall);
        }
    }

    /// Advances the clock to the absolute instant `due_us` (no-op if the
    /// clock is already there or past — events scheduled "in the past"
    /// fire at the current time). Only the wall clock moves; server
    /// simulators catch up lazily at their next touch point, so
    /// dispatching an event costs O(1) in fleet size.
    pub(crate) fn advance_to(&mut self, due_us: u64) {
        if due_us > self.wall_clock_us {
            self.wall_clock_us = due_us;
        }
    }

    /// The server node, caught up to the wall clock — the one mutable
    /// access path for protocol and lifecycle code, so a lazily lagging
    /// simulator is never observed or mutated at a stale instant.
    pub(crate) fn touch_server(&mut self, id: ServerId) -> Option<&mut CloudServerNode> {
        let wall = self.wall_clock_us;
        let node = self.servers.get_mut(&id)?;
        node.catch_up(wall);
        Some(node)
    }

    /// Routes one popped event to its handler.
    pub(crate) fn dispatch_event(&mut self, event: CloudEvent) {
        match event {
            CloudEvent::Session { sid, event } => self.step_session(sid, event),
            CloudEvent::SubscriptionDue { id } => self.start_subscription_sample(id),
            CloudEvent::Outage { node, down, chain } => self.apply_outage(node, down, chain),
            CloudEvent::Msg4Flush => self.flush_msg4_batch(),
        }
    }

    /// Schedules an event. The shard key routes the entry to one of the
    /// K wheels — session and outage traffic by server, subscription
    /// firings by subscription id — but never affects the pop order
    /// (see `crate::engine`).
    pub(crate) fn schedule_cloud_event(&mut self, due_us: u64, event: CloudEvent) {
        let shard_key = match &event {
            CloudEvent::Session { sid, .. } => self
                .sessions
                .get(*sid)
                .map(|s| s.server.0 as u64)
                .unwrap_or(0),
            CloudEvent::SubscriptionDue { id } => *id,
            CloudEvent::Outage { node, .. } => match node {
                NodeId::Server(s) => s.0 as u64,
                NodeId::Controller(_) | NodeId::AttestationServer(_) => 0,
            },
            // The coalescing buffer is Attestation-Server state.
            CloudEvent::Msg4Flush => 0,
        };
        self.engine.schedule(due_us, shard_key, event);
    }

    /// Per-shard high-water marks of the event-queue depth. With K=1
    /// this is a one-element slice equal to
    /// [`ProtocolStats::max_queue_depth`]; at K>1 the merged total stays
    /// in the stats and the breakdown lives here.
    pub fn shard_queue_depths(&self) -> &[usize] {
        self.engine.shard_depths()
    }

    /// Schedules a session-step event.
    pub(crate) fn schedule_session_event(
        &mut self,
        due_us: u64,
        sid: SessionId,
        event: SessionEvent,
    ) {
        self.schedule_cloud_event(due_us, CloudEvent::Session { sid, event });
    }

    pub(crate) fn fresh_nonce(&mut self) -> [u8; 32] {
        self.rng.next_bytes32()
    }

    /// Executes an automatic remediation response, recording (instead of
    /// discarding) a failure. Returns whether the response succeeded.
    pub(crate) fn auto_respond(&mut self, vid: Vid, action: ResponseAction) -> bool {
        match self.respond(vid, action) {
            Ok(_) => true,
            Err(_) => {
                self.auto_response_failures += 1;
                false
            }
        }
    }

    // ---- Node-level failure and overload -------------------------------

    /// Installs (or replaces) a node-outage schedule. Transitions fire
    /// as engine events during [`Cloud::run`].
    pub fn set_outage_model(&mut self, model: OutageModel) {
        self.outages = Some(model);
    }

    /// Removes the outage schedule (nodes currently down stay down
    /// until recovered via [`Cloud::recover_node`]).
    pub fn clear_outage_model(&mut self) {
        self.outages = None;
    }

    /// Sets (or clears) the end-to-end deadline budget applied to every
    /// session started from now on; in-flight sessions keep the budget
    /// they were spawned with. `None` (the default) leaves sessions
    /// unbounded.
    pub fn set_session_deadline(&mut self, budget_us: Option<u64>) {
        self.session_deadline_us = budget_us;
    }

    /// Node-failure activity counters.
    pub fn outage_stats(&self) -> OutageStats {
        self.outage_stats
    }

    /// Whether `node` is currently crashed.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// The nodes currently crashed.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        self.down.iter().copied().collect()
    }

    /// Whether the Attestation Server's admission gate is currently
    /// refusing new sessions.
    pub fn is_shedding(&self) -> bool {
        self.admission.is_some_and(|g| g.is_shedding())
    }

    /// Experiment hook: crashes `node` immediately (the event-driven
    /// path is a scripted or stochastic [`OutageModel`]). Idempotent.
    /// Deliveries to and from the node black-hole, in-flight sessions
    /// touching it fail fast with [`CloudError::NodeDown`], and a cloud
    /// server's resident VMs are evacuated to live servers.
    pub fn crash_node(&mut self, node: NodeId) {
        self.apply_crash(node);
    }

    /// Experiment hook: recovers `node` immediately. Idempotent. Every
    /// secure channel the node terminates is marked stale and
    /// re-handshaked on first use — session keys from before the crash
    /// never resume, without a synchronized handshake burst at
    /// recovery.
    pub fn recover_node(&mut self, node: NodeId) {
        self.apply_recovery(node);
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

    /// The Attestation Server's admission decision for one new session.
    pub(crate) fn admit_session(&mut self) -> Result<(), CloudError> {
        let Some(gate) = self.admission.as_mut() else {
            return Ok(());
        };
        let in_flight = self.sessions.len();
        if !gate.admit(in_flight) {
            self.stats.sessions_shed += 1;
            return Err(CloudError::Overloaded { in_flight });
        }
        Ok(())
    }

    /// One outage-schedule transition fired; `chain` asks the renewal
    /// process for the follow-up transition.
    pub(crate) fn apply_outage(&mut self, node: NodeId, down: bool, chain: bool) {
        if down {
            self.apply_crash(node);
        } else {
            self.apply_recovery(node);
        }
        if !chain {
            return;
        }
        let chained = match self.outages.as_mut() {
            Some(model) => {
                model.chain(node, down, self.wall_clock_us);
                match self.run_horizon {
                    // Only chain-schedule within the current run's
                    // horizon; later transitions stay pending in the
                    // model and seed the next run.
                    Some(end) => model.drain_due(end),
                    None => Vec::new(),
                }
            }
            None => Vec::new(),
        };
        for t in chained {
            let at = t.at_us.max(self.wall_clock_us);
            self.schedule_cloud_event(
                at,
                CloudEvent::Outage {
                    node: t.node,
                    down: t.down,
                    chain: t.stochastic,
                },
            );
        }
    }

    pub(crate) fn apply_crash(&mut self, node: NodeId) {
        if !self.down.insert(node) {
            return;
        }
        self.outage_stats.crashes += 1;
        self.network.set_endpoint_down(&node.endpoint());
        // A crashed controller instance hands its shards to the next
        // live instance on the ring; a crashed AS replica drops out of
        // selection. New sessions route around the hole — the in-flight
        // ones pinned to it fail fast below and re-admit.
        self.topology.on_crash(node);
        // Fail in-flight sessions whose current hop depends on the
        // node. Sessions already holding a verdict or a parked outcome
        // keep it — their network work is done.
        let victims: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| !s.is_terminal() && s.touches(node))
            .map(|(sid, _)| sid)
            .collect();
        for sid in victims {
            self.finish_session_node_down(sid, node);
        }
        // Cached trust does not survive the platform that produced it.
        // Replica state is independent: a crashed replica loses *its*
        // evidence/AVK caches, the other replicas keep theirs.
        match node {
            NodeId::Server(id) => {
                for replica in &mut self.attservers {
                    replica.invalidate_evidence_for_server(id);
                }
                // The server's volatile attestation session dies with
                // it, and so does its measurement window.
                if let Some(n) = self.servers.get_mut(&id) {
                    n.reset_avk_session();
                }
                self.window_free_at.remove(&id);
                self.evacuate_server(id);
            }
            NodeId::AttestationServer(r) => {
                if let Some(replica) = self.attservers.get_mut(r as usize) {
                    replica.invalidate_all_evidence();
                }
            }
            NodeId::Controller(_) => {}
        }
    }

    pub(crate) fn apply_recovery(&mut self, node: NodeId) {
        if !self.down.remove(&node) {
            return;
        }
        self.outage_stats.recoveries += 1;
        self.network.set_endpoint_up(&node.endpoint());
        self.topology.on_recover(node);
        // Channel re-keying is deferred to first use (a mass recovery
        // must not burst handshakes), but the *trust boundary* advances
        // now: the pCA epoch of every replica whose links went stale
        // bumps (staling issued AVK certificates and dropping the
        // certified-AVK cache), and servers reusing an attestation
        // session start a fresh one.
        self.links.mark_stale(node, &mut self.outage_stats);
        match node {
            NodeId::Server(id) => {
                for replica in &mut self.attservers {
                    replica.on_rekey();
                }
                if let Some(n) = self.servers.get_mut(&id) {
                    n.reset_avk_session();
                }
            }
            NodeId::AttestationServer(r) => {
                if let Some(replica) = self.attservers.get_mut(r as usize) {
                    replica.on_rekey();
                }
                for n in self.servers.values_mut() {
                    n.reset_avk_session();
                }
            }
            NodeId::Controller(_) => {
                for replica in &mut self.attservers {
                    replica.on_rekey();
                }
            }
        }
    }

    /// The full customer-facing attestation (all six messages of Figure
    /// 3), shared by the Table 1 APIs: starts a session and pumps the
    /// event loop until it completes.
    fn customer_attest(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
    ) -> Result<AttestationReport, CloudError> {
        if let Some(report) = self.evidence_probe(vid, property) {
            return Ok(report);
        }
        let sid = self.begin_customer_session(vid, property, SessionOrigin::Api)?;
        let outcome = self.pump_session(sid)?;
        Ok(AttestationReport {
            vid,
            property,
            status: outcome.status,
            elapsed_us: outcome.elapsed_us,
            issued_at_us: self.wall_clock_us,
        })
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
        self.evidence_ttl_us?;
        let record = self.controller.vm(vid)?;
        if record.state == VmLifecycle::Terminated {
            return None;
        }
        let now = self.wall_clock_us;
        // Probe the replica this VM is currently served by; replica
        // caches are warmed independently, so a rerouted VM pays the
        // full protocol until its new replica has evidence.
        let replica = self.topology.serving_replica(vid);
        let cached = self
            .attservers
            .get_mut(replica as usize)?
            .evidence_lookup(vid, property, now)?;
        let elapsed_us = self.latency.post_hop_us(1)
            + self.latency.post_hop_us(2)
            + self.latency.post_hop_us(5)
            + self.latency.post_hop_us(6);
        self.advance(elapsed_us);
        Some(AttestationReport {
            vid,
            property,
            status: cached.status,
            elapsed_us,
            issued_at_us: self.wall_clock_us,
        })
    }

    /// Sums one `(hits, misses)` counter pair over every AS replica.
    fn sum_over_replicas(&self, stats: fn(&AttestationServer) -> (u64, u64)) -> (u64, u64) {
        self.attservers
            .iter()
            .map(stats)
            .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm))
    }

    /// Evidence-cache hits and misses, summed over every Attestation
    /// Server replica (each keeps its own cache).
    pub fn evidence_cache_stats(&self) -> (u64, u64) {
        self.sum_over_replicas(AttestationServer::evidence_cache_stats)
    }

    /// Evidence-cache hits and misses for one AS replica; `(0, 0)` for
    /// an index outside the pool. Lets tests and the chaos sweep prove
    /// cache *independence*: a crashed replica loses its evidence, the
    /// others keep theirs.
    pub fn replica_evidence_cache_stats(&self, replica: u32) -> (u64, u64) {
        self.attservers
            .get(replica as usize)
            .map_or((0, 0), AttestationServer::evidence_cache_stats)
    }

    /// Certified-AVK cache hits and misses, summed over every
    /// replica's privacy CA.
    pub fn avk_cert_cache_stats(&self) -> (u64, u64) {
        self.sum_over_replicas(AttestationServer::avk_cert_cache_stats)
    }

    /// Table 1: `startup_attest_current(Vid, P, N)` — attestation before
    /// / at launch time.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] or a protocol failure.
    pub fn startup_attest_current(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
    ) -> Result<AttestationReport, CloudError> {
        self.customer_attest(vid, property)
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
        let report = self.customer_attest(vid, property)?;
        if !report.healthy() && self.auto_response {
            let action = self.controller.choose_response(property);
            self.auto_respond(vid, action);
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
            return Err(CloudError::ProtocolFailure {
                reason: "fan-out needs at least one property".into(),
            });
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
        let sid = self.begin_program_session(vid, property, program, SessionOrigin::Api)?;
        let outcome = self.pump_session(sid)?;
        Ok(AttestationReport {
            vid,
            property,
            status: outcome.status,
            elapsed_us: outcome.elapsed_us,
            issued_at_us: self.wall_clock_us,
        })
    }

    /// Completed service requests of a [`WorkloadSpec::Service`] VM
    /// (throughput measurements, Figure 10).
    pub fn service_requests(&self, vid: Vid) -> Option<u64> {
        self.vm_meta
            .get(&vid)?
            .handles
            .service
            .as_ref()
            .map(|s| s.borrow().requests)
    }

    /// Completion time of a [`WorkloadSpec::Program`] VM, if finished.
    pub fn program_elapsed_us(&self, vid: Vid) -> Option<u64> {
        self.vm_meta
            .get(&vid)?
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
            .touch_server(server)
            .ok_or(CloudError::UnknownServer(server))?;
        let local = node.local_vm(vid).ok_or(CloudError::UnknownVm(vid))?;
        let pid = monatt_attacks::rootkit::infect_with_rootkit(node.sim_mut(), local, service_name)
            .ok_or(CloudError::UnknownVm(vid))?;
        Ok(pid)
    }
}
