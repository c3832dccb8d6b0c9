//! Per-session transport machinery for compiled attestation programs.
//!
//! A session owns one protocol exchange and advances purely by
//! reacting to events popped from the [`crate::engine`] queue: record
//! arrivals, retransmission timeouts, measurement-window
//! openings/closings and the final completion tick. Nothing blocks, so
//! N sessions interleave on the same virtual clock and one stalled hop
//! (a lossy path to one server) no longer head-of-line-blocks every
//! other subscription.
//!
//! Which exchange a session runs is no longer hard-wired: the session
//! is a program counter and a typed register file (nonces, the
//! measurement request, the in-flight verdict) over a compiled
//! [`crate::protocol`] program. This module owns the transport layer —
//! sealing, retransmission ladders, late arrivals, deadlines and
//! terminal bookkeeping — while the interpreter that builds and
//! consumes protocol messages lives in [`crate::protocol::run`] and
//! the fork/join machinery for parallel and delegated sub-protocols in
//! [`crate::protocol::fork`].
//!
//! ## Latency accounting
//!
//! Every microsecond the old inline implementation added to `elapsed`
//! is mirrored here as a scheduled delay, charged when the delay is
//! scheduled: hop latencies at transmit resolution, per-message
//! processing ([`LatencyParams::post_hop_us`]) as a pre-delay on the
//! next transmission, the measurement window between `WindowOpen` and
//! `WindowClose`, and the final processing tail before `Complete`. The
//! completion event therefore fires at exactly `start + elapsed_us`,
//! which keeps the clean-path Figure 9–11 numbers bit-identical to the
//! pre-event-loop code (pinned by the golden-trace test).
//!
//! [`LatencyParams::post_hop_us`]: crate::latency::LatencyParams::post_hop_us
//!
//! ## Retransmission as timer events
//!
//! The network simulator resolves a record's fate at send time, so each
//! attempt schedules exactly one follow-up: the arrival of a delivered
//! record, or the sender's loss-detection timeout for a lost/rejected
//! one. On timeout the session retries (charging backoff, drawn in
//! event order from the cloud DRBG — the same draw sequence the
//! blocking loop made) until the [`RetryPolicy`] budget is exhausted,
//! then fails with the same error classification as before:
//! authentication failures are protocol failures, pure silence is
//! [`CloudError::Unreachable`].
//!
//! [`RetryPolicy`]: crate::latency::RetryPolicy

use crate::cloud::Cloud;
use crate::controlplane::RouteTag;
use crate::error::CloudError;
use crate::links::Hop;
use crate::measurements::MeasurementSpec;
use crate::messages::MeasureResponse;
use crate::protocol::compile::ProgramId;
use crate::protocol::MsgKind;
use crate::types::{HealthStatus, Image, NodeId, SecurityProperty, ServerId, Vid};
use monatt_net::channel::ChannelError;

pub(crate) use crate::arena::SessionId;

/// The in-flight session table: slot-indexed, generation-checked,
/// buffer-retaining (see [`crate::arena`]).
pub(crate) type SessionArena = crate::arena::Arena<AttestSession>;

/// Timer and delivery events that step one session.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SessionEvent {
    /// The current hop's record reaches its receiver.
    Arrival,
    /// The sender's loss-detection timeout fired: retransmit or fail.
    /// Tagged with the hop generation it was scheduled in, so a timer
    /// outlived by its hop (the hop completed via a late arrival) is
    /// discarded instead of retransmitting into a finished exchange.
    Retry {
        /// Hop generation at schedule time.
        generation: u32,
    },
    /// A record delayed past the sender's loss-detection timeout
    /// finally reaches the receiver — after the sender already
    /// retransmitted. Normally it bounces off the receive window as a
    /// duplicate; if every retransmit was lost too, it saves the hop.
    LateArrival {
        /// Hop generation at schedule time.
        generation: u32,
    },
    /// The measurement window may open on the server.
    WindowOpen,
    /// The measurement window elapsed: measure, quote, respond.
    WindowClose,
    /// All processing charges are paid: deliver the verdict.
    Complete,
}

/// Everything the cloud's event loop can schedule.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CloudEvent {
    /// Step an attestation session.
    Session {
        /// The session to step.
        sid: SessionId,
        /// What happened.
        event: SessionEvent,
    },
    /// A periodic subscription came due.
    SubscriptionDue {
        /// The subscription id.
        id: u64,
    },
    /// A node state transition from the outage schedule.
    Outage {
        /// The node changing state.
        node: NodeId,
        /// `true` = crash, `false` = recovery.
        down: bool,
        /// Whether the renewal process should chain the opposite
        /// transition when this one fires (stochastic transitions only).
        chain: bool,
    },
    /// The Attestation Server's msg-4 coalescing window elapsed: every
    /// parked measurement response is validated in one batched
    /// verification pass (see [`Cloud::flush_msg4_batch`]). A flush that
    /// finds the buffer already drained (a size-triggered flush beat the
    /// window timer) is a no-op.
    Msg4Flush,
}

/// A message-4 measurement response parked at the Attestation Server,
/// awaiting the coalescing flush, with the session's expectations as of
/// parking (they cannot change while the hop waits). The flush skips an
/// entry whose session died in between (node crash, deadline).
#[derive(Debug)]
pub(crate) struct PendingMsg4 {
    pub(crate) sid: SessionId,
    pub(crate) msg4: MeasureResponse,
    pub(crate) meta: Msg4Meta,
    /// Wall-clock instant the response reached the AS; the flush charges
    /// `flush_time - arrived_at_us` as coalescing wait.
    pub(crate) arrived_at_us: u64,
}

/// What the Attestation Server expects of a session's message 4, read
/// from the session when the response arrives. The replica index
/// partitions a flush — each AS replica validates only its own
/// sessions' responses.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Msg4Meta {
    pub(crate) vid: Vid,
    pub(crate) server: ServerId,
    pub(crate) property: SecurityProperty,
    pub(crate) image: Image,
    pub(crate) spec: MeasurementSpec,
    pub(crate) nonce3: [u8; 32],
    pub(crate) replica: u32,
}

/// Who consumes the session's outcome.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SessionOrigin {
    /// A synchronous Table-1 API call pumping the queue to completion.
    Api,
    /// A periodic subscription sample fired by [`Cloud::run`].
    Subscription(u64),
    /// A fork branch spawned by a parent session's `Fork` op; the
    /// outcome lands in the parent's branch slot (see
    /// [`crate::protocol::fork`]).
    Child {
        /// The forking session.
        parent: SessionId,
        /// The parent's branch-slot index this child reports into.
        slot: u16,
    },
}

/// A session's terminal value: the interpreted verdict plus the
/// end-to-end latency charged to it.
#[derive(Clone, Debug)]
pub(crate) struct SessionYield {
    /// The verdict carried by the final protocol message.
    pub(crate) status: HealthStatus,
    /// End-to-end latency (protocol + measurement window + queueing).
    pub(crate) elapsed_us: u64,
}

pub(crate) type SessionOutcome = Result<SessionYield, CloudError>;

/// One in-flight attestation exchange: the program counter plus the
/// typed register file of a compiled protocol program, and the
/// transport state of its current hop.
#[derive(Debug)]
pub(crate) struct AttestSession {
    pub(crate) vid: Vid,
    pub(crate) server: ServerId,
    /// Control-plane route pinned at admission: which shard/controller
    /// instance and AS replica this session's hops go to. A crashed
    /// route node fails the session fast; re-admission re-routes.
    pub(crate) route: RouteTag,
    pub(crate) property: SecurityProperty,
    pub(crate) expected_image: Image,
    pub(crate) origin: SessionOrigin,
    /// The compiled program this session interprets.
    pub(crate) program: ProgramId,
    /// Program counter into the compiled op schedule.
    pub(crate) pc: u16,
    /// The record kind currently on the wire — cached from the current
    /// `Hop` op so the transport layer resolves its link (see
    /// [`AttestSession::hop`]) without re-reading the program.
    pub(crate) msg: MsgKind,
    /// Transmit attempts of the current hop (resets per hop).
    pub(crate) attempt: u32,
    /// Accumulated end-to-end latency charge.
    pub(crate) elapsed_us: u64,
    /// The plaintext being (re)transmitted on the current hop.
    pub(crate) wire: Vec<u8>,
    /// The sealed record of the current hop, cached on the first
    /// attempt so retransmits put the byte-identical record (same
    /// channel sequence number) back on the wire. A late or duplicated
    /// copy of an already-delivered record then bounces off the
    /// receiver's anti-replay window — the hop can never be processed
    /// twice. Empty means "not sealed yet" (a sealed record is never
    /// empty: it carries at least a header and a tag); the buffer is
    /// reused across hops and sessions, so the warm path never
    /// reallocates it.
    pub(crate) sealed: Vec<u8>,
    /// Current hop generation; bumped when a hop completes so stale
    /// `Retry`/`LateArrival` timers from earlier in the hop die.
    pub(crate) generation: u32,
    /// Records delayed past the loss-detection timeout, parked until
    /// their `LateArrival` event fires: `(msg, generation, record)`.
    pub(crate) late: Vec<(MsgKind, u32, Vec<u8>)>,
    /// The retry budget ran out while parked late copies were still in
    /// flight: the verdict is deferred to the last `LateArrival`.
    pub(crate) retry_deferred: bool,
    /// End-to-end deadline: `(budget_us, expires_at_us)`. `None` (the
    /// default) leaves the session unbounded — the clean path never
    /// checks it.
    pub(crate) deadline: Option<(u64, u64)>,
    /// Opened plaintext parked between transmit resolution and the
    /// arrival event. `inbox_full` distinguishes "a record is parked"
    /// from the empty resting state; the buffer itself is reused across
    /// hops (ping-ponged out during dispatch, put back after).
    pub(crate) inbox: Vec<u8>,
    pub(crate) inbox_full: bool,
    pub(crate) last_auth_failure: Option<ChannelError>,
    // ---- The typed register file -----------------------------------
    /// Nonce N1 (customer ↔ controller).
    pub(crate) nonce1: [u8; 32],
    /// Nonce N2 (controller ↔ attestation server).
    pub(crate) nonce2: [u8; 32],
    /// Nonce N3 (attestation server ↔ cloud server).
    pub(crate) nonce3: [u8; 32],
    /// The (vid, property) the controller read from the request and
    /// forwards to the appraiser. Initialized from the session's own
    /// fields; overwritten by a received message 1.
    pub(crate) req_vid: Vid,
    pub(crate) req_property: SecurityProperty,
    /// The measurement spec the attestation server requested.
    pub(crate) spec: Option<MeasurementSpec>,
    /// The measurement request as decoded by the cloud server.
    pub(crate) measure: Option<crate::messages::MeasureRequest>,
    /// The in-flight verdict: written by a received message 4/5/6 or a
    /// fork join, consumed by the next certification hop or `Complete`.
    pub(crate) status: Option<HealthStatus>,
    /// Parked in the Attestation Server's msg-4 coalescing buffer: the
    /// receive side of the hop is deferred to the batch flush, and a
    /// second park of the same hop (a straggler duplicate) must be
    /// counted once, never processed.
    pub(crate) in_batch: bool,
    // ---- Fork/join state (see `crate::protocol::fork`) -------------
    /// Child sessions still running for the current `Fork` op; the
    /// parent is parked (and invisible to per-hop fail-fast) until
    /// this reaches zero.
    pub(crate) fork_outstanding: u16,
    /// Wall-clock instant the fork spawned; the join charges the
    /// difference as the parent's wait.
    pub(crate) fork_started_us: u64,
    /// Per-branch outcomes, indexed by branch slot.
    pub(crate) fork_slots: Vec<Option<Result<HealthStatus, CloudError>>>,
    /// The verdict decoded from the final message.
    pub(crate) verdict: Option<HealthStatus>,
    /// Terminal outcome, parked for an API pump to collect.
    pub(crate) pending: Option<SessionOutcome>,
}

impl AttestSession {
    /// The resting state of a slot, and the one place the field list is
    /// written: a never-used arena slot is seeded with it, and
    /// [`AttestSession::reset`] rebuilds a recycled slot from it. A
    /// constant cannot allocate, so neither use does.
    pub(crate) const VACANT: AttestSession = AttestSession {
        vid: Vid(0),
        server: ServerId(0),
        route: RouteTag {
            shard: 0,
            controller: 0,
            replica: 0,
        },
        property: SecurityProperty::StartupIntegrity,
        expected_image: Image::Cirros,
        origin: SessionOrigin::Api,
        program: ProgramId(0),
        pc: 0,
        // Placeholder until the first `Hop` op is entered; nothing
        // reads it before then.
        msg: MsgKind::Msg2,
        attempt: 0,
        elapsed_us: 0,
        wire: Vec::new(),
        sealed: Vec::new(),
        generation: 0,
        late: Vec::new(),
        retry_deferred: false,
        deadline: None,
        inbox: Vec::new(),
        inbox_full: false,
        last_auth_failure: None,
        nonce1: [0; 32],
        nonce2: [0; 32],
        nonce3: [0; 32],
        req_vid: Vid(0),
        req_property: SecurityProperty::StartupIntegrity,
        spec: None,
        measure: None,
        status: None,
        in_batch: false,
        fork_outstanding: 0,
        fork_started_us: 0,
        fork_slots: Vec::new(),
        verdict: None,
        pending: None,
    };

    /// Re-initializes a (possibly recycled) arena slot for a new
    /// exchange: [`AttestSession::VACANT`] plus the arguments, with the
    /// five `Vec`-backed fields carried across cleared so a recycled
    /// slot's buffer capacity survives. The caller then enters the
    /// program's first op, which encodes the opening hop into `wire`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reset(
        &mut self,
        vid: Vid,
        server: ServerId,
        route: RouteTag,
        property: SecurityProperty,
        expected_image: Image,
        program: ProgramId,
        origin: SessionOrigin,
    ) {
        fn cleared<T>(buf: &mut Vec<T>) -> Vec<T> {
            buf.clear();
            std::mem::take(buf)
        }
        *self = AttestSession {
            vid,
            server,
            route,
            property,
            expected_image,
            origin,
            program,
            req_vid: vid,
            req_property: property,
            wire: cleared(&mut self.wire),
            sealed: cleared(&mut self.sealed),
            late: cleared(&mut self.late),
            inbox: cleared(&mut self.inbox),
            fork_slots: cleared(&mut self.fork_slots),
            ..Self::VACANT
        };
    }
}

impl AttestSession {
    /// Whether the session already holds its terminal outcome (parked
    /// for an API pump, or the verdict is decoded and the `Complete`
    /// tick is pending). Such sessions survive a node crash: their
    /// network work is done.
    pub(crate) fn is_terminal(&self) -> bool {
        self.pending.is_some() || self.verdict.is_some()
    }

    /// The link (and direction) the session's current hop travels,
    /// selected by its pinned route and placement.
    pub(crate) fn hop(&self) -> Hop {
        Hop::of(self.msg, self.route, self.server)
    }

    /// Whether the end-to-end deadline still holds at instant `at_us`.
    /// Sessions without a deadline (the default) always pass.
    pub(crate) fn deadline_holds(&self, at_us: u64) -> Result<(), CloudError> {
        match self.deadline {
            Some((budget_us, expires_at)) if at_us > expires_at => {
                Err(CloudError::DeadlineExceeded {
                    budget_us,
                    elapsed_us: self.elapsed_us,
                })
            }
            _ => Ok(()),
        }
    }

    /// The message-4 expectations of this session, once it has issued
    /// its measurement request.
    pub(crate) fn msg4_meta(&self) -> Option<Msg4Meta> {
        Some(Msg4Meta {
            vid: self.vid,
            server: self.server,
            property: self.property,
            image: self.expected_image,
            spec: self.spec?,
            nonce3: self.nonce3,
            replica: self.route.replica,
        })
    }

    /// Whether the session's current protocol hop depends on `node`. A
    /// parent parked on a fork depends on nothing itself — its fate
    /// rides entirely on its children, which fail (and resume it) on
    /// their own — so it is invisible to per-hop fail-fast.
    pub(crate) fn touches(&self, node: NodeId) -> bool {
        self.fork_outstanding == 0 && self.hop().link.touches(node)
    }
}

pub(crate) fn lost_session() -> CloudError {
    CloudError::protocol("attestation session state lost")
}

#[cold]
pub(crate) fn malformed(what: &str, e: impl std::fmt::Display) -> CloudError {
    CloudError::protocol(format!("malformed {what}: {e}"))
}

#[cold]
fn duplicate_not_rejected(peer: &str, outcome: Result<(), ChannelError>) -> CloudError {
    CloudError::protocol(format!(
        "duplicate record from {peer} not rejected: {outcome:?}"
    ))
}

impl Cloud {
    /// Starts a session running the compiled `program` against `vid`:
    /// admission, placement, route, arena slot, deadline — then the
    /// program's first op, which builds and transmits the opening hop
    /// (retiring the slot again if that fails). `placement` is `None`
    /// for a session addressed to the VM's current host (its live row);
    /// a fork branch passes its parent's placement instead, so a branch
    /// measures where its parent does.
    pub(crate) fn begin_session(
        &mut self,
        vid: Vid,
        placement: Option<(ServerId, Image)>,
        property: SecurityProperty,
        program: ProgramId,
        origin: SessionOrigin,
    ) -> Result<SessionId, CloudError> {
        // The Attestation Server's admission decision comes first: a
        // shed session does no work and makes no RNG draw.
        let in_flight = self.events.sessions.len();
        if !self.appraisers.admit(in_flight) {
            self.stats.sessions_shed += 1;
            return Err(CloudError::Overloaded { in_flight });
        }
        let (server, image) = match placement {
            Some(placement) => placement,
            None => {
                let row = self.fleet.live(vid)?;
                (row.server, row.image)
            }
        };
        // Pin the control-plane route while `self` is still whole: the
        // session keeps it for life (a mid-session crash fails fast and
        // re-admits on a fresh route — state never migrates; a fork
        // branch admitted after a failover lands on the live owner).
        let route = self.topology.route_for(vid);
        let now = self.events.now();
        let deadline = (self.events.deadline_us).map(|budget| (budget, now.saturating_add(budget)));
        let (sid, session) = self
            .events
            .sessions
            .alloc_with(|| AttestSession::VACANT)
            .ok_or_else(lost_session)?;
        session.reset(vid, server, route, property, image, program, origin);
        session.deadline = deadline;
        self.stats.sessions_started += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(in_flight as u64 + 1);
        if let Err(e) = self.enter_current_op(sid, 0) {
            self.events.sessions.remove(sid);
            self.stats.sessions_failed += 1;
            self.classify_failure(&e);
            return Err(e);
        }
        Ok(sid)
    }

    /// Attributes a session failure to its failure-class counter
    /// (outage fail-fast, deadline expiry); other classes are already
    /// covered by the per-hop counters.
    pub(crate) fn classify_failure(&mut self, e: &CloudError) {
        match e {
            CloudError::NodeDown { .. } => self.outage.stats.node_down_failures += 1,
            CloudError::DeadlineExceeded { .. } => self.stats.deadlines_exceeded += 1,
            _ => {}
        }
    }

    /// Drives the event loop until `sid` reaches a terminal state — the
    /// synchronous facade behind the Table-1 APIs.
    pub(crate) fn pump_session(&mut self, sid: SessionId) -> SessionOutcome {
        self.pump(Some(sid));
        let parked = self.events.sessions.get_mut(sid).map(|s| s.pending.take());
        self.events.sessions.remove(sid);
        match parked {
            Some(Some(outcome)) => outcome,
            Some(None) => Err(CloudError::protocol("event queue stalled mid-session")),
            None => Err(CloudError::protocol("attestation session vanished")),
        }
    }

    /// Seals and transmits the session's current hop payload once. The
    /// simulator resolves the outcome at send time; exactly one
    /// follow-up event is scheduled — the arrival of a delivered record
    /// or the sender's timeout for a lost/rejected one. `pre_delay_us`
    /// is processing time paid before the record leaves (it shifts every
    /// scheduled instant and is charged to the session's latency).
    pub(crate) fn transmit_attempt(
        &mut self,
        sid: SessionId,
        pre_delay_us: u64,
    ) -> Result<(), CloudError> {
        let Cloud {
            events,
            network,
            rng,
            stats,
            retry,
            links,
            outage,
            ..
        } = self;
        let now = events.now();
        let session = events.sessions.get_mut(sid).ok_or_else(lost_session)?;
        let hop = session.hop();
        // Fail fast when a node this hop depends on is crashed (the
        // customer end is assumed reliable) — checked before any RNG
        // draw or transmission, so the session does not burn the
        // retransmission ladder against a black hole.
        let mut ends = hop.link.ends().into_iter().flatten();
        if let Some(node) = ends.find(|n| outage.down.contains(n)) {
            return Err(CloudError::NodeDown { node });
        }
        // Lazy re-keying: a link marked stale by a node recovery is
        // re-handshaken here, at its first post-recovery use, instead
        // of in a synchronized burst at the recovery instant.
        links.refresh_if_stale(hop.link, rng, &mut outage.stats);
        let policy = *retry;
        let mut offset = pre_delay_us;
        session.attempt += 1;
        if session.attempt > 1 {
            stats.retries += 1;
            offset += policy.backoff_us(session.attempt - 1, rng);
        }
        session.elapsed_us += offset;
        let generation = session.generation;
        let (send, recv) = links.channels(hop)?;
        // Seal once per hop: retransmits resend the byte-identical
        // record, so the receiver's anti-replay window deduplicates a
        // late first copy arriving after a retransmit was processed.
        // The sealed record lives in the session's reusable buffer
        // (empty = not sealed yet for this hop).
        if session.attempt == 1 {
            send.seal_into(b"", &session.wire, &mut session.sealed);
        }
        stats.messages_sent += 1;
        let record = &mut events.record_scratch;
        let delivery = network.transmit_into(
            recv.peer(),
            send.peer(),
            &session.sealed,
            now + offset,
            record,
        );
        // The follow-ups of this attempt, in schedule order.
        let timeout_at = now + offset + policy.timeout_us;
        let retry = SessionEvent::Retry { generation };
        let late = SessionEvent::LateArrival { generation };
        let follow_ups: [Option<(u64, SessionEvent)>; 3] = match delivery.delivered {
            false => {
                // Nothing arrived: the sender learns of the loss only by
                // timing out.
                stats.drops_seen += 1;
                stats.timeouts += 1;
                session.elapsed_us += policy.timeout_us;
                [Some((timeout_at, retry)), None, None]
            }
            true if delivery.latency_us > policy.timeout_us && policy.max_attempts > 1 => {
                // Delivered, but past the sender's loss-detection
                // timeout: the sender retransmits first. Park the late
                // record unopened until its arrival instant — by then a
                // retransmit has usually advanced the receive window and
                // it bounces as a duplicate; only if every retransmit
                // was lost too does it save the hop.
                stats.timeouts += 1;
                session.elapsed_us += policy.timeout_us;
                let copy = (delivery.deliver_at_us, late);
                let second = delivery.duplicated.then_some(copy);
                for _ in 0..1 + usize::from(delivery.duplicated) {
                    session.late.push((session.msg, generation, record.clone()));
                }
                [Some(copy), second, Some((timeout_at, retry))]
            }
            true => match recv.open_into(b"", record, &mut session.inbox) {
                Ok(()) => {
                    session.inbox_full = true;
                    session.elapsed_us += delivery.latency_us;
                    if delivery.duplicated {
                        // The network delivered a second identical copy;
                        // the receive window must reject it without
                        // desynchronizing the channel. The rejection
                        // happens before the output buffer is touched,
                        // so an empty throwaway Vec never allocates.
                        // #[allow(monatt::alloc_freedom)]
                        match recv.open_into(b"", record, &mut Vec::new()) {
                            Err(ChannelError::DuplicateRecord) => {
                                stats.duplicates_rejected += 1;
                            }
                            other => return Err(duplicate_not_rejected(recv.peer(), other)),
                        }
                    }
                    [
                        Some((delivery.deliver_at_us, SessionEvent::Arrival)),
                        None,
                        None,
                    ]
                }
                Err(e) => {
                    // Corrupted, tampered or replayed: the record is
                    // rejected, the receiver stays silent, the sender
                    // times out.
                    stats.auth_failures += 1;
                    stats.timeouts += 1;
                    session.elapsed_us += delivery.latency_us + policy.timeout_us;
                    session.last_auth_failure = Some(e);
                    [Some((timeout_at + delivery.latency_us, retry)), None, None]
                }
            },
        };
        // Session events shard by target server (routing only — never
        // affects pop order; see `crate::engine`).
        for (due_us, event) in follow_ups.into_iter().flatten() {
            events.schedule_session(due_us, sid, event);
        }
        Ok(())
    }

    /// Steps `sid` for `event`; any error terminates the session with
    /// the same classification the blocking implementation returned.
    pub(crate) fn step_session(&mut self, sid: SessionId, event: SessionEvent) {
        // Stale events — timers or late arrivals outliving a session
        // that already terminated (failed fast on a node crash, or its
        // outcome is parked for an API pump) — are discarded here, so a
        // terminal outcome is recorded exactly once.
        if self.events.settled(sid) {
            return;
        }
        let result = match event {
            SessionEvent::Arrival => self.step_arrival(sid),
            SessionEvent::Retry { generation } => self.step_retry(sid, generation),
            SessionEvent::LateArrival { generation } => self.step_late_arrival(sid, generation),
            SessionEvent::WindowOpen => self.step_window_open(sid),
            SessionEvent::WindowClose => self.step_window_close(sid),
            SessionEvent::Complete => self.step_complete(sid),
        };
        if let Err(e) = result {
            self.finish_session(sid, Err(e));
        }
    }

    /// Terminates the session if its end-to-end deadline has passed.
    pub(crate) fn check_deadline(&mut self, sid: SessionId) -> Result<(), CloudError> {
        self.events.session(sid)?.deadline_holds(self.events.now())
    }

    /// The current hop's record reached its receiver: close out the
    /// hop's transport state and hand the plaintext to the program
    /// interpreter's receive dispatch.
    pub(crate) fn step_arrival(&mut self, sid: SessionId) -> Result<(), CloudError> {
        self.check_deadline(sid)?;
        let events = &mut self.events;
        let session = events.sessions.get_mut(sid).ok_or_else(lost_session)?;
        if !std::mem::take(&mut session.inbox_full) {
            return Err(CloudError::protocol(
                "arrival event without a delivered record",
            ));
        }
        // Ping-pong the delivered plaintext into the cloud-level
        // scratch: the session's inbox must keep a capacity-bearing
        // buffer during dispatch, because the next hop's open lands
        // in it before this function returns.
        std::mem::swap(&mut session.inbox, &mut events.inbox_scratch);
        // The hop completed; the next one starts a fresh attempt
        // budget, a fresh sealed record, and a new generation (any
        // still-pending Retry timer of this hop is now stale).
        session.attempt = 0;
        session.last_auth_failure = None;
        session.sealed.clear();
        session.retry_deferred = false;
        session.generation = session.generation.wrapping_add(1);
        let msg = session.msg;
        // Moving a Vec out of `self` for the dispatch neither allocates
        // nor frees; it is put back afterwards so both ping-pong
        // buffers keep their capacity.
        let bytes = std::mem::take(&mut self.events.inbox_scratch);
        let result = self.dispatch_receive(sid, msg, &bytes);
        self.events.inbox_scratch = bytes;
        result
    }

    /// A loss-detection timeout fired: retry within budget, otherwise
    /// fail with the blocking implementation's exact classification.
    fn step_retry(&mut self, sid: SessionId, generation: u32) -> Result<(), CloudError> {
        let exhausted = {
            let session = self.events.session(sid)?;
            let policy = self.retry;
            if session.generation != generation {
                // The hop this timer belonged to already completed (a
                // late arrival saved it): nothing to retransmit.
                return Ok(());
            }
            // Deadline lookahead: when the remaining budget cannot
            // cover even the next loss-detection timeout, abort now
            // instead of burning the rest of the retry ladder.
            let next_timeout = self.events.now().saturating_add(policy.timeout_us);
            session.deadline_holds(next_timeout)?;
            session.attempt >= policy.max_attempts.max(1)
        };
        if !exhausted {
            return self.transmit_attempt(sid, 0);
        }
        // Budget exhausted — but copies delayed past the timeout may
        // still be in flight for this hop, and one of them opening
        // cleanly saves it. Defer the verdict to the last of them.
        if let Some(session) = self.events.sessions.get_mut(sid) {
            if session.late.iter().any(|(_, g, _)| *g == generation) {
                session.retry_deferred = true;
                return Ok(());
            }
        }
        self.exhaustion_error(sid)
    }

    /// The classification an out-of-budget hop fails with: "every
    /// delivery failed authentication" (evidence of tampering — a
    /// protocol failure) is distinguished from "nothing ever arrived"
    /// (the peer is unreachable). Reached only when a hop's whole retry
    /// budget burns down — never on the clean warm path.
    #[cold]
    fn exhaustion_error(&mut self, sid: SessionId) -> Result<(), CloudError> {
        let max_attempts = self.retry.max_attempts.max(1);
        let session = self.events.sessions.get(sid).ok_or_else(lost_session)?;
        let links = &mut self.links;
        let (send, recv) = links.channels(session.hop())?;
        Err(match &session.last_auth_failure {
            Some(e) => CloudError::protocol(format!(
                "secure channel {}->{}: {e} ({max_attempts} attempts)",
                recv.peer(),
                send.peer()
            )),
            None => CloudError::Unreachable {
                peer: send.peer().to_owned(),
                attempts: max_attempts,
            },
        })
    }

    /// A record delayed past the loss-detection timeout reaches its
    /// receiver. By now the sender has retransmitted the byte-identical
    /// record, so the usual outcome is a bounce off the receive window
    /// ([`ChannelError::DuplicateRecord`]) — counted, never processed.
    /// Only when every retransmit was lost too does the late copy open
    /// cleanly and save the hop.
    fn step_late_arrival(&mut self, sid: SessionId, generation: u32) -> Result<(), CloudError> {
        let advanced = {
            let Cloud {
                events,
                stats,
                links,
                ..
            } = self;
            let session = events.session_mut(sid)?;
            let Some(pos) = session.late.iter().position(|(_, g, _)| *g == generation) else {
                // Already consumed (defensive; one event is scheduled
                // per parked copy).
                return Ok(());
            };
            let (msg, _, record) = session.late.remove(pos);
            let (_, recv) = links.channels(Hop::of(msg, session.route, session.server))?;
            match recv.open(b"", &record) {
                Err(ChannelError::DuplicateRecord) => {
                    // A retransmit already carried this sequence number
                    // through: the late copy is structurally a
                    // duplicate.
                    stats.duplicates_rejected += 1;
                    false
                }
                Err(_) => {
                    // Keys rotated underneath it (crash/recovery) or
                    // the record is otherwise unverifiable: the
                    // receiver drops it silently, exactly like any
                    // unauthenticated junk.
                    false
                }
                Ok(plaintext) => {
                    if session.generation == generation && session.msg == msg && !session.in_batch {
                        // Every retransmit was lost: the late copy is
                        // the first authenticated delivery of this hop.
                        // Its waiting time was already charged as
                        // timeouts. (A hop already parked in the msg-4
                        // coalescing buffer is past its receive point:
                        // re-entering it here would hand the flush the
                        // same session twice.)
                        session.inbox.clear();
                        session.inbox.extend_from_slice(&plaintext);
                        session.inbox_full = true;
                        true
                    } else {
                        // The hop moved on without this sequence number
                        // ever opening (possible only across a
                        // re-handshake); stray plaintext for a finished
                        // hop is discarded.
                        false
                    }
                }
            }
        };
        if advanced {
            return self.step_arrival(sid);
        }
        // The copy did not advance the hop. When the retry ladder
        // already gave up waiting for the stragglers (`retry_deferred`)
        // and this was the last one in flight, the hop is out of
        // chances.
        let out_of_chances = {
            let session = self.events.session(sid)?;
            session.retry_deferred
                && session.generation == generation
                && !session.late.iter().any(|(_, g, _)| *g == generation)
        };
        if out_of_chances {
            return self.exhaustion_error(sid);
        }
        Ok(())
    }

    /// Terminates `sid` and routes the outcome to its consumer: parked
    /// for an API pump, recorded on the owning subscription, or posted
    /// into the forking parent's branch slot.
    pub(crate) fn finish_session(&mut self, sid: SessionId, outcome: SessionOutcome) {
        // Guard first: a session that already terminated must not be
        // double-counted by a straggler event.
        if !self.events.sessions.contains(sid) {
            return;
        }
        match &outcome {
            Ok(_) => self.stats.sessions_completed += 1,
            Err(e) => {
                self.stats.sessions_failed += 1;
                self.classify_failure(e);
            }
        }
        let Some(session) = self.events.sessions.get_mut(sid) else {
            return;
        };
        match session.origin {
            SessionOrigin::Api => session.pending = Some(outcome),
            SessionOrigin::Subscription(subscription) => {
                let (vid, property) = (session.vid, session.property);
                self.events.sessions.remove(sid);
                let result = outcome.map(|y| crate::cloud::AttestationReport {
                    vid,
                    property,
                    status: y.status,
                    elapsed_us: y.elapsed_us,
                    issued_at_us: self.events.now(),
                });
                self.complete_subscription_sample(subscription, vid, property, result);
            }
            SessionOrigin::Child { parent, slot } => {
                self.events.sessions.remove(sid);
                self.route_child_outcome(parent, slot, outcome.map(|y| y.status));
            }
        }
    }
}
