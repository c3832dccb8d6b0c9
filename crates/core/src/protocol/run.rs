//! The session-layer interpreter: executes compiled protocol ops.
//!
//! One compiled op at a time: *entering* an op performs its send side
//! (draw the declared nonce, build the record from the register file,
//! transmit with the op's pre-charge), and the matching *receive*
//! dispatch ([`Cloud::dispatch_receive`]) runs when the record's
//! arrival event fires — it writes the registers the wire format
//! defines for that message kind, then advances the program counter
//! into the next op. Transport concerns (retries, late arrivals,
//! deadlines) live in [`crate::session`] and never move the counter;
//! fork/join for parallel and delegated sub-protocols lives in
//! [`crate::protocol::fork`].
//!
//! The op bodies are ports of the hand-written `on_msgN` handlers, call
//! for call and charge for charge: compiling Figure 3 and interpreting
//! it here reproduces the exact DRBG draw order, latency arithmetic and
//! stats of the old state machine (pinned byte-for-byte by the golden
//! trace). The interpreter's warm path — the flat Figure-3 program —
//! allocates nothing: records are encoded into the session's retained
//! buffers and the register file is plain moves.
//!
//! ## Interception points
//!
//! | Wire point | Interpreter hook | What intercepts |
//! |---|---|---|
//! | message-4 receive | [`Cloud::dispatch_receive`] | AS coalescing buffer ([`Cloud::flush_msg4_batch`]) |
//! | message-5 entry | [`Cloud::enter_hop`] (certify) | evidence cache (insert on the 4-receive) |
//! | `Fork` op | [`crate::protocol::fork`] | delegated / parallel child sessions |
//! | `Gate` op | [`Cloud::enter_current_op`] | verdict-gated continuation (layered attestation) |

use super::compile::{Charge, Op};
use crate::attestation::AttestationServer;
use crate::cloud::Cloud;
use crate::controller::CloudController;
use crate::error::CloudError;
use crate::measurements::MeasurementSpec;
use crate::messages::{
    append_route_tag, split_route_tag, AttestationReportMsg, ControllerForward, CustomerReportMsg,
    CustomerRequest, MeasureRequest, MeasureResponse,
};
use crate::protocol::{MsgKind, NonceSlot};
use crate::session::{lost_session, malformed, CloudEvent, PendingMsg4, SessionEvent, SessionId};
use monatt_net::wire::Wire;

/// The Attestation-Server replica a session's route names. A free
/// function over the replica vector so callers can borrow it alongside
/// other `Cloud` fields.
fn routed_replica(
    pool: &mut [AttestationServer],
    replica: u32,
) -> Result<&mut AttestationServer, CloudError> {
    pool.get_mut(replica as usize).ok_or_else(lost_session)
}

/// A program counter escaped its compiled schedule — impossible for a
/// program the compiler accepted, but surfaced as a typed error rather
/// than trusted.
#[cold]
fn program_error() -> CloudError {
    CloudError::ProtocolFailure {
        reason: "program counter outside compiled schedule".into(),
    }
}

impl Cloud {
    /// Resolves a static pre-charge. [`Charge::Measurement`] is
    /// resolved by the message-4 hop entry itself (it depends on the
    /// spec); the compiler pins it to that op, so it never reaches
    /// here — mapped to zero rather than trusted with a panic.
    fn resolve_charge(&self, pre: Charge) -> u64 {
        match pre {
            Charge::None | Charge::Measurement => 0,
            Charge::PostHop(n) => self.latency.post_hop_us(n),
        }
    }

    /// Advances the program counter and enters the next op. `extra_us`
    /// is additional latency charged on top of the op's own pre-charge
    /// (the msg-4 coalescing wait).
    pub(crate) fn advance_session(
        &mut self,
        sid: SessionId,
        extra_us: u64,
    ) -> Result<(), CloudError> {
        let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
        session.pc = session.pc.wrapping_add(1);
        self.enter_current_op(sid, extra_us)
    }

    /// Enters the op the session's program counter points at: performs
    /// its send side and schedules the events that carry it forward.
    pub(crate) fn enter_current_op(
        &mut self,
        sid: SessionId,
        extra_us: u64,
    ) -> Result<(), CloudError> {
        let (program, pc) = {
            let session = self.sessions.get(sid).ok_or_else(lost_session)?;
            (session.program, session.pc)
        };
        let op = self
            .programs
            .get(program)
            .and_then(|p| p.op(pc))
            .ok_or_else(program_error)?;
        match op {
            Op::Hop { msg, issue, pre } => self.enter_hop(sid, msg, issue, pre, extra_us),
            Op::Window { pre } => {
                // The receive processing of message 3 is paid before
                // the window-open attempt is scheduled.
                let charge = self.resolve_charge(pre) + extra_us;
                let due = self.wall_clock_us + charge;
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.elapsed_us += charge;
                self.schedule_session_event(due, sid, SessionEvent::WindowOpen);
                Ok(())
            }
            Op::Fork {
                first_branch,
                n_branches,
                pre,
            } => {
                let charge = self.resolve_charge(pre) + extra_us;
                self.enter_fork(sid, first_branch, n_branches, charge)
            }
            Op::Gate { fail_pc } => self.enter_gate(sid, fail_pc),
            Op::Complete { pre } => {
                let charge = self.resolve_charge(pre) + extra_us;
                let due = self.wall_clock_us + charge;
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                let status = session
                    .status
                    .take()
                    .ok_or_else(|| CloudError::ProtocolFailure {
                        reason: "program completed without a verdict".into(),
                    })?;
                session.verdict = Some(status);
                session.elapsed_us += charge;
                self.schedule_session_event(due, sid, SessionEvent::Complete);
                Ok(())
            }
        }
    }

    /// The send side of a `Hop` op: draw the declared nonce, build the
    /// record for `msg` from the register file, and transmit it with
    /// the op's pre-charge (plus `extra_us`) as the pre-delay.
    fn enter_hop(
        &mut self,
        sid: SessionId,
        msg: MsgKind,
        issue: Option<NonceSlot>,
        pre: Charge,
        extra_us: u64,
    ) -> Result<(), CloudError> {
        // The nonce draw happens immediately before the record is
        // built — the compiler fused `IssueNonce` into the hop to pin
        // exactly this DRBG draw order.
        let drawn = issue.map(|slot| (slot, self.fresh_nonce()));
        if let Some((slot, nonce)) = drawn {
            let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
            match slot {
                NonceSlot::N1 => session.nonce1 = nonce,
                NonceSlot::N2 => session.nonce2 = nonce,
                NonceSlot::N3 => session.nonce3 = nonce,
            }
        }
        let charge = match pre {
            Charge::Measurement => 0, // resolved below, from the spec
            other => self.resolve_charge(other),
        } + extra_us;
        match msg {
            MsgKind::Msg1 => {
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                let request = CustomerRequest {
                    vid: session.vid,
                    property: session.property,
                    nonce1: session.nonce1,
                };
                session.msg = MsgKind::Msg1;
                request.encode_into(&mut session.wire);
                self.stamp_and_transmit(sid, charge)
            }
            MsgKind::Msg2 => {
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                let fwd = ControllerForward {
                    vid: session.req_vid,
                    server: session.server,
                    property: session.req_property,
                    nonce2: session.nonce2,
                };
                session.msg = MsgKind::Msg2;
                fwd.encode_into(&mut session.wire);
                self.stamp_and_transmit(sid, charge)
            }
            MsgKind::Msg3 => {
                let (req_vid, req_property, nonce3, replica) = {
                    let session = self.sessions.get(sid).ok_or_else(lost_session)?;
                    (
                        session.req_vid,
                        session.req_property,
                        session.nonce3,
                        session.route.replica,
                    )
                };
                let attserver = routed_replica(&mut self.attservers, replica)?;
                let measure_req = attserver.build_measure_request(req_vid, req_property, nonce3);
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.spec = Some(measure_req.spec);
                session.msg = MsgKind::Msg3;
                measure_req.encode_into(&mut session.wire);
                self.stamp_and_transmit(sid, charge)
            }
            MsgKind::Msg4 => {
                // The measurement-window close: collect measurements,
                // generate the quote, respond. Hashing/quoting cost is
                // the hop's pre-delay.
                let (server, vid, expected_image, req) = {
                    let session = self.sessions.get(sid).ok_or_else(lost_session)?;
                    let req = session.measure.ok_or_else(lost_session)?;
                    (session.server, session.vid, session.expected_image, req)
                };
                let hashed = if matches!(req.spec, MeasurementSpec::BootIntegrity) {
                    Some(expected_image.size_mb())
                } else {
                    None
                };
                let charge = self.latency.measurement_us(hashed) + extra_us;
                let response = self
                    .touch_server(server)
                    .ok_or(CloudError::UnknownServer(server))?
                    .attest(req.vid, req.spec, req.nonce3)
                    .ok_or(CloudError::UnknownVm(vid))?;
                let msg4 = MeasureResponse {
                    vid: response.vid,
                    spec: response.spec,
                    measurement: response.measurement,
                    nonce3: response.nonce,
                    quote: response.quote,
                    cert_request: response.cert_request,
                };
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.msg = MsgKind::Msg4;
                msg4.encode_into(&mut session.wire);
                self.stamp_and_transmit(sid, charge)
            }
            MsgKind::Msg5 => {
                let (vid, server, property, nonce2, status, replica) = {
                    let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                    let status = session.status.take().ok_or_else(lost_session)?;
                    (
                        session.vid,
                        session.server,
                        session.property,
                        session.nonce2,
                        status,
                        session.route.replica,
                    )
                };
                let attserver = routed_replica(&mut self.attservers, replica)?;
                let report_msg = attserver.certify_report_with(
                    vid,
                    server,
                    property,
                    status,
                    nonce2,
                    &mut self.quote_scratch,
                );
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.msg = MsgKind::Msg5;
                report_msg.encode_into(&mut session.wire);
                self.stamp_and_transmit(sid, charge)
            }
            MsgKind::Msg6 => {
                let (vid, property, nonce1, status, instance) = {
                    let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                    let status = session.status.take().ok_or_else(lost_session)?;
                    (
                        session.vid,
                        session.property,
                        session.nonce1,
                        status,
                        session.route.controller,
                    )
                };
                // Signed with the routed instance's own key.
                let key = self
                    .controller
                    .instance_key(instance)
                    .ok_or_else(lost_session)?;
                let customer_report = CloudController::certify_customer_report_keyed(
                    key,
                    vid,
                    property,
                    status,
                    nonce1,
                    &mut self.quote_scratch,
                );
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.msg = MsgKind::Msg6;
                customer_report.encode_into(&mut session.wire);
                self.stamp_and_transmit(sid, charge)
            }
        }
    }

    /// Stamps the session's route tag onto the just-encoded record and
    /// transmits it. The tag rides only a replicated control plane: the
    /// dormant topology (K=1, N=1) puts exactly the unrouted protocol's
    /// bytes on the wire, so the latency model and golden trace are
    /// untouched by default.
    fn stamp_and_transmit(&mut self, sid: SessionId, charge: u64) -> Result<(), CloudError> {
        if !self.topology.is_dormant() {
            let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
            let route = session.route;
            append_route_tag(&mut session.wire, route);
        }
        self.transmit_attempt(sid, charge)
    }

    /// The receive side of the current `Hop` op: decode `bytes` per the
    /// wire format of `msg`, enforce its obligations (nonce echo, quote
    /// verification — the claims the compiler validated), write the
    /// registers, and advance into the next op.
    pub(crate) fn dispatch_receive(
        &mut self,
        sid: SessionId,
        msg: MsgKind,
        bytes: &[u8],
    ) -> Result<(), CloudError> {
        // On a replicated control plane every record carries its route
        // tag as a trailer: strip it and reject a record whose tag does
        // not match the session's pinned route (a misrouted record is
        // evidence of a broken shard-ownership invariant, not noise).
        let bytes = if self.topology.is_dormant() {
            bytes
        } else {
            // The trailer is public routing metadata (shard/instance/
            // replica indices), not authenticator material — the sealed
            // channel already authenticated the whole record.
            let (body, wire_route) =
                split_route_tag(bytes).ok_or_else(|| CloudError::ProtocolFailure {
                    reason: "record missing control-plane route tag".into(),
                })?;
            let session = self.sessions.get(sid).ok_or_else(lost_session)?;
            if wire_route != session.route {
                return Err(CloudError::ProtocolFailure {
                    reason: "record misrouted across the control plane".into(),
                });
            }
            body
        };
        match msg {
            MsgKind::Msg1 => {
                // The controller reads the customer's request.
                let request =
                    CustomerRequest::from_wire(bytes).map_err(|e| malformed("request", e))?;
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.req_vid = request.vid;
                session.req_property = request.property;
                self.advance_session(sid, 0)
            }
            MsgKind::Msg2 => {
                // The attestation server reads the forward.
                let fwd =
                    ControllerForward::from_wire(bytes).map_err(|e| malformed("forward", e))?;
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.req_vid = fwd.vid;
                session.req_property = fwd.property;
                session.nonce2 = fwd.nonce2;
                self.advance_session(sid, 0)
            }
            MsgKind::Msg3 => {
                // The cloud server reads the measurement request.
                let req = MeasureRequest::from_wire(bytes)
                    .map_err(|e| malformed("measure request", e))?;
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.measure = Some(req);
                self.advance_session(sid, 0)
            }
            MsgKind::Msg4 => self.recv_msg4(sid, bytes),
            MsgKind::Msg5 => {
                // The controller verifies the AS property report (quote
                // Q2, nonce N2 echo).
                let report_msg =
                    AttestationReportMsg::from_wire(bytes).map_err(|e| malformed("report", e))?;
                let (nonce2, replica) = {
                    let session = self.sessions.get(sid).ok_or_else(lost_session)?;
                    (session.nonce2, session.route.replica)
                };
                // Verified against the *routed* replica's identity
                // (per-replica pCA certification — no shared key).
                let replica_key = routed_replica(&mut self.attservers, replica)?.identity_key();
                AttestationServer::verify_report_msg_with(
                    &report_msg,
                    &replica_key,
                    nonce2,
                    &mut self.quote_scratch,
                )?;
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.status = Some(report_msg.status);
                self.advance_session(sid, 0)
            }
            MsgKind::Msg6 => {
                // The customer verifies the final report (quote Q1,
                // nonce N1 echo).
                let report_msg = CustomerReportMsg::from_wire(bytes)
                    .map_err(|e| malformed("customer report", e))?;
                let (nonce1, instance) = {
                    let session = self.sessions.get(sid).ok_or_else(lost_session)?;
                    (session.nonce1, session.route.controller)
                };
                let instance_key = self
                    .controller
                    .instance_key(instance)
                    .ok_or_else(lost_session)?
                    .verifying_key();
                CloudController::verify_customer_report_with(
                    &report_msg,
                    &instance_key,
                    nonce1,
                    &mut self.quote_scratch,
                )?;
                let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
                session.status = Some(report_msg.status);
                self.advance_session(sid, 0)
            }
        }
    }

    /// The attestation server receives the measurement response. With
    /// coalescing disabled (`as_batch_window_us == 0`, the default) it
    /// is validated inline on arrival — the pre-batching path, charge
    /// for charge. With coalescing enabled the response parks in
    /// [`Cloud::pending_msg4`]; the batch flushes when it reaches
    /// `as_batch_max` responses (inline, so a size-1 batch is
    /// byte-identical to the inline path) or when the window timer
    /// fires.
    fn recv_msg4(&mut self, sid: SessionId, bytes: &[u8]) -> Result<(), CloudError> {
        let msg4 =
            MeasureResponse::from_wire(bytes).map_err(|e| malformed("measure response", e))?;
        if self.as_batch_window_us == 0 {
            return self.recv_msg4_inline(sid, msg4);
        }
        {
            let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
            if session.in_batch {
                // Already parked for this hop: a second receive of the
                // same message-4 must not hand the flush the session
                // twice (it would double-advance the program). Counted
                // like any other rejected duplicate.
                self.stats.duplicates_rejected += 1;
                return Ok(());
            }
            session.in_batch = true;
        }
        let now = self.wall_clock_us;
        self.pending_msg4.push(PendingMsg4 {
            sid,
            msg4,
            arrived_at_us: now,
        });
        if self.pending_msg4.len() >= self.as_batch_max.max(1) {
            self.flush_msg4_batch();
            return Ok(());
        }
        if self.pending_msg4.len() == 1 {
            // First response of a new batch: arm the window timer. A
            // size-triggered flush may empty the buffer before it fires;
            // the stale timer then flushes whatever the next batch holds
            // early, which only shortens waits — never loses a session.
            self.schedule_cloud_event(now + self.as_batch_window_us, CloudEvent::Msg4Flush);
        }
        Ok(())
    }

    /// The inline (unbatched) msg-4 path: validate, interpret, record
    /// evidence, then advance into the next op (certification or, for a
    /// measurement-only fork branch, completion).
    fn recv_msg4_inline(
        &mut self,
        sid: SessionId,
        msg4: MeasureResponse,
    ) -> Result<(), CloudError> {
        let (vid, server, property, expected_image, spec, nonce3, replica) = {
            let session = self.sessions.get(sid).ok_or_else(lost_session)?;
            let spec = session.spec.ok_or_else(lost_session)?;
            (
                session.vid,
                session.server,
                session.property,
                session.expected_image,
                spec,
                session.nonce3,
                session.route.replica,
            )
        };
        let attserver = routed_replica(&mut self.attservers, replica)?;
        attserver.validate_response_with(&msg4, vid, spec, nonce3, &mut self.quote_scratch)?;
        let status = attserver.interpret_response(property, &msg4, expected_image);
        if let Some(ttl) = self.evidence_ttl_us {
            attserver.evidence_insert(
                vid,
                property,
                server,
                status.clone(),
                self.wall_clock_us + ttl,
            );
        }
        let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
        session.status = Some(status);
        self.advance_session(sid, 0)
    }

    /// Validates every parked measurement response in one batched
    /// verification pass ([`AttestationServer::validate_response_batch`])
    /// and advances the surviving sessions into their next op.
    ///
    /// Latency model: each session is charged its coalescing wait
    /// (`flush_time - arrival`) plus its next op's own pre-charge, so a
    /// disabled window or a size-1 batch charges exactly what the
    /// inline path does. Sessions that died while parked (node crash,
    /// deadline expiry) are skipped; a verdict failure terminates its
    /// session with the identical error the inline path would produce,
    /// without touching its batch-mates.
    pub(crate) fn flush_msg4_batch(&mut self) {
        if self.pending_msg4.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_msg4);
        let now = self.wall_clock_us;
        self.stats.msg4_flushes += 1;
        self.stats.msg4_batched += pending.len() as u64;
        // Re-read each parked entry's expectations from its session;
        // `None` marks an entry whose session is gone or terminal. The
        // buffer lives on `self` so its capacity survives across
        // flushes (taken locally to release the `&mut self` borrow).
        let mut meta = std::mem::take(&mut self.batch_meta);
        meta.clear();
        meta.extend(pending.iter().map(|p| match self.sessions.get(p.sid) {
            Some(s) if s.pending.is_none() && s.in_batch => s.spec.map(|spec| {
                (
                    s.vid,
                    s.server,
                    s.property,
                    s.expected_image,
                    spec,
                    s.nonce2,
                    s.nonce3,
                    s.route.replica,
                )
            }),
            _ => None,
        }));
        // Partition the batch by serving AS replica: each replica
        // verifies only its own slice, under its own identity (replicas
        // share no keys). Replica indices are scanned in ascending
        // order without collecting them (the flush path stays free of
        // per-partition allocations); the dormant pool (N=1) yields
        // exactly one group in entry order — byte-identical to the
        // single-AS flush.
        let max_replica = meta.iter().filter_map(|m| m.map(|t| t.7)).max();
        for replica in 0..=max_replica.unwrap_or(0) {
            if max_replica.is_none() || !meta.iter().any(|m| m.map(|t| t.7) == Some(replica)) {
                continue;
            }
            // The item list borrows each parked response, so it cannot
            // outlive this frame as a persistent scratch: one batch-sized
            // allocation per window flush, amortized across every Msg4 in
            // the batch. The zero-alloc harness pins the non-batched warm
            // configuration to exactly zero.
            let items: Vec<crate::attestation::BatchValidationItem<'_>> = pending
                .iter()
                .zip(meta.iter())
                .filter_map(|(p, m)| {
                    m.filter(|t| t.7 == replica)
                        .map(|(vid, _, _, _, spec, _, nonce3, _)| {
                            crate::attestation::BatchValidationItem {
                                response: &p.msg4,
                                expected_vid: vid,
                                expected_spec: spec,
                                expected_nonce3: nonce3,
                            }
                        })
                })
                .collect(); // #[allow(monatt::alloc_freedom)] lifetime-bound, amortized per batch
                            // Routes come from the topology the pool was built for, so
                            // every partition has its replica.
            let Some(attserver) = self.attservers.get_mut(replica as usize) else {
                continue;
            };
            let verdicts = attserver
                // Batch validation assembles lifetime-bound signature slices
                // internally; its allocations are likewise per flush, not
                // per message. #[allow(monatt::alloc_freedom)]
                .validate_response_batch(&items, &mut self.quote_scratch);
            let mut verdicts = verdicts.into_iter();
            for (p, m) in pending.iter().zip(meta.iter()) {
                let Some((vid, server, property, expected_image, _, _, _, r)) = *m else {
                    continue;
                };
                if r != replica {
                    continue;
                }
                let Some(verdict) = verdicts.next() else {
                    break;
                };
                // The session leaves the batch before its fate is decided:
                // whatever happens next (advance, typed failure), a
                // straggler duplicate of its message 4 must be treated as a
                // fresh receive, not a batch member.
                if let Some(session) = self.sessions.get_mut(p.sid) {
                    session.in_batch = false;
                }
                if let Err(e) = verdict {
                    self.finish_session(p.sid, Err(e));
                    continue;
                }
                let Some(attserver) = self.attservers.get_mut(replica as usize) else {
                    continue;
                };
                let status = attserver.interpret_response(property, &p.msg4, expected_image);
                if let Some(ttl) = self.evidence_ttl_us {
                    attserver.evidence_insert(vid, property, server, status.clone(), now + ttl);
                }
                let Some(session) = self.sessions.get_mut(p.sid) else {
                    continue;
                };
                session.status = Some(status);
                let wait = now - p.arrived_at_us;
                if let Err(e) = self.advance_session(p.sid, wait) {
                    self.finish_session(p.sid, Err(e));
                }
            }
        }
        // Hand the drained buffer's capacity back for the next batch
        // (nothing parks while a flush is running: parking only happens
        // on a msg-4 arrival event).
        if self.pending_msg4.is_empty() {
            pending.clear();
            self.pending_msg4 = pending;
        }
        self.batch_meta = meta;
    }

    /// Opens the server's measurement window, or queues behind the
    /// session currently holding it (a server's profiling window is
    /// server-global state, so windowed sessions serialize per server;
    /// the wait is charged as queueing latency).
    pub(crate) fn step_window_open(&mut self, sid: SessionId) -> Result<(), CloudError> {
        self.check_deadline(sid)?;
        let now = self.wall_clock_us;
        let (server, req_vid, spec) = {
            let session = self.sessions.get(sid).ok_or_else(lost_session)?;
            let req = session.measure.as_ref().ok_or_else(lost_session)?;
            (session.server, req.vid, req.spec)
        };
        let window = spec.window_us();
        if window == 0 {
            return self.step_window_close(sid);
        }
        let free_at = self.window_free_at.get(&server).copied().unwrap_or(0);
        if free_at > now {
            if let Some(session) = self.sessions.get_mut(sid) {
                session.elapsed_us += free_at - now;
            }
            self.schedule_session_event(free_at, sid, SessionEvent::WindowOpen);
            return Ok(());
        }
        let node = self
            .touch_server(server)
            .ok_or(CloudError::UnknownServer(server))?;
        node.begin_window(spec, req_vid);
        self.window_free_at.insert(server, now + window);
        if let Some(session) = self.sessions.get_mut(sid) {
            session.elapsed_us += window;
        }
        self.schedule_session_event(now + window, sid, SessionEvent::WindowClose);
        Ok(())
    }

    /// The window elapsed: advance out of the `Window` op into the
    /// message-4 hop, whose entry collects the measurements, generates
    /// the quote and puts the response on the wire.
    pub(crate) fn step_window_close(&mut self, sid: SessionId) -> Result<(), CloudError> {
        self.check_deadline(sid)?;
        self.advance_session(sid, 0)
    }

    /// The final processing charge is paid: deliver the verdict.
    pub(crate) fn step_complete(&mut self, sid: SessionId) -> Result<(), CloudError> {
        let (status, elapsed_us) = {
            let session = self.sessions.get_mut(sid).ok_or_else(lost_session)?;
            let status = session
                .verdict
                .take()
                .ok_or_else(|| CloudError::ProtocolFailure {
                    reason: "session completed without a verdict".into(),
                })?;
            (status, session.elapsed_us)
        };
        self.finish_session(sid, Ok(crate::session::SessionYield { status, elapsed_us }));
        Ok(())
    }
}
