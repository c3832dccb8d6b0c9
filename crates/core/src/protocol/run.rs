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
use crate::attestation::{AttestationServer, BatchValidationItem};
use crate::cloud::Cloud;
use crate::controller::CloudController;
use crate::error::CloudError;
use crate::measurements::MeasurementSpec;
use crate::messages::{
    append_route_tag, split_route_tag, AttestationReportMsg, ControllerForward, CustomerReportMsg,
    CustomerRequest, MeasureRequest, MeasureResponse,
};
use crate::protocol::{MsgKind, NonceSlot};
use crate::session::{
    lost_session, malformed, CloudEvent, Msg4Meta, PendingMsg4, SessionEvent, SessionId,
    SessionYield,
};
use monatt_net::wire::Wire;

/// A program counter escaped its compiled schedule — impossible for a
/// program the compiler accepted, but surfaced as a typed error rather
/// than trusted.
#[cold]
fn program_error() -> CloudError {
    CloudError::protocol("program counter outside compiled schedule")
}

impl Cloud {
    /// Resolves a static pre-charge. [`Charge::Measurement`] is
    /// resolved by the message-4 hop entry itself (it depends on the
    /// spec; the compiler pins it to that op) — here it maps to zero
    /// rather than being trusted with a panic.
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
        let session = self.events.session_mut(sid)?;
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
        let session = self.events.session(sid)?;
        let (program, pc) = (session.program, session.pc);
        let op = self
            .programs
            .get(program)
            .and_then(|p| p.op(pc))
            .ok_or_else(program_error)?;
        // `Window` and `Complete` pay their charge and schedule the
        // event that carries the session forward; the other ops have
        // their own entry.
        let (pre, event) = match op {
            Op::Hop { msg, issue, pre } => return self.enter_hop(sid, msg, issue, pre, extra_us),
            Op::Fork {
                first_branch,
                n_branches,
                pre,
            } => {
                let charge = self.resolve_charge(pre) + extra_us;
                return self.enter_fork(sid, first_branch, n_branches, charge);
            }
            Op::Gate { fail_pc } => return self.enter_gate(sid, fail_pc),
            // The receive processing of message 3 is paid before the
            // window-open attempt is scheduled.
            Op::Window { pre } => (pre, SessionEvent::WindowOpen),
            Op::Complete { pre } => {
                let session = self.events.session_mut(sid)?;
                let status = session
                    .status
                    .take()
                    .ok_or_else(|| CloudError::protocol("program completed without a verdict"))?;
                session.verdict = Some(status);
                (pre, SessionEvent::Complete)
            }
        };
        let charge = self.resolve_charge(pre) + extra_us;
        self.events.session_mut(sid)?.elapsed_us += charge;
        let due = self.events.now() + charge;
        self.events.schedule_session(due, sid, event);
        Ok(())
    }

    /// The send side of a `Hop` op: draw the declared nonce, encode the
    /// record for `msg` from the register file into the session's wire
    /// buffer, and transmit it with the op's pre-charge (plus
    /// `extra_us`) as the pre-delay.
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
        if let Some(slot) = issue {
            let nonce = self.rng.next_bytes32();
            let session = self.events.session_mut(sid)?;
            match slot {
                NonceSlot::N1 => session.nonce1 = nonce,
                NonceSlot::N2 => session.nonce2 = nonce,
                NonceSlot::N3 => session.nonce3 = nonce,
            }
        }
        let mut charge = self.resolve_charge(pre) + extra_us;
        let Cloud {
            events,
            appraisers,
            fleet,
            latency,
            topology,
            ..
        } = self;
        let now = events.now();
        let session = events.session_mut(sid)?;
        match msg {
            MsgKind::Msg1 => CustomerRequest {
                vid: session.vid,
                property: session.property,
                nonce1: session.nonce1,
            }
            .encode_into(&mut session.wire),
            MsgKind::Msg2 => ControllerForward {
                vid: session.req_vid,
                server: session.server,
                property: session.req_property,
                nonce2: session.nonce2,
            }
            .encode_into(&mut session.wire),
            MsgKind::Msg3 => {
                let (attserver, _) = appraisers.routed(session.route.replica)?;
                let measure_req = attserver.build_measure_request(
                    session.req_vid,
                    session.req_property,
                    session.nonce3,
                );
                session.spec = Some(measure_req.spec);
                measure_req.encode_into(&mut session.wire)
            }
            MsgKind::Msg4 => {
                // The measurement-window close: collect measurements,
                // generate the quote, respond. Hashing/quoting cost is
                // the hop's pre-delay.
                let req = session.measure.ok_or_else(lost_session)?;
                let hashed = matches!(req.spec, MeasurementSpec::BootIntegrity)
                    .then(|| session.expected_image.size_mb());
                charge = latency.measurement_us(hashed) + extra_us;
                let response = fleet
                    .touch(session.server, now)
                    .ok_or(CloudError::UnknownServer(session.server))?
                    .attest(req.vid, req.spec, req.nonce3)
                    .ok_or(CloudError::UnknownVm(session.vid))?;
                MeasureResponse::from(response).encode_into(&mut session.wire)
            }
            MsgKind::Msg5 => {
                let status = session.status.take().ok_or_else(lost_session)?;
                let (attserver, scratch) = appraisers.routed(session.route.replica)?;
                attserver
                    .certify_report_with(
                        session.vid,
                        session.server,
                        session.property,
                        status,
                        session.nonce2,
                        scratch,
                    )
                    .encode_into(&mut session.wire)
            }
            MsgKind::Msg6 => {
                let status = session.status.take().ok_or_else(lost_session)?;
                // Signed with the routed instance's own key.
                let key = fleet
                    .controller
                    .instance_key(session.route.controller)
                    .ok_or_else(lost_session)?;
                CloudController::certify_customer_report_keyed(
                    key,
                    session.vid,
                    session.property,
                    status,
                    session.nonce1,
                    &mut appraisers.quote_scratch,
                )
                .encode_into(&mut session.wire)
            }
        }
        session.msg = msg;
        // Stamp the session's route tag onto the just-encoded record.
        // The tag rides only a replicated control plane: the dormant
        // topology (K=1, N=1) puts exactly the unrouted protocol's
        // bytes on the wire, so the latency model and golden trace are
        // untouched by default.
        if !topology.is_dormant() {
            append_route_tag(&mut session.wire, session.route);
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
            let (body, wire_route) = split_route_tag(bytes)
                .ok_or_else(|| CloudError::protocol("record missing control-plane route tag"))?;
            if wire_route != self.events.session(sid)?.route {
                return Err(CloudError::protocol(
                    "record misrouted across the control plane",
                ));
            }
            body
        };
        match msg {
            MsgKind::Msg1 => {
                // The controller reads the customer's request.
                let request =
                    CustomerRequest::from_wire(bytes).map_err(|e| malformed("request", e))?;
                let session = self.events.session_mut(sid)?;
                session.req_vid = request.vid;
                session.req_property = request.property;
            }
            MsgKind::Msg2 => {
                // The attestation server reads the forward.
                let fwd =
                    ControllerForward::from_wire(bytes).map_err(|e| malformed("forward", e))?;
                let session = self.events.session_mut(sid)?;
                session.req_vid = fwd.vid;
                session.req_property = fwd.property;
                session.nonce2 = fwd.nonce2;
            }
            MsgKind::Msg3 => {
                // The cloud server reads the measurement request.
                let req = MeasureRequest::from_wire(bytes)
                    .map_err(|e| malformed("measure request", e))?;
                self.events.session_mut(sid)?.measure = Some(req);
            }
            // Advances on its own: inline, or later from the batch flush.
            MsgKind::Msg4 => return self.recv_msg4(sid, bytes),
            MsgKind::Msg5 => {
                // The controller verifies the AS property report (quote
                // Q2, nonce N2 echo).
                let report_msg =
                    AttestationReportMsg::from_wire(bytes).map_err(|e| malformed("report", e))?;
                let session = self.events.session_mut(sid)?;
                // Verified against the key the controller holds for the
                // *routed* replica (per-replica identities — no shared
                // key).
                let replica_key = self
                    .fleet
                    .controller
                    .attserver_key(session.route.replica)
                    .ok_or_else(lost_session)?;
                AttestationServer::verify_report_msg_with(
                    &report_msg,
                    replica_key,
                    session.nonce2,
                    &mut self.appraisers.quote_scratch,
                )?;
                session.status = Some(report_msg.status);
            }
            MsgKind::Msg6 => {
                // The customer verifies the final report (quote Q1,
                // nonce N1 echo).
                let report_msg = CustomerReportMsg::from_wire(bytes)
                    .map_err(|e| malformed("customer report", e))?;
                let session = self.events.session_mut(sid)?;
                let instance_key = self
                    .customer_anchors
                    .get(session.route.controller as usize)
                    .ok_or_else(lost_session)?;
                CloudController::verify_customer_report_with(
                    &report_msg,
                    instance_key,
                    session.nonce1,
                    &mut self.appraisers.quote_scratch,
                )?;
                session.status = Some(report_msg.status);
            }
        }
        self.advance_session(sid, 0)
    }

    /// The attestation server receives the measurement response. With
    /// coalescing disabled (`batch_window_us == 0`, the default) it is
    /// validated inline on arrival — the pre-batching path, charge for
    /// charge (and allocation-free: a singleton batch would allocate).
    /// With coalescing enabled the response parks in the appraiser
    /// pool's buffer; the batch flushes when it reaches `batch_max`
    /// responses (inline, so a size-1 batch is byte-identical to the
    /// inline path) or when the window timer fires.
    fn recv_msg4(&mut self, sid: SessionId, bytes: &[u8]) -> Result<(), CloudError> {
        let msg4 =
            MeasureResponse::from_wire(bytes).map_err(|e| malformed("measure response", e))?;
        let session = self.events.session_mut(sid)?;
        let meta = session.msg4_meta().ok_or_else(lost_session)?;
        if self.appraisers.batch_window_us == 0 {
            let (attserver, scratch) = self.appraisers.routed(meta.replica)?;
            attserver.validate_response_with(&msg4, meta.vid, meta.spec, meta.nonce3, scratch)?;
            return self.accept_msg4(sid, &meta, &msg4, 0);
        }
        if session.in_batch {
            // Already parked for this hop: a second receive of the
            // same message-4 must not hand the flush the session
            // twice (it would double-advance the program). Counted
            // like any other rejected duplicate.
            self.stats.duplicates_rejected += 1;
            return Ok(());
        }
        session.in_batch = true;
        let now = self.events.now();
        let pool = &mut self.appraisers;
        pool.pending_msg4.push(PendingMsg4 {
            sid,
            msg4,
            meta,
            arrived_at_us: now,
        });
        if pool.pending_msg4.len() >= pool.batch_max.max(1) {
            self.flush_msg4_batch();
        } else if pool.pending_msg4.len() == 1 {
            // First response of a new batch: arm the window timer. A
            // size-triggered flush may empty the buffer before it fires;
            // the stale timer then flushes whatever the next batch holds
            // early, which only shortens waits — never loses a session.
            let due = now + pool.batch_window_us;
            self.events.schedule(due, CloudEvent::Msg4Flush);
        }
        Ok(())
    }

    /// The one msg-4 tail, shared by the inline path and the batch
    /// flush: interpret the *validated* response at the session's
    /// replica, record the evidence, hand the verdict to the session
    /// and advance it into its next op (certification or, for a
    /// measurement-only fork branch, completion), charging `wait_us` of
    /// coalescing wait on top of that op's own pre-charge.
    fn accept_msg4(
        &mut self,
        sid: SessionId,
        meta: &Msg4Meta,
        msg4: &MeasureResponse,
        wait_us: u64,
    ) -> Result<(), CloudError> {
        let status = self.appraisers.appraise(meta, msg4, self.events.now())?;
        self.events.session_mut(sid)?.status = Some(status);
        self.advance_session(sid, wait_us)
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
        if self.appraisers.pending_msg4.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.appraisers.pending_msg4);
        let now = self.events.now();
        self.stats.msg4_flushes += 1;
        self.stats.msg4_batched += pending.len() as u64;
        // An entry whose session died while parked (gone, or terminal)
        // is dropped here; the rest are appraised below.
        let sessions = &self.events.sessions;
        pending.retain(|p| {
            let live = sessions.get(p.sid);
            live.is_some_and(|s| s.pending.is_none() && s.in_batch)
        });
        // Partition the batch by serving AS replica: each replica
        // verifies only its own slice, under its own identity (replicas
        // share no keys). Replica indices are scanned in ascending
        // order without collecting them (the flush path stays free of
        // per-partition allocations); the dormant pool (N=1) yields
        // exactly one group in entry order — byte-identical to the
        // single-AS flush.
        let max_replica = pending.iter().map(|p| p.meta.replica).max();
        for replica in 0..=max_replica.unwrap_or(0) {
            let mine = || pending.iter().filter(move |p| p.meta.replica == replica);
            if mine().next().is_none() {
                continue;
            }
            // The item list borrows each parked response, so it cannot
            // outlive this frame as a persistent scratch: one batch-sized
            // allocation per window flush, amortized across every Msg4 in
            // the batch. The zero-alloc harness pins the non-batched warm
            // configuration to exactly zero.
            let items: Vec<BatchValidationItem<'_>> = mine()
                .map(|p| BatchValidationItem {
                    response: &p.msg4,
                    expected_vid: p.meta.vid,
                    expected_spec: p.meta.spec,
                    expected_nonce3: p.meta.nonce3,
                })
                .collect(); // #[allow(monatt::alloc_freedom)] lifetime-bound, amortized per batch
                            // Routes come from the topology the pool was built for, so
                            // every partition has its replica.
            let Ok((attserver, scratch)) = self.appraisers.routed(replica) else {
                continue;
            };
            // Batch validation assembles lifetime-bound signature slices
            // internally; its allocations are likewise per flush, not
            // per message. #[allow(monatt::alloc_freedom)]
            let verdicts = attserver.validate_response_batch(&items, scratch);
            for (p, verdict) in mine().zip(verdicts) {
                // The session leaves the batch before its fate is decided:
                // whatever happens next (advance, typed failure), a
                // straggler duplicate of its message 4 must be treated as a
                // fresh receive, not a batch member.
                if let Some(session) = self.events.sessions.get_mut(p.sid) {
                    session.in_batch = false;
                }
                let wait = now - p.arrived_at_us;
                let accepted =
                    verdict.and_then(|()| self.accept_msg4(p.sid, &p.meta, &p.msg4, wait));
                if let Err(e) = accepted {
                    self.finish_session(p.sid, Err(e));
                }
            }
        }
        // Hand the drained buffer's capacity back for the next batch
        // (nothing parks while a flush is running: parking only happens
        // on a msg-4 arrival event).
        if self.appraisers.pending_msg4.is_empty() {
            pending.clear();
            self.appraisers.pending_msg4 = pending;
        }
    }

    /// Opens the server's measurement window, or queues behind the
    /// session currently holding it (a server's profiling window is
    /// server-global state, so windowed sessions serialize per server;
    /// the wait is charged as queueing latency).
    pub(crate) fn step_window_open(&mut self, sid: SessionId) -> Result<(), CloudError> {
        self.check_deadline(sid)?;
        let now = self.events.now();
        let session = self.events.session_mut(sid)?;
        let req = session.measure.as_ref().ok_or_else(lost_session)?;
        let (server, req_vid, spec) = (session.server, req.vid, req.spec);
        let window = spec.window_us();
        if window == 0 {
            return self.step_window_close(sid);
        }
        let free_at = (self.fleet.nodes().get(&server)).map_or(0, |n| n.window_free_at);
        let (wait, next) = if free_at > now {
            (free_at - now, SessionEvent::WindowOpen)
        } else {
            let node = self
                .fleet
                .touch(server, now)
                .ok_or(CloudError::UnknownServer(server))?;
            node.begin_window(spec, req_vid);
            node.window_free_at = now + window;
            (window, SessionEvent::WindowClose)
        };
        session.elapsed_us += wait;
        self.events.schedule_session(now + wait, sid, next);
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
        let session = self.events.session_mut(sid)?;
        let status = session
            .verdict
            .take()
            .ok_or_else(|| CloudError::protocol("session completed without a verdict"))?;
        let elapsed_us = session.elapsed_us;
        self.finish_session(sid, Ok(SessionYield { status, elapsed_us }));
        Ok(())
    }
}
