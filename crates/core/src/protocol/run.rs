//! The session-layer interpreter: executes compiled protocol ops.
//!
//! One compiled op at a time: *entering* an op performs its send side
//! (draw the nonce the record issues, build the record from the register file,
//! transmit with the op's pre-charge), and the matching *receive*
//! dispatch ([`Cloud::dispatch_receive`]) runs when the record's
//! arrival event fires — it writes the registers the wire format
//! defines for that message kind, then advances the program counter
//! into the next op. Transport concerns (retries, late arrivals,
//! deadlines) live in [`crate::session`] and never move the counter;
//! fork/join for parallel and delegated sub-protocols lives in
//! [`crate::protocol::fork`].
//!
//! A request's nonce is drawn immediately before its record is built,
//! and each op's processing is charged as its pre-delay, so a session's
//! DRBG draw order and latency arithmetic follow from its op list alone
//! (for Figure 3, pinned byte for byte by the golden trace). The
//! interpreter's warm path — the flat Figure-3 program — allocates
//! nothing: records are encoded into retained buffers and the register
//! file is plain moves.
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
use crate::error::{Check, CloudError};
use crate::measurements::MeasurementSpec;
use crate::messages::{
    append_route_tag, split_route_tag, AttestationReportMsg, ControllerForward, CustomerReportMsg,
    CustomerRequest, MeasureRequest, MeasureResponse,
};
use crate::protocol::{MsgKind, NonceSlot};
use crate::session::{
    CloudEvent, Msg4Meta, PendingMsg4, SessionEvent, SessionId, SessionYield, LOST_SESSION,
};
use crate::verify_ring::{HeldKey, HopTickets, Offload, Ticket, Vouched};
use monatt_crypto::schnorr::BoundKey;
use monatt_net::wire::Wire;
use monatt_tpm::quote::Quote;

/// Hands message 4's two signature checks to the verification helper:
/// the attestation key's binding, under the identity key as the routed
/// replica's pCA holds it (bare, or bound from its second binding on),
/// and Q3, under the attestation key itself — what the replica will
/// verify on receipt.
fn vouch_msg4(
    offload: &mut Offload,
    attserver: Option<&AttestationServer>,
    response: &MeasureResponse,
) -> HopTickets {
    if !offload.serving() {
        return HopTickets::NONE;
    }
    let request = &response.cert_request;
    let anchor = attserver.and_then(|a| a.identity_anchor(&request.identity_key));
    let avk = request.attestation_key;
    let binding = anchor
        .and_then(|anchor| offload.submit(anchor, avk.to_bytes(), request.identity_signature));
    let quote = &response.quote;
    HopTickets {
        binding,
        quote: offload.submit(HeldKey::Bare(avk), quote.digest, quote.signature),
    }
}

/// Hands a report's quote to the verification helper, under `anchor`:
/// the key its receiver holds for the signer.
fn vouch_quote(offload: &mut Offload, anchor: Option<&BoundKey>, quote: &Quote) -> Option<Ticket> {
    if !offload.serving() {
        return None;
    }
    let key = HeldKey::Bound(anchor?.clone());
    offload.submit(key, quote.digest, quote.signature)
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
        // A counter outside its compiled schedule is impossible for a
        // program the compiler accepted, but surfaced rather than trusted.
        let op = self
            .programs
            .get(program)
            .and_then(|p| p.op(pc))
            .ok_or(CloudError::Internal(
                "program counter outside compiled schedule",
            ))?;
        // `Window` and `Complete` pay their charge and schedule the
        // event that carries the session forward; the other ops have
        // their own entry.
        let (pre, event) = match op {
            Op::Hop { msg, pre } => return self.enter_hop(sid, msg, pre, extra_us),
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
                    .ok_or(CloudError::Internal("program completed without a verdict"))?;
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

    /// The send side of a `Hop` op: draw the nonce `msg` issues
    /// ([`MsgKind::issues`]), encode the
    /// record for `msg` from the register file into the cloud's
    /// plaintext scratch, and transmit it (sealing it there and then)
    /// with the op's pre-charge (plus `extra_us`) as the pre-delay.
    fn enter_hop(
        &mut self,
        sid: SessionId,
        msg: MsgKind,
        pre: Charge,
        extra_us: u64,
    ) -> Result<(), CloudError> {
        // The nonce is drawn immediately before the record is built,
        // one draw per request: the DRBG order the golden trace pins.
        if let Some(slot) = msg.issues() {
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
            offload,
            customer_anchors,
            ..
        } = self;
        let now = events.now();
        let session = events.sessions.get_mut(sid).ok_or(LOST_SESSION)?;
        let wire = &mut events.plaintext;
        session.tickets = HopTickets::NONE;
        match msg {
            MsgKind::Msg1 => CustomerRequest {
                vid: session.vid,
                property: session.property,
                nonce1: session.nonce1,
            }
            .encode_into(wire),
            MsgKind::Msg2 => ControllerForward {
                vid: session.req_vid,
                server: session.server,
                property: session.req_property,
                nonce2: session.nonce2,
            }
            .encode_into(wire),
            MsgKind::Msg3 => {
                let (attserver, _) = appraisers.routed(session.route.replica)?;
                let measure_req = attserver.build_measure_request(
                    session.req_vid,
                    session.req_property,
                    session.nonce3,
                );
                session.spec = Some(measure_req.spec);
                measure_req.encode_into(wire)
            }
            MsgKind::Msg4 => {
                // The measurement-window close: collect measurements,
                // generate the quote, respond. Hashing/quoting cost is
                // the hop's pre-delay.
                let req = session.measure.ok_or(LOST_SESSION)?;
                let hashed = matches!(req.spec, MeasurementSpec::BootIntegrity)
                    .then(|| session.expected_image.size_mb());
                charge = latency.measurement_us(hashed) + extra_us;
                let response = fleet
                    .touch(session.server, now)
                    .ok_or(CloudError::UnknownServer(session.server))?
                    .attest(req.vid, req.spec, req.nonce3)
                    .ok_or(CloudError::UnknownVm(session.vid))?;
                let attserver = appraisers.replica(session.route.replica);
                session.tickets = vouch_msg4(offload, attserver, &response);
                response.encode_into(wire)
            }
            MsgKind::Msg5 => {
                let status = session.status.take().ok_or(LOST_SESSION)?;
                let (attserver, scratch) = appraisers.routed(session.route.replica)?;
                let report = attserver.certify_report_with(
                    session.vid,
                    session.server,
                    session.property,
                    status,
                    session.nonce2,
                    scratch,
                );
                let anchor = fleet.controller.attserver_key(session.route.replica);
                session.tickets.quote = vouch_quote(offload, anchor, &report.quote);
                report.encode_into(wire)
            }
            MsgKind::Msg6 => {
                let status = session.status.take().ok_or(LOST_SESSION)?;
                // Signed with the routed instance's own key.
                let key = fleet
                    .controller
                    .instance_key(session.route.controller)
                    .ok_or(LOST_SESSION)?;
                let report = CloudController::certify_customer_report_keyed(
                    key,
                    session.vid,
                    session.property,
                    status,
                    session.nonce1,
                    &mut appraisers.quote_scratch,
                );
                let anchor = customer_anchors.get(session.route.controller as usize);
                session.tickets.quote = vouch_quote(offload, anchor, &report.quote);
                report.encode_into(wire)
            }
        }
        session.msg = msg;
        // Stamp the session's route tag onto the just-encoded record.
        // The tag rides only a replicated control plane: the dormant
        // topology (K=1, N=1) puts exactly the unrouted protocol's
        // bytes on the wire, so the latency model and golden trace are
        // untouched by default.
        if !topology.is_dormant() {
            append_route_tag(wire, session.route);
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
            let (body, wire_route) = split_route_tag(bytes).ok_or(Check::RouteTag)?;
            if wire_route != self.events.session(sid)?.route {
                return Err(Check::Misrouted.into());
            }
            body
        };
        match msg {
            MsgKind::Msg1 => {
                // The controller reads the customer's request.
                let request =
                    CustomerRequest::from_wire(bytes).map_err(|e| Check::Malformed(msg, e))?;
                let session = self.events.session_mut(sid)?;
                session.req_vid = request.vid;
                session.req_property = request.property;
            }
            MsgKind::Msg2 => {
                // The attestation server reads the forward.
                let fwd =
                    ControllerForward::from_wire(bytes).map_err(|e| Check::Malformed(msg, e))?;
                let session = self.events.session_mut(sid)?;
                session.req_vid = fwd.vid;
                session.req_property = fwd.property;
                session.nonce2 = fwd.nonce2;
            }
            MsgKind::Msg3 => {
                // The cloud server reads the measurement request.
                let req = MeasureRequest::from_wire(bytes).map_err(|e| Check::Malformed(msg, e))?;
                self.events.session_mut(sid)?.measure = Some(req);
            }
            // Advances on its own: inline, or later from the batch flush.
            MsgKind::Msg4 => return self.recv_msg4(sid, bytes),
            MsgKind::Msg5 => {
                // The controller verifies the AS property report (quote
                // Q2, nonce N2 echo).
                let report_msg =
                    AttestationReportMsg::from_wire(bytes).map_err(|e| Check::Malformed(msg, e))?;
                let session = self.events.session_mut(sid)?;
                // Verified against the key the controller holds for the
                // *routed* replica (per-replica identities — no shared
                // key).
                let replica_key = self
                    .fleet
                    .controller
                    .attserver_key(session.route.replica)
                    .ok_or(LOST_SESSION)?;
                let voucher = self.offload.vouchers(session.tickets).quote;
                AttestationServer::verify_report_msg_with(
                    &report_msg,
                    &Vouched::new(replica_key, replica_key.key(), voucher),
                    session.nonce2,
                    &mut self.appraisers.quote_scratch,
                )?;
                session.status = Some(report_msg.status);
            }
            MsgKind::Msg6 => {
                // The customer verifies the final report (quote Q1,
                // nonce N1 echo).
                let report_msg =
                    CustomerReportMsg::from_wire(bytes).map_err(|e| Check::Malformed(msg, e))?;
                let session = self.events.session_mut(sid)?;
                let instance_key = self
                    .customer_anchors
                    .get(session.route.controller as usize)
                    .ok_or(LOST_SESSION)?;
                let voucher = self.offload.vouchers(session.tickets).quote;
                CloudController::verify_customer_report_with(
                    &report_msg,
                    &Vouched::new(instance_key, instance_key.key(), voucher),
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
            MeasureResponse::from_wire(bytes).map_err(|e| Check::Malformed(MsgKind::Msg4, e))?;
        let session = self.events.session_mut(sid)?;
        let meta = session.msg4_meta().ok_or(LOST_SESSION)?;
        let tickets = session.tickets;
        if self.appraisers.batch_window_us == 0 {
            let vouchers = self.offload.vouchers(tickets);
            let (attserver, scratch) = self.appraisers.routed(meta.replica)?;
            attserver.validate_one(&meta.item(&msg4), vouchers, scratch)?;
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
            tickets,
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
            // #[allow(monatt::alloc_freedom)] lifetime-bound, amortized per batch
            let items: Vec<_> = mine().map(|p| p.meta.item(&p.msg4)).collect();
            // Routes come from the topology the pool was built for, so
            // every partition has its replica.
            let Ok((attserver, scratch)) = self.appraisers.routed(replica) else {
                continue;
            };
            // Each item travels with the vouchers of its record, so the
            // validation takes the helper's verdicts where it has them.
            let vouchers = mine().map(|p| self.offload.vouchers(p.tickets));
            let verdicts = attserver.validate_batch(&items, vouchers, scratch);
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
        let req = session.measure.as_ref().ok_or(LOST_SESSION)?;
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
            .ok_or(CloudError::Internal("session completed without a verdict"))?;
        let elapsed_us = session.elapsed_us;
        self.finish_session(sid, Ok(SessionYield { status, elapsed_us }));
        Ok(())
    }
}
