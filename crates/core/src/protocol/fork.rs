//! Fork/join for parallel and delegated sub-protocols.
//!
//! A `Fork` op spawns each compiled branch as a *child session* — a
//! full session with its own retransmission ladders, deadline,
//! measurement windows and ledger entries — and parks the parent until
//! every branch terminates. Child outcomes are routed back through
//! [`Cloud::route_child_outcome`] into the parent's branch slots; the
//! last one triggers the join, which combines the verdicts and resumes
//! the parent (a following `Gate` op branches on the combined verdict).
//!
//! A parked parent is invisible to per-hop machinery: it has no record
//! on the wire, no retry timers, and [`AttestSession::touches`] returns
//! `false`, so node-crash fail-fast takes out the children (which
//! resume the parent with their errors) instead of double-finishing the
//! parent. That single ownership path is what keeps the chaos-sweep
//! liveness ledgers reconciling: every child is counted
//! started/finished exactly once, and the parent finishes exactly once,
//! at the join.
//!
//! Forks do not nest (enforced by the compiler), so one parent pointer
//! per session suffices.

use crate::cloud::Cloud;
use crate::error::CloudError;
use crate::session::{SessionId, SessionOrigin, LOST_SESSION};
use crate::types::HealthStatus;

impl Cloud {
    /// Enters a `Fork` op: spawns the branch child sessions and parks
    /// the parent. `charge_us` (the op's pre-charge) is paid by the
    /// parent; the join later charges the wall-clock wait on top.
    pub(crate) fn enter_fork(
        &mut self,
        sid: SessionId,
        first_branch: u16,
        n_branches: u16,
        charge_us: u64,
    ) -> Result<(), CloudError> {
        let now = self.events.now();
        let session = self.events.session_mut(sid)?;
        session.elapsed_us += charge_us;
        session.fork_started_us = now;
        session.fork_outstanding = 0;
        session.fork_slots.clear();
        session.fork_slots.resize(n_branches as usize, None);
        let (vid, parent_property, program) = (session.vid, session.property, session.program);
        // Branches measure where the parent does.
        let placement = Some((session.server, session.expected_image));
        for slot in 0..n_branches {
            let spec = self
                .programs
                .get(program)
                .and_then(|p| p.branches.get((first_branch + slot) as usize))
                .copied()
                .ok_or(LOST_SESSION)?;
            let property = spec.property.unwrap_or(parent_property);
            let origin = SessionOrigin::Child { parent: sid, slot };
            let spawned = self.begin_session(vid, placement, property, spec.program, origin);
            let session = self.events.session_mut(sid)?;
            match spawned {
                Ok(_) => session.fork_outstanding += 1,
                // A branch that cannot even spawn (admission, node
                // down) records its error in its slot; the other
                // branches still run and the join reports it.
                Err(e) => {
                    if let Some(entry) = session.fork_slots.get_mut(slot as usize) {
                        *entry = Some(Err(e));
                    }
                }
            }
        }
        if self.events.session(sid)?.fork_outstanding == 0 {
            self.join_fork(sid);
        }
        Ok(())
    }

    /// A terminated child posts its outcome into the parent's branch
    /// slot; the last outstanding child triggers the join. A parent
    /// already terminal (defensive — the parked parent has no failure
    /// path of its own) drops the outcome.
    pub(crate) fn route_child_outcome(
        &mut self,
        parent: SessionId,
        slot: u16,
        outcome: Result<HealthStatus, CloudError>,
    ) {
        let live = self.events.sessions.get_mut(parent);
        let Some(session) = live.filter(|s| s.pending.is_none()) else {
            return;
        };
        if let Some(entry) = session.fork_slots.get_mut(slot as usize) {
            *entry = Some(outcome);
        }
        session.fork_outstanding = session.fork_outstanding.saturating_sub(1);
        if session.fork_outstanding == 0 {
            self.join_fork(parent);
        }
    }

    /// All branches are in: charge the parent's wait, combine the
    /// verdicts and resume the parent at the next op. Branch transport
    /// errors fail the parent (first slot wins); verdicts combine as
    /// healthy-iff-all-healthy, with a single-branch fork (a
    /// delegation) passing the child's verdict through untouched.
    fn join_fork(&mut self, sid: SessionId) {
        let now = self.events.now();
        let Some(session) = self.events.sessions.get_mut(sid) else {
            return;
        };
        session.elapsed_us += now - session.fork_started_us;
        let combined = combine_slots(&mut session.fork_slots);
        let resumed = combined.map(|status| session.status = Some(status));
        if let Err(e) = resumed.and_then(|()| self.advance_session(sid, 0)) {
            self.finish_session(sid, Err(e));
        }
    }

    /// Enters a `Gate` op: a healthy delegated verdict is consumed and
    /// the program falls through (the real appraisal now runs on a
    /// platform just vouched for); an unhealthy one is kept in the
    /// status register and the counter jumps to the certification tail,
    /// so the negative verdict is still certified and reported.
    pub(crate) fn enter_gate(&mut self, sid: SessionId, fail_pc: u16) -> Result<(), CloudError> {
        let session = self.events.session_mut(sid)?;
        let healthy = match &session.status {
            Some(status) => status.is_healthy(),
            None => {
                return Err(CloudError::Internal(
                    "gate reached without a delegated verdict",
                ))
            }
        };
        if healthy {
            session.status = None;
            session.pc = session.pc.wrapping_add(1);
        } else {
            session.pc = fail_pc;
        }
        self.enter_current_op(sid, 0)
    }
}

/// Combines branch outcomes, consuming the slots: a transport error in
/// any branch fails the whole fork (first slot wins — deterministic); a
/// single Ok verdict passes through; multiple verdicts combine to
/// `Healthy` iff all are healthy, `Compromised` naming the failing
/// branches if any branch found evidence, and `Unreachable` when the
/// only non-healthy verdicts were silence.
fn combine_slots(
    slots: &mut [Option<Result<HealthStatus, CloudError>>],
) -> Result<HealthStatus, CloudError> {
    let mut verdicts: Vec<HealthStatus> = Vec::with_capacity(slots.len());
    for entry in slots.iter_mut() {
        match entry.take() {
            Some(Ok(status)) => verdicts.push(status),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(CloudError::Internal(
                    "fork joined with an unfilled branch slot",
                ))
            }
        }
    }
    if verdicts.len() == 1 {
        let Some(status) = verdicts.pop() else {
            return Err(LOST_SESSION);
        };
        return Ok(status);
    }
    if verdicts.iter().all(HealthStatus::is_healthy) {
        return Ok(HealthStatus::Healthy);
    }
    if verdicts
        .iter()
        .any(|v| matches!(v, HealthStatus::Compromised { .. }))
    {
        let mut reason = String::from("fan-out branches violated:");
        for (i, v) in verdicts.iter().enumerate() {
            if let HealthStatus::Compromised { reason: r } = v {
                reason.push_str(&format!(" branch {i}: {r};"));
            }
        }
        return Ok(HealthStatus::Compromised { reason });
    }
    let missed = verdicts
        .iter()
        .filter_map(|v| match v {
            HealthStatus::Unreachable { missed } => Some(*missed),
            _ => None,
        })
        .max()
        .unwrap_or(1);
    Ok(HealthStatus::Unreachable { missed })
}
