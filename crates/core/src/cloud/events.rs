//! The event side of [`Cloud`](super::Cloud): the wall clock, the
//! event queue, the in-flight session arena, the run horizon and the
//! per-session deadline budget.
//!
//! Everything time-driven in the cloud — message deliveries,
//! retransmission timeouts, measurement-window closings, periodic
//! subscription firings, node crashes and recoveries, msg-4 batch
//! flushes — is one entry in one `(due_us, seq)`-ordered
//! [`EventQueue`], popped by one thread. The cloud's other threads
//! verify signatures and catch up busy servers; they never dispatch.
//!
//! Nothing else schedules or pops. [`Events::schedule_session`] is the
//! one place a session event is built, and [`Events::pop`] the one
//! place the queue is drained — it moves the clock to the popped
//! instant, so "dispatch advances time only by popping" holds by
//! construction.

use monatt_hypervisor::queue::EventQueue;

use crate::error::CloudError;
use crate::session::{
    lost_session, AttestSession, CloudEvent, SessionArena, SessionEvent, SessionId,
};

/// Clock, queue and session table. See the module docs.
pub(crate) struct Events {
    /// Cloud wall clock, microseconds.
    now_us: u64,
    /// The discrete-event queue every time-driven step goes through.
    /// Its high-water depth is `ProtocolStats::max_queue_depth`.
    queue: EventQueue<u64, CloudEvent>,
    /// In-flight attestation sessions: a slab arena whose slots retain
    /// their buffers across sessions (see [`crate::arena`]).
    pub(crate) sessions: SessionArena,
    /// While [`Cloud::run`](super::Cloud::run) drains the queue, the
    /// horizon past which no new subscription firing or outage
    /// transition is scheduled.
    pub(crate) horizon: Option<u64>,
    /// End-to-end deadline budget applied to every new session, if any.
    pub(crate) deadline_us: Option<u64>,
    /// Reusable buffer for the record a transmit delivers (the wire
    /// bytes between seal and open). One message is in flight per
    /// transmit resolution, so a single cloud-wide buffer suffices.
    pub(crate) record_scratch: Vec<u8>,
    /// Reusable buffer ping-ponged with a session's `inbox` while the
    /// delivered plaintext is dispatched (see `Cloud::step_arrival`).
    pub(crate) inbox_scratch: Vec<u8>,
}

impl Events {
    pub(crate) fn new(deadline_us: Option<u64>) -> Self {
        Events {
            now_us: 0,
            queue: EventQueue::new(),
            sessions: SessionArena::new(),
            horizon: None,
            deadline_us,
            record_scratch: Vec::new(),
            inbox_scratch: Vec::new(),
        }
    }

    /// Current cloud wall-clock time in microseconds.
    pub(crate) fn now(&self) -> u64 {
        self.now_us
    }

    /// Moves the clock forward by `duration_us` — scenario-boundary
    /// advances and charged management work. Event dispatch moves it
    /// through [`Events::pop`] instead.
    pub(crate) fn advance(&mut self, duration_us: u64) {
        self.now_us += duration_us;
    }

    /// Schedules an event. An instant already past fires "now", after
    /// anything already due (see [`Events::pop`]).
    pub(crate) fn schedule(&mut self, due_us: u64, event: CloudEvent) {
        self.queue.schedule(due_us, event);
    }

    /// Schedules a session-step event.
    pub(crate) fn schedule_session(&mut self, due_us: u64, sid: SessionId, event: SessionEvent) {
        self.schedule(due_us, CloudEvent::Session { sid, event });
    }

    /// Pops the next event and moves the clock to its due instant (a
    /// no-op if the clock is already there or past — events scheduled
    /// "in the past" fire at the current time). Only the wall clock
    /// moves; server simulators catch up lazily at their next touch
    /// point, so dispatching an event costs O(1) in fleet size.
    pub(crate) fn pop(&mut self) -> Option<CloudEvent> {
        let (due_us, event) = self.queue.pop()?;
        self.now_us = self.now_us.max(due_us);
        Some(event)
    }

    /// Whether `sid` has nothing left to wait for: its outcome is
    /// parked for an API pump, or the session is gone.
    pub(crate) fn settled(&self, sid: SessionId) -> bool {
        self.sessions.get(sid).is_none_or(|s| s.pending.is_some())
    }

    /// The live session behind `sid`.
    pub(crate) fn session(&self, sid: SessionId) -> Result<&AttestSession, CloudError> {
        self.sessions.get(sid).ok_or_else(lost_session)
    }

    /// Mutable access to the live session behind `sid`.
    pub(crate) fn session_mut(&mut self, sid: SessionId) -> Result<&mut AttestSession, CloudError> {
        self.sessions.get_mut(sid).ok_or_else(lost_session)
    }

    /// High-water mark of the events pending since construction or the
    /// last [`Events::reset_max_depth`].
    pub(crate) fn max_depth(&self) -> usize {
        self.queue.max_depth()
    }

    /// Restarts the queue-depth high-water mark from the events pending
    /// now.
    pub(crate) fn reset_max_depth(&mut self) {
        self.queue.reset_max_depth();
    }
}
