//! The event seam: after each event [`Cloud::pump`] dispatches, an
//! attached [`Observer`] is handed `&Cloud` and a [`Dispatched`] summary
//! of the event. It sees the cloud between two events, never inside one,
//! and cannot change it. With nothing attached, the seam is one branch.
//!
//! [`Audit`] is the first observer: it runs [`Cloud::audit`] after every
//! event, so a ledger that breaks mid-run and heals by the end is caught
//! at the event that broke it. `monatt-core`'s test builds attach it to
//! every cloud they build.

use super::Cloud;
use crate::session::{CloudEvent, SessionEvent};
use crate::types::NodeId;
use std::fmt;

/// Looks at the cloud after each event it dispatches; attached with
/// [`Cloud::set_observer`].
pub trait Observer: Send {
    /// Called once after `event` is dispatched, with the cloud as the
    /// event left it.
    fn after(&mut self, cloud: &Cloud, event: &Dispatched);
}

/// A public summary of one dispatched event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dispatched {
    /// What happened.
    pub kind: EventKind,
    /// The virtual instant it was dispatched at, microseconds.
    pub at_us: u64,
    /// What it happened to.
    pub subject: Subject,
}

/// The kinds of event the cloud dispatches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A session's record reached its receiver.
    Arrival,
    /// A session's loss-detection timeout fired.
    Retry,
    /// A record delayed past its sender's timeout reached its receiver.
    LateArrival,
    /// A session's measurement window may open.
    WindowOpen,
    /// A session's measurement window closed.
    WindowClose,
    /// A session's processing is paid: its verdict is delivered.
    Complete,
    /// A periodic subscription came due.
    SubscriptionDue,
    /// A node crashed.
    Crash,
    /// A node recovered.
    Recovery,
    /// The Attestation Server's msg-4 coalescing window elapsed.
    Msg4Flush,
}

/// What a dispatched event happened to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Subject {
    /// An attestation session, named by its arena slot and the slot's
    /// generation (a slot is reused by later sessions).
    Session {
        /// The slot.
        slot: u32,
        /// The slot's generation.
        generation: u32,
    },
    /// A periodic subscription, by id.
    Subscription(u64),
    /// A cloud node.
    Node(NodeId),
    /// The Attestation Servers' msg-4 coalescing buffer.
    Msg4Batch,
}

impl Dispatched {
    /// The summary of `event`, dispatched at `at_us`.
    pub(crate) fn of(event: CloudEvent, at_us: u64) -> Self {
        let (kind, subject) = match event {
            CloudEvent::Session { sid, event } => {
                let kind = match event {
                    SessionEvent::Arrival => EventKind::Arrival,
                    SessionEvent::Retry { .. } => EventKind::Retry,
                    SessionEvent::LateArrival { .. } => EventKind::LateArrival,
                    SessionEvent::WindowOpen => EventKind::WindowOpen,
                    SessionEvent::WindowClose => EventKind::WindowClose,
                    SessionEvent::Complete => EventKind::Complete,
                };
                let (slot, generation) = sid.parts();
                (kind, Subject::Session { slot, generation })
            }
            CloudEvent::SubscriptionDue { id } => {
                (EventKind::SubscriptionDue, Subject::Subscription(id))
            }
            CloudEvent::Outage { node, down, .. } => {
                let kind = if down {
                    EventKind::Crash
                } else {
                    EventKind::Recovery
                };
                (kind, Subject::Node(node))
            }
            CloudEvent::Msg4Flush => (EventKind::Msg4Flush, Subject::Msg4Batch),
        };
        Dispatched {
            kind,
            at_us,
            subject,
        }
    }
}

impl fmt::Display for Dispatched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Dispatched {
            kind,
            at_us,
            subject,
        } = self;
        write!(f, "{kind:?} of {subject:?} at {at_us} us")
    }
}

/// The first observer: runs [`Cloud::audit`] after every event and
/// panics at the first broken [`Invariant`](super::Invariant), naming
/// its label (which run), the event and the invariant.
#[derive(Clone, Debug)]
pub struct Audit {
    label: String,
}

impl Audit {
    /// An audit whose failure message starts with `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Audit {
            label: label.into(),
        }
    }
}

impl Observer for Audit {
    fn after(&mut self, cloud: &Cloud, event: &Dispatched) {
        if let Err(broken) = cloud.audit() {
            // Stopping the run at the event that broke a ledger is this
            // observer's whole job; only tests and harnesses attach it.
            // #[allow(monatt::panic_freedom)]
            panic!("{}: {broken} after {event}", self.label);
        }
    }
}

impl Cloud {
    /// Attaches `observer` (or, with `None`, detaches the one attached),
    /// returning the one it replaces. An observer sees every event
    /// dispatched from then on, by [`Cloud::run`] and by the Table-1
    /// calls alike.
    pub fn set_observer(
        &mut self,
        observer: Option<Box<dyn Observer>>,
    ) -> Option<Box<dyn Observer>> {
        std::mem::replace(&mut self.observer, observer)
    }

    /// Hands the attached observer the cloud and `event`, dispatched at
    /// `at_us`.
    pub(super) fn notify(&mut self, event: CloudEvent, at_us: u64) {
        if let Some(mut observer) = self.observer.take() {
            observer.after(self, &Dispatched::of(event, at_us));
            self.observer = Some(observer);
        }
    }
}
