//! The attestation-protocol IR: Figure 3 (and its variants) as data.
//!
//! Figure 3's message table ([`MsgKind::row`]) fixes everything about
//! each record: its endpoints, its channel, its fields, the nonce a
//! request draws and the nonce and quote a reply carries. A [`Protocol`]
//! says only what the table cannot: which records a program sends, in
//! which order ([`Step::Hop`]), which sub-protocols it runs in parallel
//! at the appraiser ([`Step::Fork`]), and where a delegated verdict
//! gates what follows ([`Step::Gate`]) — the Copland idea of protocols
//! as terms run by an interpreter, applied to CloudMonatt's message
//! flow. The measurement window and the completion follow from the
//! hops and are the compiler's.
//!
//! Terms are *compiled* ([`crate::protocol::compile`]) to a flat op
//! list interpreted by the session layer; nothing here executes.

use crate::types::SecurityProperty;

/// Which Figure-3 record a hop puts on the wire. The kind fixes the
/// endpoints (customer ↔ controller ↔ AS ↔ server), the secure channel
/// and the wire format ([`MsgKind::row`]); the IR composes hops, it
/// does not redefine them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Customer → controller attestation request (carries N1).
    Msg1 = 1,
    /// Controller → Attestation Server forward (carries N2).
    Msg2,
    /// Attestation Server → cloud server measurement request (N3).
    Msg3,
    /// Cloud server → Attestation Server measurement response + quote
    /// Q3 (echoes N3).
    Msg4,
    /// Attestation Server → controller property report + quote Q2
    /// (echoes N2).
    Msg5,
    /// Controller → customer report + quote Q1 (echoes N1).
    Msg6,
}

/// A value a Figure-3 record carries ahead of its nonce, named as in
/// the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    /// `Vid`: the VM.
    Vid,
    /// `I`: the cloud server hosting it.
    Server,
    /// `P`: the security property.
    Property,
    /// `rM`: the measurement spec.
    Spec,
    /// `M`: the measurements.
    Measurement,
    /// `R`: the verdict.
    Report,
}

/// One row of Figure 3's message table ([`MsgKind::row`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRow {
    /// The secure channel the record crosses.
    pub channel: Channel,
    /// Whether the record is the reply travelling back from the
    /// channel's responder.
    pub reply: bool,
    /// What the record carries ahead of its nonce, in wire order. A
    /// reply's quote covers exactly these, then the nonce.
    pub fields: &'static [Field],
    /// What [`crate::Check::Malformed`] calls the record.
    pub noun: &'static str,
}

impl MsgKind {
    /// The six records, in message order.
    pub const ALL: [MsgKind; 6] = [
        MsgKind::Msg1,
        MsgKind::Msg2,
        MsgKind::Msg3,
        MsgKind::Msg4,
        MsgKind::Msg5,
        MsgKind::Msg6,
    ];

    /// The Figure-3 message number, used to index the per-message
    /// processing charge ([`crate::latency::LatencyParams::post_hop_us`]).
    pub fn number(self) -> u8 {
        self as u8
    }

    /// Figure 3 as a table: the one place that says what each record
    /// carries. The compiler, the interpreter, the error text and the
    /// symbolic verifier read it; the codec and the quotes
    /// (`crate::messages`) are pinned to it by `tests/message_table.rs`.
    /// Nonce and quote follow from the channel and the direction
    /// ([`MsgKind::issues`], [`MsgKind::obligations`]).
    pub const fn row(self) -> MsgRow {
        use Channel::{Kx, Ky, Kz};
        use Field::{Measurement, Property, Report, Server, Spec, Vid};
        let (channel, reply, fields, noun): (Channel, bool, &'static [Field], _) = match self {
            MsgKind::Msg1 => (Kx, false, &[Vid, Property], "request"),
            MsgKind::Msg2 => (Ky, false, &[Vid, Server, Property], "forward"),
            MsgKind::Msg3 => (Kz, false, &[Vid, Spec], "measure request"),
            MsgKind::Msg4 => (Kz, true, &[Vid, Spec, Measurement], "measure response"),
            MsgKind::Msg5 => (Ky, true, &[Vid, Server, Property, Report], "report"),
            MsgKind::Msg6 => (Kx, true, &[Vid, Property, Report], "customer report"),
        };
        MsgRow {
            channel,
            reply,
            fields,
            noun,
        }
    }

    /// The nonce a request issues: its channel's, drawn immediately
    /// before the record is built. A reply issues none.
    pub fn issues(self) -> Option<NonceSlot> {
        let row = self.row();
        (!row.reply).then_some(row.channel.carries().0)
    }

    /// The receive obligations: a reply carries its channel's quote and
    /// echoes its channel's nonce, and the interpreter always checks
    /// both; a request carries neither.
    pub fn obligations(self) -> (Option<QuoteKind>, Option<NonceSlot>) {
        let row = self.row();
        let (nonce, quote) = row.channel.carries();
        if row.reply {
            (Some(quote), Some(nonce))
        } else {
            (None, None)
        }
    }
}

/// Figure 3's three secure channels, named by their session keys. The
/// initiator sends the requests, the responder the replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// Customer → controller.
    Kx,
    /// Controller → Attestation Server.
    Ky,
    /// Attestation Server → cloud server.
    Kz,
}

impl Channel {
    /// The nonce the channel's request issues and its reply echoes, and
    /// the quote the reply carries: Kx, Ky, Kz carry N1/Q1, N2/Q2, N3/Q3.
    pub fn carries(self) -> (NonceSlot, QuoteKind) {
        match self {
            Channel::Kx => (NonceSlot::N1, QuoteKind::Q1),
            Channel::Ky => (NonceSlot::N2, QuoteKind::Q2),
            Channel::Kz => (NonceSlot::N3, QuoteKind::Q3),
        }
    }
}

impl std::fmt::Display for MsgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg{}", self.number())
    }
}

/// The three nonce registers of Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonceSlot {
    /// N1: customer ↔ controller freshness.
    N1,
    /// N2: controller ↔ Attestation Server freshness.
    N2,
    /// N3: Attestation Server ↔ cloud server freshness.
    N3,
}

/// The three signed quotes of Figure 3, innermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuoteKind {
    /// Q3: the cloud server's measurement quote (message 4).
    Q3,
    /// Q2: the Attestation Server's property-report quote (message 5).
    Q2,
    /// Q1: the controller's customer-report quote (message 6).
    Q1,
}

/// One branch of a [`Step::Fork`]: a sub-protocol run as its own
/// session on behalf of the enclosing one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Branch {
    /// The security property the branch attests. `None` inherits the
    /// enclosing session's property; a fan-out sets one per branch.
    pub property: Option<SecurityProperty>,
    /// The branch body. Must be appraiser-side (no customer hops, no
    /// forks): it may start at message 2 (a full delegated appraisal)
    /// or at message 3 (a measurement-only branch).
    pub body: Protocol,
}

/// One step of a [`Protocol`]. See [`crate::protocol::compile`] for
/// what each lowers to and where it may stand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Put one Figure-3 record on the wire and wait for its receive
    /// processing at the far end. Its nonce draw and its receive checks
    /// are the table's ([`MsgKind::issues`], [`MsgKind::obligations`]),
    /// and a message-3 hop is followed by the measurement window.
    Hop(MsgKind),
    /// Run every branch as a delegated child session concurrently
    /// (`b1 || b2 || …`); the parent parks until all complete and
    /// resumes with the combined verdict (healthy iff every branch is
    /// healthy). One branch is a delegation.
    Fork(Vec<Branch>),
    /// Branch on the preceding one-branch fork's verdict: healthy falls
    /// through to the next step; unhealthy skips straight to the
    /// report-certification tail (the message-5 hop), so the appraiser
    /// still certifies the negative verdict instead of measuring a
    /// platform it no longer trusts.
    Gate,
}

/// An attestation-protocol term: its steps, in order. The program
/// completes after its last step with the verdict that step produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Protocol(pub Vec<Step>);

impl Protocol {
    /// The flat Figure-3 customer exchange, messages 1–6 — the default
    /// program every Table-1 API runs.
    pub fn figure3_customer() -> Protocol {
        Protocol(MsgKind::ALL.map(Step::Hop).to_vec())
    }

    /// The controller-internal Figure-3 exchange, messages 2–5 — the
    /// launch pipeline's attestation stage (no customer endpoint).
    pub fn figure3_internal() -> Protocol {
        use MsgKind::{Msg2, Msg3, Msg4, Msg5};
        Protocol([Msg2, Msg3, Msg4, Msg5].map(Step::Hop).to_vec())
    }

    /// Layered attestation: appraise the hosting platform first (a
    /// delegated messages-2–5 exchange for
    /// [`SecurityProperty::StartupIntegrity`], i.e. the VMM/hypervisor
    /// boot chain), and only if that verdict is healthy measure the VM
    /// itself for the requested property — the VM's VMI quote is
    /// gated on the platform's. An unhealthy platform skips the VM
    /// measurement and certifies the negative verdict directly.
    pub fn layered(platform_property: SecurityProperty) -> Protocol {
        use MsgKind::{Msg1, Msg2, Msg3, Msg4, Msg5, Msg6};
        let platform = Branch {
            property: Some(platform_property),
            body: Protocol::figure3_internal(),
        };
        Protocol(vec![
            Step::Hop(Msg1),
            Step::Hop(Msg2),
            Step::Fork(vec![platform]),
            Step::Gate,
            Step::Hop(Msg3),
            Step::Hop(Msg4),
            Step::Hop(Msg5),
            Step::Hop(Msg6),
        ])
    }

    /// Multi-property fan-out: one customer session measures every
    /// property in `properties` through parallel measurement branches
    /// (each a messages-3–4 exchange with its own window and quote),
    /// then certifies one combined report — healthy iff every branch
    /// is healthy.
    pub fn fanout(properties: &[SecurityProperty]) -> Protocol {
        use MsgKind::{Msg1, Msg2, Msg3, Msg4, Msg5, Msg6};
        let branches = properties
            .iter()
            .map(|&p| Branch {
                property: Some(p),
                body: Protocol(vec![Step::Hop(Msg3), Step::Hop(Msg4)]),
            })
            .collect();
        Protocol(vec![
            Step::Hop(Msg1),
            Step::Hop(Msg2),
            Step::Fork(branches),
            Step::Hop(Msg5),
            Step::Hop(Msg6),
        ])
    }
}
