//! The attestation-protocol IR: Figure 3 (and its variants) as data.
//!
//! A [`Protocol`] term describes one attestation exchange the way the
//! paper draws it — a sequence of message hops between the customer,
//! the Cloud Controller, the Attestation Server and a cloud server,
//! with nonce freshness, quote verification and the measurement window
//! made explicit. Terms compose sequentially ([`Protocol::Seq`], the
//! paper's `;`) and in parallel ([`Protocol::Par`], `||`), and a term
//! can delegate a whole sub-protocol to the appraiser
//! ([`Protocol::Delegate`]) and gate what follows on its verdict
//! ([`Protocol::Gate`]) — the Copland idea of protocols as terms run by
//! an interpreter, applied to CloudMonatt's message flow.
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

/// One parallel branch of a [`Protocol::Par`] term, or the body of a
/// [`Protocol::Delegate`]: a sub-protocol run as its own session on
/// behalf of the enclosing one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Branch {
    /// The security property the branch attests. `None` inherits the
    /// enclosing session's property; a fan-out sets one per branch.
    pub property: Option<SecurityProperty>,
    /// The branch body. Must be appraiser-side (no customer hops):
    /// it may start at message 2 (a full delegated appraisal) or at
    /// message 3 (a measurement-only branch).
    pub body: Protocol,
}

/// An attestation-protocol term. See the module docs for the grammar;
/// [`crate::protocol::compile`] for what each construct lowers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Put one Figure-3 record on the wire and wait for its receive
    /// processing (decode, the wire-fixed nonce/quote checks, register
    /// writes) at the far end.
    Hop(MsgKind),
    /// Declare that the next hop draws a fresh nonce into `slot`. The
    /// draw is wire-fixed ([`MsgKind::issues`]): the interpreter always
    /// makes it immediately before building that hop's record. The
    /// compiler checks the claim like [`Protocol::CheckNonce`], but a
    /// request's hop may not elide it.
    IssueNonce(NonceSlot),
    /// Declare that the message just received must echo `slot`. The
    /// check itself is wire-fixed — the interpreter always enforces it
    /// — so the compiler *validates* the claim against the preceding
    /// hop's message kind and rejects a program that declares the
    /// wrong obligation.
    CheckNonce(NonceSlot),
    /// Declare that the message just received carries `quote` and that
    /// it must verify. Validated like [`Protocol::CheckNonce`].
    VerifyQuote(QuoteKind),
    /// Run the measurement window on the target server (serialized
    /// per server), then measure and quote. Must sit between the
    /// message-3 and message-4 hops.
    Window,
    /// Sequential composition: `p1 ; p2 ; …`.
    Seq(Vec<Protocol>),
    /// Parallel composition: every branch runs as a delegated child
    /// session concurrently (`b1 || b2 || …`); the parent parks until
    /// all branches complete and resumes with the combined verdict
    /// (healthy iff every branch is healthy).
    Par(Vec<Branch>),
    /// Delegate one sub-protocol to the appraiser: the branch runs as
    /// a child session; the parent parks until it completes and
    /// resumes with the child's verdict in its status register.
    Delegate(Box<Branch>),
    /// Branch on the preceding delegation's verdict: healthy falls
    /// through to the next step; unhealthy skips straight to the
    /// report-certification tail (the message-5 hop), so the appraiser
    /// still certifies the negative verdict instead of measuring a
    /// platform it no longer trusts.
    Gate,
    /// Deliver the session verdict after the final processing charge.
    /// Every program ends with exactly one `Complete`.
    Complete,
}

impl Protocol {
    /// The flat Figure-3 customer exchange, messages 1–6 — the default
    /// program every Table-1 API runs.
    pub fn figure3_customer() -> Protocol {
        Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N1),
            Protocol::Hop(MsgKind::Msg1),
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::IssueNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg3),
            Protocol::Window,
            Protocol::Hop(MsgKind::Msg4),
            Protocol::VerifyQuote(QuoteKind::Q3),
            Protocol::CheckNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg5),
            Protocol::VerifyQuote(QuoteKind::Q2),
            Protocol::CheckNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg6),
            Protocol::VerifyQuote(QuoteKind::Q1),
            Protocol::CheckNonce(NonceSlot::N1),
            Protocol::Complete,
        ])
    }

    /// The controller-internal Figure-3 exchange, messages 2–5 — the
    /// launch pipeline's attestation stage (no customer endpoint).
    pub fn figure3_internal() -> Protocol {
        Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::IssueNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg3),
            Protocol::Window,
            Protocol::Hop(MsgKind::Msg4),
            Protocol::VerifyQuote(QuoteKind::Q3),
            Protocol::CheckNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg5),
            Protocol::VerifyQuote(QuoteKind::Q2),
            Protocol::CheckNonce(NonceSlot::N2),
            Protocol::Complete,
        ])
    }

    /// Layered attestation: appraise the hosting platform first (a
    /// delegated messages-2–5 exchange for
    /// [`SecurityProperty::StartupIntegrity`], i.e. the VMM/hypervisor
    /// boot chain), and only if that verdict is healthy measure the VM
    /// itself for the requested property — the VM's VMI quote is
    /// gated on the platform's. An unhealthy platform skips the VM
    /// measurement and certifies the negative verdict directly.
    pub fn layered(platform_property: SecurityProperty) -> Protocol {
        Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N1),
            Protocol::Hop(MsgKind::Msg1),
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::Delegate(Box::new(Branch {
                property: Some(platform_property),
                body: Protocol::figure3_internal(),
            })),
            Protocol::Gate,
            Protocol::IssueNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg3),
            Protocol::Window,
            Protocol::Hop(MsgKind::Msg4),
            Protocol::VerifyQuote(QuoteKind::Q3),
            Protocol::CheckNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg5),
            Protocol::VerifyQuote(QuoteKind::Q2),
            Protocol::CheckNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg6),
            Protocol::VerifyQuote(QuoteKind::Q1),
            Protocol::CheckNonce(NonceSlot::N1),
            Protocol::Complete,
        ])
    }

    /// Multi-property fan-out: one customer session measures every
    /// property in `properties` through parallel measurement branches
    /// (each a messages-3–4 exchange with its own window and quote),
    /// then certifies one combined report — healthy iff every branch
    /// is healthy.
    pub fn fanout(properties: &[SecurityProperty]) -> Protocol {
        let branches = properties
            .iter()
            .map(|&p| Branch {
                property: Some(p),
                body: Protocol::Seq(vec![
                    Protocol::IssueNonce(NonceSlot::N3),
                    Protocol::Hop(MsgKind::Msg3),
                    Protocol::Window,
                    Protocol::Hop(MsgKind::Msg4),
                    Protocol::VerifyQuote(QuoteKind::Q3),
                    Protocol::CheckNonce(NonceSlot::N3),
                    Protocol::Complete,
                ]),
            })
            .collect();
        Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N1),
            Protocol::Hop(MsgKind::Msg1),
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::Par(branches),
            Protocol::Hop(MsgKind::Msg5),
            Protocol::VerifyQuote(QuoteKind::Q2),
            Protocol::CheckNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg6),
            Protocol::VerifyQuote(QuoteKind::Q1),
            Protocol::CheckNonce(NonceSlot::N1),
            Protocol::Complete,
        ])
    }
}
