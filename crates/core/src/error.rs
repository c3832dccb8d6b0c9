//! Error types for the CloudMonatt core.

use crate::controlplane::CUSTOMER_ENDPOINT;
use crate::pca::PcaError;
use crate::protocol::{CompileError, MsgKind, NonceSlot, QuoteKind};
use crate::types::{NodeId, SecurityProperty, ServerId, Vid};
use monatt_net::channel::ChannelError;
use monatt_net::wire::WireError;
use monatt_tpm::quote::QuoteError;
use std::error::Error;
use std::fmt;

/// The receive check a [`CloudError::ProtocolFailure`] names: Figure 3's
/// per-message nonce and quote obligations ([`MsgKind::obligations`]),
/// message 4's vid, spec and certification checks, and the decoding,
/// routing and secure channel beneath every hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// The record did not echo the nonce issued into this slot (a
    /// replay, or a reply to another request).
    Nonce(NonceSlot),
    /// The quote's digest does not cover the record's fields, or its
    /// signature does not verify.
    Quote(QuoteKind, QuoteError),
    /// Message 4 answers for another VM than the one asked about.
    Vid {
        /// The VM the session asked about.
        expected: Vid,
        /// The VM the response names.
        got: Vid,
    },
    /// Message 4 carries another measurement than the one requested.
    Spec,
    /// The pCA refused to certify message 4's attestation key.
    Certification(PcaError),
    /// The record does not decode as the message its hop carries.
    Malformed(MsgKind, WireError),
    /// A record on a replicated control plane lacks its route tag.
    RouteTag,
    /// A record's route tag is not the session's pinned route.
    Misrouted,
    /// Every delivery of a hop failed the receiving channel's check.
    Channel {
        /// The sending link end (`None` is the customer).
        from: Option<NodeId>,
        /// The receiving link end.
        to: Option<NodeId>,
        /// The last delivery's channel failure.
        error: ChannelError,
        /// How many delivery attempts were made.
        attempts: u32,
    },
}

/// The quote a reply carries and the nonce it echoes, as Figure 3's
/// table gives them ([`MsgKind::obligations`]): what its receiver checks.
pub(crate) fn reply_obligations(msg: MsgKind) -> Result<(QuoteKind, NonceSlot), CloudError> {
    match msg.obligations() {
        (Some(quote), Some(nonce)) => Ok((quote, nonce)),
        _ => Err(CloudError::Internal("a request carries no quote")),
    }
}

/// A link end as its secure-channel peer name: the customer, or the node.
pub(crate) struct EndName(pub(crate) Option<NodeId>);

impl fmt::Display for EndName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => f.write_str(CUSTOMER_ENDPOINT),
            Some(node) => write!(f, "{node}"),
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Check::Nonce(slot) => write!(f, "nonce {slot:?} mismatch (possible replay)"),
            Check::Quote(kind, e) => write!(f, "quote {kind:?} verification failed: {e}"),
            Check::Vid { expected, got } => {
                write!(f, "vid mismatch: expected {expected}, got {got}")
            }
            Check::Spec => f.write_str("measurement spec mismatch"),
            Check::Certification(e) => write!(f, "attestation key certification failed: {e}"),
            Check::Malformed(msg, e) => write!(f, "malformed {}: {e}", msg.row().noun),
            Check::RouteTag => f.write_str("record missing control-plane route tag"),
            Check::Misrouted => f.write_str("record misrouted across the control plane"),
            Check::Channel {
                from,
                to,
                error,
                attempts,
            } => write!(
                f,
                "secure channel {}->{}: {error} ({attempts} attempts)",
                EndName(from),
                EndName(to)
            ),
        }
    }
}

/// Errors surfaced by the cloud facade and its components.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CloudError {
    /// No server satisfies the VM's resource and property requirements.
    NoQualifiedServer {
        /// The properties that could not be satisfied.
        requested: Vec<SecurityProperty>,
    },
    /// The VM does not exist (or was terminated).
    UnknownVm(Vid),
    /// The server does not exist.
    UnknownServer(ServerId),
    /// Startup attestation failed; the launch was rejected.
    LaunchRejected {
        /// Why the attestation failed.
        reason: String,
    },
    /// The attestation protocol failed one of its receive checks.
    ProtocolFailure {
        /// Which check failed.
        check: Check,
    },
    /// A protocol term (or the fan-out built from a property list) did
    /// not compile.
    Compile(CompileError),
    /// An invariant of the session machinery broke: a state no caller
    /// or network input reaches, surfaced rather than trusted.
    Internal(&'static str),
    /// A protocol hop could not deliver a message within its retry
    /// budget: the peer is unreachable (or the network is lossy beyond
    /// the retransmit layer's tolerance). Distinct from an unhealthy
    /// attestation verdict — no evidence about the VM was gathered.
    Unreachable {
        /// The link end that could not be reached (`None` is the
        /// customer).
        peer: Option<NodeId>,
        /// How many delivery attempts were made.
        attempts: u32,
    },
    /// The requested property is not monitored on the VM's server.
    PropertyNotSupported {
        /// The unsupported property.
        property: SecurityProperty,
        /// The server lacking support.
        server: ServerId,
    },
    /// No periodic attestation with this id is active.
    UnknownSubscription(u64),
    /// A migration could not find a destination server.
    MigrationFailed {
        /// The VM that could not be migrated.
        vid: Vid,
    },
    /// A protocol entity the session depends on — a cloud server, the
    /// Attestation Server or the Cloud Controller — is crashed. Sessions
    /// touching a down node fail fast with this error instead of
    /// burning the retransmission ladder against a black hole.
    NodeDown {
        /// The crashed entity.
        node: NodeId,
    },
    /// The session's end-to-end deadline budget expired (or the
    /// remaining budget could not cover another retransmission
    /// timeout) before a verdict was reached.
    DeadlineExceeded {
        /// The deadline budget the session was given.
        budget_us: u64,
        /// Latency charged to the session before it was abandoned.
        elapsed_us: u64,
    },
    /// The Attestation Server's admission gate is shedding load: the
    /// sessions-in-flight high-water mark was reached and this session
    /// was rejected at admission rather than queued unboundedly.
    Overloaded {
        /// Sessions in flight when admission was refused.
        in_flight: usize,
    },
    /// Establishing a secure channel between two protocol endpoints
    /// failed while assembling the cloud.
    ChannelEstablishment {
        /// The initiating link end (`None` is the customer).
        initiator: Option<NodeId>,
        /// The responding link end.
        responder: Option<NodeId>,
        /// The underlying handshake failure.
        error: ChannelError,
    },
}

impl From<Check> for CloudError {
    fn from(check: Check) -> Self {
        CloudError::ProtocolFailure { check }
    }
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::NoQualifiedServer { requested } => {
                let names: Vec<String> = requested.iter().map(|p| p.to_string()).collect();
                write!(
                    f,
                    "no qualified server for properties [{}]",
                    names.join(", ")
                )
            }
            CloudError::UnknownVm(vid) => write!(f, "unknown VM {vid}"),
            CloudError::UnknownServer(s) => write!(f, "unknown server {s}"),
            CloudError::LaunchRejected { reason } => write!(f, "VM launch rejected: {reason}"),
            CloudError::ProtocolFailure { check } => {
                write!(f, "attestation protocol failure: {check}")
            }
            CloudError::Compile(e) => write!(f, "protocol did not compile: {e}"),
            CloudError::Internal(what) => write!(f, "internal error: {what}"),
            CloudError::Unreachable { peer, attempts } => write!(
                f,
                "{} unreachable after {attempts} delivery attempts",
                EndName(*peer)
            ),
            CloudError::PropertyNotSupported { property, server } => {
                write!(f, "property {property} not supported on {server}")
            }
            CloudError::UnknownSubscription(id) => {
                write!(f, "no periodic attestation with id {id}")
            }
            CloudError::MigrationFailed { vid } => write!(f, "migration failed for {vid}"),
            CloudError::NodeDown { node } => write!(f, "{node} is down"),
            CloudError::DeadlineExceeded {
                budget_us,
                elapsed_us,
            } => {
                write!(
                    f,
                    "session deadline exceeded: {elapsed_us}us spent of a {budget_us}us budget"
                )
            }
            CloudError::Overloaded { in_flight } => {
                write!(
                    f,
                    "attestation server overloaded: admission refused at {in_flight} sessions in flight"
                )
            }
            CloudError::ChannelEstablishment {
                initiator,
                responder,
                error,
            } => write!(
                f,
                "secure-channel handshake {}<->{} failed: {error}",
                EndName(*initiator),
                EndName(*responder)
            ),
        }
    }
}

impl Error for CloudError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CloudError::NoQualifiedServer {
            requested: vec![SecurityProperty::StartupIntegrity],
        };
        assert!(e.to_string().contains("startup-integrity"));
        assert!(CloudError::UnknownVm(Vid(9)).to_string().contains("vid-9"));
        assert_eq!(
            CloudError::NodeDown {
                node: NodeId::Server(ServerId(2)),
            }
            .to_string(),
            "server-2 is down"
        );
        assert_eq!(
            CloudError::NodeDown {
                node: NodeId::AttestationServer(0),
            }
            .to_string(),
            "attserver is down"
        );
        assert_eq!(
            CloudError::NodeDown {
                node: NodeId::Controller(2),
            }
            .to_string(),
            "controller-2 is down"
        );
        let e = CloudError::DeadlineExceeded {
            budget_us: 1_000,
            elapsed_us: 1_500,
        };
        assert!(e.to_string().contains("1500us"));
        assert!(e.to_string().contains("1000us budget"));
        assert!(CloudError::Overloaded { in_flight: 64 }
            .to_string()
            .contains("64 sessions"));
        // One row per protocol check, as each prints.
        let rows = [
            (
                Check::Nonce(NonceSlot::N3),
                "nonce N3 mismatch (possible replay)",
            ),
            (
                Check::Quote(QuoteKind::Q3, QuoteError::BadSignature),
                "quote Q3 verification failed: quote signature verification failed",
            ),
            (
                Check::Vid {
                    expected: Vid(1),
                    got: Vid(2),
                },
                "vid mismatch: expected vid-1, got vid-2",
            ),
            (Check::Spec, "measurement spec mismatch"),
            (
                Check::Certification(PcaError::UnregisteredServer),
                "attestation key certification failed: server identity key not registered",
            ),
            (
                Check::Malformed(MsgKind::Msg4, WireError::UnexpectedEnd),
                "malformed measure response: unexpected end of input",
            ),
            (Check::RouteTag, "record missing control-plane route tag"),
            (
                Check::Misrouted,
                "record misrouted across the control plane",
            ),
            (
                Check::Channel {
                    from: None,
                    to: Some(NodeId::Controller(0)),
                    error: ChannelError::RecordAuthentication,
                    attempts: 4,
                },
                "secure channel customer->controller: record authentication failed (4 attempts)",
            ),
        ];
        for (check, text) in rows {
            let shown = CloudError::from(check).to_string();
            assert_eq!(shown, format!("attestation protocol failure: {text}"));
        }
        // A failure names its check without growing the error.
        assert!(std::mem::size_of::<CloudError>() <= 56);
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CloudError>();
    }
}
