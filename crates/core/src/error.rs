//! Error types for the CloudMonatt core.

use crate::types::{NodeId, SecurityProperty, ServerId, Vid};
use monatt_net::channel::ChannelError;
use std::error::Error;
use std::fmt;

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
    /// The attestation protocol failed (signature, quote or nonce check).
    ProtocolFailure {
        /// Which check failed.
        reason: String,
    },
    /// A protocol hop could not deliver a message within its retry
    /// budget: the peer is unreachable (or the network is lossy beyond
    /// the retransmit layer's tolerance). Distinct from an unhealthy
    /// attestation verdict — no evidence about the VM was gathered.
    Unreachable {
        /// The endpoint that could not be reached.
        peer: String,
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
        /// The initiating endpoint.
        initiator: String,
        /// The responding endpoint.
        responder: String,
        /// The underlying handshake failure.
        error: ChannelError,
    },
}

impl CloudError {
    /// A [`CloudError::ProtocolFailure`] naming the failed check.
    pub(crate) fn protocol(reason: impl Into<String>) -> Self {
        CloudError::ProtocolFailure {
            reason: reason.into(),
        }
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
            CloudError::ProtocolFailure { reason } => {
                write!(f, "attestation protocol failure: {reason}")
            }
            CloudError::Unreachable { peer, attempts } => {
                write!(f, "{peer} unreachable after {attempts} delivery attempts")
            }
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
            } => {
                write!(
                    f,
                    "secure-channel handshake {initiator}<->{responder} failed: {error}"
                )
            }
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
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CloudError>();
    }
}
