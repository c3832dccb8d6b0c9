//! The attestation protocol messages of Figure 3, with canonical wire
//! encodings. Each message travels inside a [`monatt_net::SecureChannel`]
//! record (the session keys Kx, Ky, Kz).
//!
//! Each message kind carries a *wire-fixed* freshness/quote obligation
//! the receive path always enforces: message 4 echoes N3 under quote
//! Q3, message 5 echoes N2 under Q2, message 6 echoes N1 under Q1.
//! The protocol IR treats these as validated claims, not code — a
//! [`crate::protocol::Protocol`] term may spell them out
//! (`CheckNonce`/`VerifyQuote`) or elide them, but the compiler
//! rejects a term that declares the wrong obligation for a hop
//! (see `crate::protocol::compile`).

use crate::controlplane::RouteTag;
use crate::measurements::{Measurement, MeasurementSpec};
use crate::types::{HealthStatus, SecurityProperty, ServerId, Vid};
use monatt_crypto::schnorr::{Signature, VerifyingKey};
use monatt_net::wire::{Reader, Wire, WireError, Writer};
use monatt_tpm::module::CertificationRequest;
use monatt_tpm::quote::Quote;

impl Wire for SecurityProperty {
    fn encode(&self, w: &mut Writer) {
        match self {
            SecurityProperty::StartupIntegrity => w.put_u8(0),
            SecurityProperty::RuntimeIntegrity => w.put_u8(1),
            SecurityProperty::CovertChannelFreedom => w.put_u8(2),
            SecurityProperty::CpuAvailability { min_share_pct } => {
                w.put_u8(3);
                w.put_u8(*min_share_pct);
            }
            SecurityProperty::SchedulerFairness => w.put_u8(4),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(SecurityProperty::StartupIntegrity),
            1 => Ok(SecurityProperty::RuntimeIntegrity),
            2 => Ok(SecurityProperty::CovertChannelFreedom),
            3 => Ok(SecurityProperty::CpuAvailability {
                min_share_pct: r.get_u8()?,
            }),
            4 => Ok(SecurityProperty::SchedulerFairness),
            d => Err(WireError::InvalidDiscriminant(d)),
        }
    }
}

impl Wire for HealthStatus {
    fn encode(&self, w: &mut Writer) {
        match self {
            HealthStatus::Healthy => w.put_u8(0),
            HealthStatus::Compromised { reason } => {
                w.put_u8(1);
                w.put_str(reason);
            }
            HealthStatus::Unreachable { missed } => {
                w.put_u8(2);
                w.put_u32(*missed);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(HealthStatus::Healthy),
            1 => Ok(HealthStatus::Compromised {
                reason: r.get_str()?,
            }),
            2 => Ok(HealthStatus::Unreachable {
                missed: r.get_u32()?,
            }),
            d => Err(WireError::InvalidDiscriminant(d)),
        }
    }
}

/// Encodes a quote (digest + signature). Free functions because `Quote`
/// and `Wire` both live in other crates (orphan rule).
fn put_quote(w: &mut Writer, quote: &Quote) {
    w.put_fixed(&quote.digest);
    w.put_fixed(&quote.signature.to_bytes());
}

fn get_quote(r: &mut Reader<'_>) -> Result<Quote, WireError> {
    Ok(Quote {
        digest: r.get_fixed()?,
        signature: Signature::from_bytes(&r.get_fixed()?),
    })
}

fn put_cert_request(w: &mut Writer, req: &CertificationRequest) {
    w.put_fixed(&req.attestation_key.to_bytes());
    w.put_fixed(&req.identity_signature.to_bytes());
    w.put_fixed(&req.identity_key.to_bytes());
}

fn get_cert_request(r: &mut Reader<'_>) -> Result<CertificationRequest, WireError> {
    let avk: [u8; 32] = r.get_fixed()?;
    let sig: [u8; 64] = r.get_fixed()?;
    let idk: [u8; 32] = r.get_fixed()?;
    Ok(CertificationRequest {
        attestation_key: VerifyingKey::from_bytes(&avk).map_err(|_| WireError::InvalidKey)?,
        identity_signature: Signature::from_bytes(&sig),
        identity_key: VerifyingKey::from_bytes(&idk).map_err(|_| WireError::InvalidKey)?,
    })
}

/// Message 1 (C → CC): the customer's attestation request
/// `(Vid, P, N1)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CustomerRequest {
    /// The VM to attest.
    pub vid: Vid,
    /// The property to check.
    pub property: SecurityProperty,
    /// Freshness nonce N1.
    pub nonce1: [u8; 32],
}

impl Wire for CustomerRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.vid.0);
        self.property.encode(w);
        w.put_fixed(&self.nonce1);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CustomerRequest {
            vid: Vid(r.get_u64()?),
            property: SecurityProperty::decode(r)?,
            nonce1: r.get_fixed()?,
        })
    }
}

/// Message 2 (CC → AS): the forwarded request `(Vid, I, P, N2)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControllerForward {
    /// The VM to attest.
    pub vid: Vid,
    /// The server hosting it.
    pub server: ServerId,
    /// The property.
    pub property: SecurityProperty,
    /// Freshness nonce N2.
    pub nonce2: [u8; 32],
}

impl Wire for ControllerForward {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.vid.0);
        w.put_u32(self.server.0);
        self.property.encode(w);
        w.put_fixed(&self.nonce2);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ControllerForward {
            vid: Vid(r.get_u64()?),
            server: ServerId(r.get_u32()?),
            property: SecurityProperty::decode(r)?,
            nonce2: r.get_fixed()?,
        })
    }
}

/// Message 3 (AS → CS): the measurement request `(Vid, rM, N3)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasureRequest {
    /// The VM to measure.
    pub vid: Vid,
    /// What to measure (`rM`).
    pub spec: MeasurementSpec,
    /// Freshness nonce N3.
    pub nonce3: [u8; 32],
}

impl Wire for MeasureRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.vid.0);
        self.spec.encode(w);
        w.put_fixed(&self.nonce3);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MeasureRequest {
            vid: Vid(r.get_u64()?),
            spec: MeasurementSpec::decode(r)?,
            nonce3: r.get_fixed()?,
        })
    }
}

/// Message 4 (CS → AS): `[Vid, rM, M, N3, Q3]ASKs` plus the certification
/// request for AVKs.
#[derive(Clone, Debug)]
pub struct MeasureResponse {
    /// The VM measured.
    pub vid: Vid,
    /// Echo of the spec.
    pub spec: MeasurementSpec,
    /// The measurements.
    pub measurement: Measurement,
    /// Echo of N3.
    pub nonce3: [u8; 32],
    /// Quote `Q3` and its ASKs signature.
    pub quote: Quote,
    /// AVKs certification request for the privacy CA.
    pub cert_request: CertificationRequest,
}

impl Wire for MeasureResponse {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.vid.0);
        self.spec.encode(w);
        self.measurement.encode(w);
        w.put_fixed(&self.nonce3);
        put_quote(w, &self.quote);
        put_cert_request(w, &self.cert_request);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MeasureResponse {
            vid: Vid(r.get_u64()?),
            spec: MeasurementSpec::decode(r)?,
            measurement: Measurement::decode(r)?,
            nonce3: r.get_fixed()?,
            quote: get_quote(r)?,
            cert_request: get_cert_request(r)?,
        })
    }
}

/// Message 5 (AS → CC): `[Vid, I, P, R, N2, Q2]SKa`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttestationReportMsg {
    /// The VM attested.
    pub vid: Vid,
    /// The server that supplied measurements.
    pub server: ServerId,
    /// The property checked.
    pub property: SecurityProperty,
    /// The interpretation verdict (`R`).
    pub status: HealthStatus,
    /// Echo of N2.
    pub nonce2: [u8; 32],
    /// Quote `Q2 = H(Vid || I || P || R || N2)` signed with SKa.
    pub quote: Quote,
}

impl Wire for AttestationReportMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.vid.0);
        w.put_u32(self.server.0);
        self.property.encode(w);
        self.status.encode(w);
        w.put_fixed(&self.nonce2);
        put_quote(w, &self.quote);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AttestationReportMsg {
            vid: Vid(r.get_u64()?),
            server: ServerId(r.get_u32()?),
            property: SecurityProperty::decode(r)?,
            status: HealthStatus::decode(r)?,
            nonce2: r.get_fixed()?,
            quote: get_quote(r)?,
        })
    }
}

/// Message 6 (CC → C): `[Vid, P, R, N1, Q1]SKc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CustomerReportMsg {
    /// The VM attested.
    pub vid: Vid,
    /// The property checked.
    pub property: SecurityProperty,
    /// The verdict.
    pub status: HealthStatus,
    /// Echo of N1.
    pub nonce1: [u8; 32],
    /// Quote `Q1 = H(Vid || P || R || N1)` signed with SKc.
    pub quote: Quote,
}

impl Wire for CustomerReportMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.vid.0);
        self.property.encode(w);
        self.status.encode(w);
        w.put_fixed(&self.nonce1);
        put_quote(w, &self.quote);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CustomerReportMsg {
            vid: Vid(r.get_u64()?),
            property: SecurityProperty::decode(r)?,
            status: HealthStatus::decode(r)?,
            nonce1: r.get_fixed()?,
            quote: get_quote(r)?,
        })
    }
}

/// Byte length of an encoded [`RouteTag`] trailer (three `u32`s).
pub const ROUTE_TAG_LEN: usize = 12;

/// Routing metadata for a replicated control plane: which shard,
/// controller instance and AS replica a record was admitted against.
/// Appended as a fixed-size *trailer* after the message encoding —
/// and only when the topology is non-dormant, so the default K=1/N=1
/// wire format (and therefore the payload-length-driven latency model)
/// is byte-identical to the unreplicated cloud.
impl Wire for RouteTag {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.shard);
        w.put_u32(self.controller);
        w.put_u32(self.replica);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RouteTag {
            shard: r.get_u32()?,
            controller: r.get_u32()?,
            replica: r.get_u32()?,
        })
    }
}

/// Appends the fixed-size routing trailer to an encoded message.
pub fn append_route_tag(wire: &mut Vec<u8>, tag: RouteTag) {
    wire.extend_from_slice(&tag.to_wire());
}

/// Splits the routing trailer off a received payload, returning the
/// message body and the decoded tag. `None` if the payload is too
/// short or the trailer does not parse — a misrouted or mangled
/// record, never served.
pub fn split_route_tag(payload: &[u8]) -> Option<(&[u8], RouteTag)> {
    let body_len = payload.len().checked_sub(ROUTE_TAG_LEN)?;
    let (body, trailer) = payload.split_at(body_len);
    let tag = RouteTag::from_wire(trailer).ok()?;
    Some((body, tag))
}

/// The fields covered by quote Q1, in protocol order.
pub fn q1_fields<'a>(
    vid_bytes: &'a [u8],
    property_bytes: &'a [u8],
    status_bytes: &'a [u8],
    nonce1: &'a [u8],
) -> [&'a [u8]; 4] {
    [vid_bytes, property_bytes, status_bytes, nonce1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurements::TaskInfo;

    #[test]
    fn property_roundtrip() {
        for p in [
            SecurityProperty::StartupIntegrity,
            SecurityProperty::RuntimeIntegrity,
            SecurityProperty::CovertChannelFreedom,
            SecurityProperty::CpuAvailability { min_share_pct: 42 },
        ] {
            assert_eq!(SecurityProperty::from_wire(&p.to_wire()).unwrap(), p);
        }
    }

    #[test]
    fn status_roundtrip() {
        for s in [
            HealthStatus::Healthy,
            HealthStatus::Compromised {
                reason: "bad".into(),
            },
            HealthStatus::Unreachable { missed: 3 },
        ] {
            assert_eq!(HealthStatus::from_wire(&s.to_wire()).unwrap(), s);
        }
    }

    #[test]
    fn request_messages_roundtrip() {
        let m1 = CustomerRequest {
            vid: Vid(7),
            property: SecurityProperty::RuntimeIntegrity,
            nonce1: [1; 32],
        };
        assert_eq!(CustomerRequest::from_wire(&m1.to_wire()).unwrap(), m1);
        let m2 = ControllerForward {
            vid: Vid(7),
            server: ServerId(2),
            property: SecurityProperty::CovertChannelFreedom,
            nonce2: [2; 32],
        };
        assert_eq!(ControllerForward::from_wire(&m2.to_wire()).unwrap(), m2);
        let m3 = MeasureRequest {
            vid: Vid(7),
            spec: MeasurementSpec::CpuTime { window_us: 100 },
            nonce3: [3; 32],
        };
        assert_eq!(MeasureRequest::from_wire(&m3.to_wire()).unwrap(), m3);
    }

    #[test]
    fn response_messages_roundtrip() {
        use monatt_crypto::drbg::Drbg;
        use monatt_tpm::module::TrustModule;
        let mut tm = TrustModule::provision(Drbg::from_seed(9));
        let session = tm.begin_attestation();
        let quote = session.quote(&[b"fields"]);
        let m4 = MeasureResponse {
            vid: Vid(1),
            spec: MeasurementSpec::TaskListProbe,
            measurement: Measurement::TaskLists {
                kernel: vec![TaskInfo {
                    pid: 1,
                    name: "init".into(),
                }],
                guest_visible: vec![],
            },
            nonce3: [5; 32],
            quote: quote.clone(),
            cert_request: session.certification_request().clone(),
        };
        let decoded = MeasureResponse::from_wire(&m4.to_wire()).unwrap();
        assert_eq!(decoded.vid, m4.vid);
        assert_eq!(decoded.measurement, m4.measurement);
        assert_eq!(decoded.quote, m4.quote);
        assert!(decoded.cert_request.verify());
        let m5 = AttestationReportMsg {
            vid: Vid(1),
            server: ServerId(0),
            property: SecurityProperty::StartupIntegrity,
            status: HealthStatus::Healthy,
            nonce2: [6; 32],
            quote: quote.clone(),
        };
        assert_eq!(AttestationReportMsg::from_wire(&m5.to_wire()).unwrap(), m5);
        let m6 = CustomerReportMsg {
            vid: Vid(1),
            property: SecurityProperty::StartupIntegrity,
            status: HealthStatus::Compromised {
                reason: "tampered".into(),
            },
            nonce1: [7; 32],
            quote,
        };
        assert_eq!(CustomerReportMsg::from_wire(&m6.to_wire()).unwrap(), m6);
    }

    #[test]
    fn message_4_with_a_key_outside_the_group_is_an_invalid_key() {
        use monatt_crypto::bigint::U256;
        use monatt_crypto::drbg::Drbg;
        use monatt_crypto::group::Group;
        use monatt_tpm::module::TrustModule;
        let mut tm = TrustModule::provision(Drbg::from_seed(9));
        let session = tm.begin_attestation();
        let m4 = MeasureResponse {
            vid: Vid(1),
            spec: MeasurementSpec::TaskListProbe,
            measurement: Measurement::TaskLists {
                kernel: vec![],
                guest_visible: vec![],
            },
            nonce3: [5; 32],
            quote: session.quote(&[b"fields"]),
            cert_request: session.certification_request().clone(),
        };
        let wire = m4.to_wire();
        assert!(MeasureResponse::from_wire(&wire).is_ok());
        let grp = Group::default_group();
        // p ≡ 3 (mod 4), so the negation of a residue is a non-residue.
        let non_residue = grp.p.wrapping_sub(&grp.pow_g(&U256::from_u64(77)));
        let bad_keys = [
            U256::ZERO,
            U256::ONE,
            grp.p.wrapping_sub(&U256::ONE),
            non_residue,
            grp.p,
            U256::MAX,
        ];
        // The certification request closes the message:
        // AVK (32) || signature (64) || identity key (32).
        let avk_at = wire.len() - 128;
        let idk_at = wire.len() - 32;
        for bad in bad_keys {
            for at in [avk_at, idk_at] {
                let mut tampered = wire.clone();
                tampered[at..at + 32].copy_from_slice(&bad.to_be_bytes());
                assert_eq!(
                    MeasureResponse::from_wire(&tampered).err(),
                    Some(WireError::InvalidKey),
                    "key {bad:?} at offset {at}"
                );
            }
        }
    }

    #[test]
    fn route_tag_roundtrips_as_a_trailer() {
        let m1 = CustomerRequest {
            vid: Vid(9),
            property: SecurityProperty::RuntimeIntegrity,
            nonce1: [4; 32],
        };
        let tag = RouteTag {
            shard: 3,
            controller: 5,
            replica: 2,
        };
        let mut wire = m1.to_wire();
        let bare_len = wire.len();
        append_route_tag(&mut wire, tag);
        assert_eq!(wire.len(), bare_len + ROUTE_TAG_LEN);
        let (body, decoded) = split_route_tag(&wire).unwrap();
        assert_eq!(decoded, tag);
        assert_eq!(CustomerRequest::from_wire(body).unwrap(), m1);
        // Too-short payloads are rejected, not sliced out of bounds.
        assert!(split_route_tag(&wire[..ROUTE_TAG_LEN - 1]).is_none());
    }

    #[test]
    fn truncated_messages_rejected() {
        let m1 = CustomerRequest {
            vid: Vid(7),
            property: SecurityProperty::StartupIntegrity,
            nonce1: [1; 32],
        };
        let bytes = m1.to_wire();
        assert!(CustomerRequest::from_wire(&bytes[..bytes.len() - 1]).is_err());
    }
}
