//! Decode-robustness tests: protocol message and measurement decoders
//! must reject (never panic on) arbitrary bytes — the attacker controls
//! the network, so every byte of input is adversarial. The six Figure-3
//! records come from the message table (`MsgKind::ALL`): each decoder
//! gets random bytes and bit-flipped genuine encodings, and a report
//! (message 5 or 6) that still decodes must be refused with a check its
//! row names. A message 4 that still decodes goes on to the Attestation
//! Server's validator, which must judge it the same alone and in a batch.
//! The routing trailer and the three 32-byte key decoders (Schnorr
//! verifying and bound keys, Diffie-Hellman shares) get the same random
//! bytes, the keys their first 32 zero-padded.

use monatt_core::attestation::{AttestationServer, BatchValidationItem};
use monatt_core::measurements::{Measurement, MeasurementSpec};
use monatt_core::messages::{
    append_route_tag, split_route_tag, AttestationReportMsg, ControllerForward, CustomerReportMsg,
    CustomerRequest, MeasureRequest, MeasureResponse,
};
use monatt_core::types::{HealthStatus, Image, SecurityProperty, ServerId, Vid};
use monatt_core::{
    Check, CloudController, CloudError, CloudServerNode, MsgKind, ReferenceDb, RouteTag,
};
use monatt_crypto::dh::PublicShare;
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::{BoundKey, VerifyingKey};
use monatt_hypervisor::driver::IdleDriver;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_net::wire::{EncodeScratch, Wire};
use proptest::prelude::*;
use std::sync::OnceLock;

const NONCE1: [u8; 32] = [11; 32];
const NONCE2: [u8; 32] = [12; 32];

/// Whether `check` is one `kind`'s row names: its nonce echo or its
/// quote ([`MsgKind::obligations`]).
fn is_row_check(kind: MsgKind, check: Check) -> bool {
    let (quote, nonce) = kind.obligations();
    match check {
        Check::Nonce(slot) => Some(slot) == nonce,
        Check::Quote(q, _) => Some(q) == quote,
        _ => false,
    }
}

/// Whether `e` names one of message 4's checks: its row's nonce and
/// quote, or the vid and spec echoes and the pCA's certification.
fn is_msg4_check(e: &CloudError) -> bool {
    match *e {
        CloudError::ProtocolFailure { check } => {
            matches!(
                check,
                Check::Vid { .. } | Check::Spec | Check::Certification(_)
            ) || is_row_check(MsgKind::Msg4, check)
        }
        _ => false,
    }
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

/// Genuine records and the keys their receivers hold.
struct Fixture {
    /// The registered cloud server's identity key.
    identity: VerifyingKey,
    /// Three message 4s from it — a boot measurement, a task-list probe,
    /// a boot measurement — each with the spec and nonce N3 it answers.
    msg4s: Vec<(MeasureResponse, MeasurementSpec, [u8; 32])>,
    /// The key the controller holds for the Attestation Server.
    attserver_key: VerifyingKey,
    /// The key the customer holds for the controller.
    controller_key: VerifyingKey,
    /// One encoded record per kind, in [`MsgKind::ALL`] order: requests
    /// built as their senders build them, replies as their senders sign
    /// them, under nonces N1, N2 and the task-list probe's N3.
    records: Vec<(MsgKind, Vec<u8>)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut node = CloudServerNode::boot(
            ServerId(0),
            1,
            SchedParams::default(),
            Drbg::from_seed(41),
            ReferenceDb::new().platform_components(),
            &[
                SecurityProperty::StartupIntegrity,
                SecurityProperty::RuntimeIntegrity,
            ],
        );
        let image = Image::Cirros;
        node.launch_vm(
            Vid(1),
            image,
            image.pristine_bytes(),
            vec![Box::new(IdleDriver)],
            256,
        );
        let specs = [
            MeasurementSpec::BootIntegrity,
            MeasurementSpec::TaskListProbe,
            MeasurementSpec::BootIntegrity,
        ];
        let msg4s: Vec<_> = (0u8..)
            .zip(specs)
            .map(|(i, spec)| {
                let nonce3 = [i + 1; 32];
                let response = node.attest(Vid(1), spec, nonce3).expect("hosted VM");
                (response, spec, nonce3)
            })
            .collect();
        let attserver = AttestationServer::new(&mut Drbg::from_seed(42));
        let controller = CloudController::new(&mut Drbg::from_seed(43));
        let (vid, server, property) = (Vid(1), ServerId(0), SecurityProperty::RuntimeIntegrity);
        let status = HealthStatus::Compromised {
            reason: "hidden task".into(),
        };
        let (msg4, _, nonce3) = &msg4s[1];
        let records = MsgKind::ALL
            .into_iter()
            .map(|kind| {
                let wire = match kind {
                    MsgKind::Msg1 => CustomerRequest {
                        vid,
                        property,
                        nonce1: NONCE1,
                    }
                    .to_wire(),
                    MsgKind::Msg2 => ControllerForward {
                        vid,
                        server,
                        property,
                        nonce2: NONCE2,
                    }
                    .to_wire(),
                    MsgKind::Msg3 => attserver
                        .build_measure_request(vid, property, *nonce3)
                        .to_wire(),
                    MsgKind::Msg4 => msg4.to_wire(),
                    MsgKind::Msg5 => attserver
                        .certify_report(vid, server, property, status.clone(), NONCE2)
                        .to_wire(),
                    MsgKind::Msg6 => controller
                        .certify_customer_report(vid, property, status.clone(), NONCE1)
                        .to_wire(),
                };
                (kind, wire)
            })
            .collect();
        Fixture {
            identity: node.identity_key(),
            msg4s,
            attserver_key: attserver.identity_key(),
            controller_key: controller.identity_key(),
            records,
        }
    })
}

/// What `kind`'s receiver makes of `bytes`: `None` if they do not decode.
/// A report that decodes goes on to its receiver's nonce and quote
/// checks; any other record that decodes is `Some(Ok(()))` here
/// (message 4's validator has its own property below).
fn receive(kind: MsgKind, bytes: &[u8]) -> Option<Result<(), CloudError>> {
    let f = fixture();
    let scratch = &mut EncodeScratch::new();
    match kind {
        MsgKind::Msg1 => CustomerRequest::from_wire(bytes).ok().map(|_| Ok(())),
        MsgKind::Msg2 => ControllerForward::from_wire(bytes).ok().map(|_| Ok(())),
        MsgKind::Msg3 => MeasureRequest::from_wire(bytes).ok().map(|_| Ok(())),
        MsgKind::Msg4 => MeasureResponse::from_wire(bytes).ok().map(|_| Ok(())),
        MsgKind::Msg5 => AttestationReportMsg::from_wire(bytes).ok().map(|m| {
            AttestationServer::verify_report_msg_with(&m, &f.attserver_key, NONCE2, scratch)
        }),
        MsgKind::Msg6 => CustomerReportMsg::from_wire(bytes).ok().map(|m| {
            CloudController::verify_customer_report_with(&m, &f.controller_key, NONCE1, scratch)
        }),
    }
}

/// The fixture's records are genuine: each decodes, and each report
/// passes its receiver's checks — so a refused mutant was refused for
/// the mutation.
#[test]
fn genuine_records_are_received() {
    let records = &fixture().records;
    assert_eq!(records.len(), MsgKind::ALL.len());
    for (kind, wire) in records {
        assert_eq!(receive(*kind, wire), Some(Ok(())), "{kind}");
    }
}

proptest! {
    /// No decoder panics on arbitrary input; they return errors.
    #[test]
    fn decoders_never_panic(bytes in arb_bytes()) {
        for kind in MsgKind::ALL {
            let _ = receive(kind, &bytes);
        }
        let _ = Measurement::from_wire(&bytes);
        let _ = MeasurementSpec::from_wire(&bytes);
        let _ = SecurityProperty::from_wire(&bytes);
        let _ = HealthStatus::from_wire(&bytes);
        let _ = split_route_tag(&bytes);
        let mut key = [0u8; 32];
        let n = bytes.len().min(32);
        key[..n].copy_from_slice(&bytes[..n]);
        let _ = VerifyingKey::from_bytes(&key);
        let _ = BoundKey::from_bytes(&key);
        let _ = PublicShare::from_bytes(&key);
    }

    /// The routing trailer splits off exactly what was appended, for any
    /// body and any tag.
    #[test]
    fn route_tags_split_off_what_was_appended(
        body in arb_bytes(),
        shard in any::<u32>(),
        controller in any::<u32>(),
        replica in any::<u32>(),
    ) {
        let tag = RouteTag { shard, controller, replica };
        let mut wire = body.clone();
        append_route_tag(&mut wire, tag);
        prop_assert_eq!(split_route_tag(&wire), Some((&body[..], tag)));
    }

    /// Bit-flipping a genuine encoding of each record either still
    /// decodes or errors, and never panics. A report that still decodes
    /// differs from the one signed, so its receiver refuses it with a
    /// check its row names: the nonce echo or the quote.
    #[test]
    fn bitflipped_records_never_panic_and_reports_are_refused(
        flip_at in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        for (kind, genuine) in &fixture().records {
            let mut bytes = genuine.clone();
            let at = flip_at.index(bytes.len());
            bytes[at] ^= 1 << flip_bit;
            let verdict = receive(*kind, &bytes);
            if !matches!(kind, MsgKind::Msg5 | MsgKind::Msg6) {
                continue;
            }
            if let Some(verdict) = verdict {
                let refused = match verdict {
                    Err(CloudError::ProtocolFailure { check }) => is_row_check(*kind, check),
                    _ => false,
                };
                prop_assert!(refused, "{kind}: {verdict:?}");
            }
        }
    }

    /// A message 4 mutated on the wire that still decodes is judged the
    /// same by the validator alone and among genuine batch-mates: both
    /// accept it, or both reject it with the same message-4 check; its
    /// batch-mates pass either way, and nothing panics.
    #[test]
    fn mutated_msg4s_get_one_verdict_alone_or_batched(
        target in 0usize..3,
        flips in proptest::collection::vec((any::<proptest::sample::Index>(), 1u8..=255), 1..4),
    ) {
        let Fixture { identity, msg4s: genuine, .. } = fixture();
        let (response, spec, nonce3) = &genuine[target];
        let mut bytes = response.to_wire();
        for (at, mask) in &flips {
            let at = at.index(bytes.len());
            bytes[at] ^= mask;
        }
        let mutant = MeasureResponse::from_wire(&bytes);
        prop_assume!(mutant.is_ok());
        let mutant = mutant.unwrap();
        let mut attserver = AttestationServer::new(&mut Drbg::from_seed(40));
        attserver.register_cloud_server(*identity);
        let scratch = &mut EncodeScratch::new();
        let alone = attserver.validate_response_with(&mutant, Vid(1), *spec, *nonce3, scratch);
        let items: Vec<BatchValidationItem<'_>> = genuine
            .iter()
            .enumerate()
            .map(|(i, (genuine, spec, nonce3))| BatchValidationItem {
                response: if i == target { &mutant } else { genuine },
                expected_vid: Vid(1),
                expected_spec: *spec,
                expected_nonce3: *nonce3,
            })
            .collect();
        let batch = attserver.validate_response_batch(&items, scratch);
        prop_assert_eq!(&batch[target], &alone);
        if let Err(e) = &alone {
            prop_assert!(is_msg4_check(e), "{e:?}");
        }
        for (i, verdict) in batch.iter().enumerate() {
            prop_assert!(i == target || verdict.is_ok(), "mate {i}: {verdict:?}");
        }
    }

    /// Valid property/status values always roundtrip.
    #[test]
    fn property_roundtrip(pct in any::<u8>()) {
        let p = SecurityProperty::CpuAvailability { min_share_pct: pct };
        prop_assert_eq!(SecurityProperty::from_wire(&p.to_wire()).unwrap(), p);
    }

    /// Health statuses with arbitrary reason strings roundtrip.
    #[test]
    fn status_roundtrip(reason in ".*") {
        let s = HealthStatus::Compromised { reason: reason.clone() };
        prop_assert_eq!(HealthStatus::from_wire(&s.to_wire()).unwrap(), s);
    }
}
