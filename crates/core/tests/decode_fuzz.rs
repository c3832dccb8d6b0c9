//! Decode-robustness tests: protocol message and measurement decoders
//! must reject (never panic on) arbitrary bytes — the attacker controls
//! the network, so every byte of input is adversarial. A message 4 that
//! still decodes after mutation goes on to the Attestation Server's
//! validator, which must judge it the same alone and in a batch.

use monatt_core::attestation::{AttestationServer, BatchValidationItem};
use monatt_core::measurements::{Measurement, MeasurementSpec};
use monatt_core::messages::{
    AttestationReportMsg, ControllerForward, CustomerReportMsg, CustomerRequest, MeasureRequest,
    MeasureResponse,
};
use monatt_core::types::{HealthStatus, Image, SecurityProperty, ServerId, Vid};
use monatt_core::{Check, CloudError, CloudServerNode, MsgKind, ReferenceDb};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::VerifyingKey;
use monatt_hypervisor::driver::IdleDriver;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_net::wire::{EncodeScratch, Wire};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Whether `e` names one of message 4's checks: the vid, spec and
/// nonce echoes, the pCA's certification, or the quote (the nonce and
/// quote as [`MsgKind::obligations`] names them).
fn is_msg4_check(e: &CloudError) -> bool {
    let (quote, nonce) = MsgKind::Msg4.obligations();
    match *e {
        CloudError::ProtocolFailure { check } => match check {
            Check::Vid { .. } | Check::Spec | Check::Certification(_) => true,
            Check::Nonce(slot) => Some(slot) == nonce,
            Check::Quote(kind, _) => Some(kind) == quote,
            _ => false,
        },
        _ => false,
    }
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

/// One registered cloud server's identity key and three genuine message
/// 4s from it — a boot measurement, a task-list probe, a boot
/// measurement — each with the spec and nonce N3 it answers.
type Msg4Fixture = (
    VerifyingKey,
    Vec<(MeasureResponse, MeasurementSpec, [u8; 32])>,
);

fn genuine_msg4s() -> &'static Msg4Fixture {
    static FIXTURE: OnceLock<Msg4Fixture> = OnceLock::new();
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
        let responses = (0u8..)
            .zip(specs)
            .map(|(i, spec)| {
                let nonce3 = [i + 1; 32];
                let response = node.attest(Vid(1), spec, nonce3).expect("hosted VM");
                (response.into(), spec, nonce3)
            })
            .collect();
        (node.identity_key(), responses)
    })
}

proptest! {
    /// No decoder panics on arbitrary input; they return errors.
    #[test]
    fn decoders_never_panic(bytes in arb_bytes()) {
        let _ = CustomerRequest::from_wire(&bytes);
        let _ = ControllerForward::from_wire(&bytes);
        let _ = MeasureRequest::from_wire(&bytes);
        let _ = MeasureResponse::from_wire(&bytes);
        let _ = AttestationReportMsg::from_wire(&bytes);
        let _ = CustomerReportMsg::from_wire(&bytes);
        let _ = Measurement::from_wire(&bytes);
        let _ = MeasurementSpec::from_wire(&bytes);
        let _ = SecurityProperty::from_wire(&bytes);
        let _ = HealthStatus::from_wire(&bytes);
    }

    /// Bit-flipping a valid encoding either still decodes (to a different
    /// value at worst — signatures catch that) or errors; never panics.
    #[test]
    fn bitflipped_messages_never_panic(
        vid in any::<u64>(),
        nonce in any::<[u8; 32]>(),
        flip_at in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let msg = CustomerRequest {
            vid: monatt_core::Vid(vid),
            property: SecurityProperty::RuntimeIntegrity,
            nonce1: nonce,
        };
        let mut bytes = msg.to_wire();
        let idx = flip_at.index(bytes.len());
        bytes[idx] ^= 1 << flip_bit;
        let _ = CustomerRequest::from_wire(&bytes);
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
        let (identity, genuine) = genuine_msg4s();
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
