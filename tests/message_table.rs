//! The message table (`MsgKind::row`) against the codec and the quotes.
//!
//! For every Figure-3 record, a genuine instance is built the way its
//! sender builds it, through the public API. Its encoding must be exactly
//! its row's fields (each in its own encoding, in row order), then its
//! nonce, then, for a reply, its quote, then message 4's certification
//! request. A reply's quote digest must be `quote_digest` over the same
//! field bytes and the nonce. Quoted bytes equal wire bytes (ids
//! big-endian, everything else its `Wire` encoding), so one comparison
//! pins the codec, the quotes and the table to each other: a field added
//! to a record but not to its row, or to its row but not to its quote,
//! fails here.

use monatt_core::attestation::AttestationServer;
use monatt_core::messages::{ControllerForward, CustomerRequest};
use monatt_core::protocol::Field;
use monatt_core::{
    CloudController, CloudServerNode, HealthStatus, Image, MsgKind, NonceSlot, ReferenceDb,
    SecurityProperty, ServerId, Vid,
};
use monatt_crypto::drbg::Drbg;
use monatt_hypervisor::driver::IdleDriver;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_net::wire::Wire;
use monatt_tpm::quote::{quote_digest, Quote};

/// Distinct nonces, so a record carrying the wrong one shows.
fn nonce(slot: NonceSlot) -> [u8; 32] {
    [slot as u8 + 1; 32]
}

/// A genuine record, taken apart by its struct's members.
struct Record {
    kind: MsgKind,
    wire: Vec<u8>,
    /// Every field the struct holds, encoded.
    values: Vec<(Field, Vec<u8>)>,
    nonce: [u8; 32],
    quote: Option<Quote>,
    /// What follows the quote: message 4's certification request.
    trailer: Vec<u8>,
}

impl Record {
    fn value(&self, field: Field) -> &[u8] {
        let found = self.values.iter().find(|(f, _)| *f == field);
        let Some((_, bytes)) = found else {
            panic!(
                "{}'s row names {field:?}, which its struct lacks",
                self.kind
            )
        };
        bytes
    }
}

/// One genuine record per kind, in [`MsgKind::ALL`] order, attesting
/// `property` of a hosted VM.
fn records(property: SecurityProperty) -> Vec<Record> {
    let mut node = CloudServerNode::boot(
        ServerId(3),
        1,
        SchedParams::default(),
        Drbg::from_seed(61),
        ReferenceDb::new().platform_components(),
        &[property],
    );
    let (vid, server) = (Vid(7), ServerId(3));
    let image = Image::Cirros;
    let guest = vec![Box::new(IdleDriver) as _];
    node.launch_vm(vid, image, image.pristine_bytes(), guest, 256);
    let attserver = AttestationServer::new(&mut Drbg::from_seed(62));
    let controller = CloudController::new(&mut Drbg::from_seed(63));
    let status = HealthStatus::Compromised {
        reason: "hidden task".into(),
    };
    let (n1, n2, n3) = (
        nonce(NonceSlot::N1),
        nonce(NonceSlot::N2),
        nonce(NonceSlot::N3),
    );
    let id = |v: u64| v.to_be_bytes().to_vec();
    let server_id = |s: ServerId| s.0.to_be_bytes().to_vec();
    let record = |kind, wire, values, nonce, quote, trailer| Record {
        kind,
        wire,
        values,
        nonce,
        quote,
        trailer,
    };
    MsgKind::ALL
        .into_iter()
        .map(|kind| match kind {
            MsgKind::Msg1 => {
                let m = CustomerRequest {
                    vid,
                    property,
                    nonce1: n1,
                };
                let values = vec![
                    (Field::Vid, id(m.vid.0)),
                    (Field::Property, m.property.to_wire()),
                ];
                record(kind, m.to_wire(), values, m.nonce1, None, Vec::new())
            }
            MsgKind::Msg2 => {
                let m = ControllerForward {
                    vid,
                    server,
                    property,
                    nonce2: n2,
                };
                let values = vec![
                    (Field::Vid, id(m.vid.0)),
                    (Field::Server, server_id(m.server)),
                    (Field::Property, m.property.to_wire()),
                ];
                record(kind, m.to_wire(), values, m.nonce2, None, Vec::new())
            }
            MsgKind::Msg3 => {
                let m = attserver.build_measure_request(vid, property, n3);
                let values = vec![(Field::Vid, id(m.vid.0)), (Field::Spec, m.spec.to_wire())];
                record(kind, m.to_wire(), values, m.nonce3, None, Vec::new())
            }
            MsgKind::Msg4 => {
                let spec = attserver.build_measure_request(vid, property, n3).spec;
                node.begin_window(spec, vid);
                node.advance(spec.window_us());
                let m = node.attest(vid, spec, n3).expect("the VM is hosted");
                let values = vec![
                    (Field::Vid, id(m.vid.0)),
                    (Field::Spec, m.spec.to_wire()),
                    (Field::Measurement, m.measurement.to_wire()),
                ];
                let cert = &m.cert_request;
                let trailer = [
                    &cert.attestation_key.to_bytes()[..],
                    &cert.identity_signature.to_bytes(),
                    &cert.identity_key.to_bytes(),
                ]
                .concat();
                let quote = Some(m.quote.clone());
                record(kind, m.to_wire(), values, m.nonce3, quote, trailer)
            }
            MsgKind::Msg5 => {
                let m = attserver.certify_report(vid, server, property, status.clone(), n2);
                let values = vec![
                    (Field::Vid, id(m.vid.0)),
                    (Field::Server, server_id(m.server)),
                    (Field::Property, m.property.to_wire()),
                    (Field::Report, m.status.to_wire()),
                ];
                let quote = Some(m.quote.clone());
                record(kind, m.to_wire(), values, m.nonce2, quote, Vec::new())
            }
            MsgKind::Msg6 => {
                let m = controller.certify_customer_report(vid, property, status.clone(), n1);
                let values = vec![
                    (Field::Vid, id(m.vid.0)),
                    (Field::Property, m.property.to_wire()),
                    (Field::Report, m.status.to_wire()),
                ];
                let quote = Some(m.quote.clone());
                record(kind, m.to_wire(), values, m.nonce1, quote, Vec::new())
            }
        })
        .collect()
}

/// Every property the Attestation Server maps to a measurement, so every
/// spec and measurement encoding is covered.
const PROPERTIES: [SecurityProperty; 5] = [
    SecurityProperty::StartupIntegrity,
    SecurityProperty::RuntimeIntegrity,
    SecurityProperty::CovertChannelFreedom,
    SecurityProperty::CpuAvailability { min_share_pct: 50 },
    SecurityProperty::SchedulerFairness,
];

#[test]
fn every_record_encodes_exactly_its_row() {
    for property in PROPERTIES {
        for r in records(property) {
            let row = r.kind.row();
            // A request carries the nonce it issues, a reply the one it
            // echoes: Kx, Ky, Kz carry N1, N2, N3.
            assert_eq!(
                r.nonce,
                nonce(row.channel.carries().0),
                "{}'s nonce",
                r.kind
            );
            assert_eq!(
                r.quote.is_some(),
                row.reply,
                "{} quotes iff it replies",
                r.kind
            );
            let fields: Vec<&[u8]> = row.fields.iter().map(|&f| r.value(f)).collect();
            let mut expected = fields.concat();
            expected.extend_from_slice(&r.nonce);
            if let Some(quote) = &r.quote {
                expected.extend_from_slice(&quote.digest);
                expected.extend_from_slice(&quote.signature.to_bytes());
            }
            expected.extend_from_slice(&r.trailer);
            assert!(
                r.wire == expected,
                "{} ({property:?}) does not encode as its row {:?}: {} bytes on the wire, {} expected",
                r.kind,
                row.fields,
                r.wire.len(),
                expected.len()
            );
        }
    }
}

#[test]
fn every_quote_covers_exactly_its_row_and_nonce() {
    for property in PROPERTIES {
        for r in records(property) {
            let Some(quote) = &r.quote else { continue };
            let row = r.kind.row();
            let mut covered: Vec<&[u8]> = row.fields.iter().map(|&f| r.value(f)).collect();
            covered.push(&r.nonce);
            assert!(
                quote.digest == quote_digest(&covered),
                "{:?} of {} ({property:?}) does not cover exactly {:?} and {:?}",
                row.channel.carries().1,
                r.kind,
                row.fields,
                row.channel.carries().0
            );
        }
    }
}
