//! The Attestation Server (Section 3.2.3): the attestation requester and
//! appraiser. Holds the oat database (reference values, server registry),
//! the Property Interpretation Module, the Property Certification Module,
//! and works with the privacy CA to authenticate cloud servers
//! anonymously.

use crate::error::{reply_obligations, Check, CloudError};
use crate::interpret::{interpret, property_to_spec, ReferenceDb};
use crate::measurements::MeasurementSpec;
use crate::messages::{
    q2_fields, q3_fields, AttestationReportMsg, MeasureRequest, MeasureResponse,
};
use crate::pca::{IdentityTable, PrivacyCa};
use crate::protocol::MsgKind;
use crate::types::{HealthStatus, Image, SecurityProperty, ServerId, Vid};
use crate::verify_ring::{HeldKey, HopVouchers};
use monatt_crypto::batch::{batch_verify_each, BatchItem};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::error::CryptoError;
use monatt_crypto::schnorr::{SigningKey, Verifier, VerifyingKey};
use monatt_net::wire::EncodeScratch;
use monatt_tpm::quote::{Quote, QuoteError};
use std::collections::BTreeMap;

/// Message 4's quote signature failed, however it was verified.
fn bad_q3(_: CryptoError) -> CloudError {
    match reply_obligations(MsgKind::Msg4) {
        Ok((quote, _)) => Check::Quote(quote, QuoteError::BadSignature).into(),
        Err(e) => e,
    }
}

/// A property verdict held by the Property Certification Module for reuse
/// inside its validity window (the sub-attestation-reuse idea from Ozga et
/// al.): a repeat request for the same `(Vid, property)` pair is answered
/// from here without touching the cloud server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedEvidence {
    /// The verdict the full protocol produced.
    pub status: HealthStatus,
    /// The server that hosted the VM when the evidence was gathered.
    /// Invalidation on migration/evacuation/crash keys off this.
    pub server: ServerId,
    /// Wall-clock expiry (exclusive): at or past this instant the evidence
    /// is stale and the full protocol must run again.
    pub valid_until_us: u64,
}

/// One message 4 and what its session expects of it: what the validator
/// checks, alone or in a coalesced batch.
pub struct BatchValidationItem<'a> {
    /// The decoded measurement response.
    pub response: &'a MeasureResponse,
    /// The VM the session asked about.
    pub expected_vid: Vid,
    /// The measurement the session requested.
    pub expected_spec: MeasurementSpec,
    /// The session's freshness nonce N3.
    pub expected_nonce3: [u8; 32],
}

/// The Attestation Server.
pub struct AttestationServer {
    identity: SigningKey,
    pca: PrivacyCa,
    references: ReferenceDb,
    /// Evidence cache keyed `(Vid, SecurityProperty)`; empty (and
    /// untouched) unless the cloud enables a validity window.
    evidence: BTreeMap<(Vid, SecurityProperty), CachedEvidence>,
    evidence_hits: u64,
    evidence_misses: u64,
}

impl std::fmt::Debug for AttestationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttestationServer").finish_non_exhaustive()
    }
}

impl AttestationServer {
    /// Creates the Attestation Server with its own identity key and an
    /// embedded privacy CA.
    pub fn new(rng: &mut Drbg) -> Self {
        AttestationServer {
            identity: SigningKey::generate(rng),
            pca: PrivacyCa::new(rng),
            references: ReferenceDb::new(),
            evidence: BTreeMap::new(),
            evidence_hits: 0,
            evidence_misses: 0,
        }
    }

    /// The server's public identity key (VKa).
    pub fn identity_key(&self) -> VerifyingKey {
        self.identity.verifying_key()
    }

    /// Registers a cloud server's identity key with the pCA (deployment
    /// time).
    pub fn register_cloud_server(&mut self, identity: VerifyingKey) {
        self.pca.register_server(identity);
    }

    /// [`Self::register_cloud_server`], sharing the key's table with every
    /// other replica `table` is handed to.
    pub(crate) fn register_cloud_server_sharing(
        &mut self,
        identity: VerifyingKey,
        table: IdentityTable,
    ) {
        self.pca.register_sharing(identity, table);
    }

    /// Turns on the pCA's certified-AVK cache (see
    /// [`PrivacyCa::enable_cert_cache`]).
    pub fn enable_avk_cert_cache(&mut self) {
        self.pca.enable_cert_cache();
    }

    /// Certified-AVK cache hits and misses.
    pub fn avk_cert_cache_stats(&self) -> (u64, u64) {
        self.pca.cache_stats()
    }

    /// The key the pCA verifies `identity`'s bindings against, as the
    /// pCA holds it, if that server is registered.
    pub(crate) fn identity_anchor(&self, identity: &VerifyingKey) -> Option<HeldKey> {
        self.pca.identity_anchor(identity)
    }

    /// Registered identity keys the pCA holds bound.
    #[cfg(test)]
    pub(crate) fn identity_tables(&self) -> usize {
        self.pca.identity_tables()
    }

    /// Certificates in the pCA's certified-AVK cache, and how many of
    /// their keys are bound.
    #[cfg(test)]
    pub(crate) fn cached_avks(&self) -> (usize, usize) {
        self.pca.cached_avks()
    }

    /// Reacts to a channel re-key: the pCA epoch advances (staling every
    /// issued certificate and dropping the certified-AVK cache) and all
    /// cached evidence is invalidated — trust gathered over the old
    /// channel does not carry across a re-handshake.
    pub fn on_rekey(&mut self) {
        self.pca.bump_epoch();
        self.evidence.clear();
    }

    /// Looks up fresh cached evidence for `(vid, property)` at `now_us`,
    /// counting a hit or miss. Expired entries are dropped on the way.
    pub fn evidence_lookup(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
        now_us: u64,
    ) -> Option<CachedEvidence> {
        match self.evidence.get(&(vid, property)) {
            Some(entry) if now_us < entry.valid_until_us => {
                self.evidence_hits += 1;
                Some(entry.clone())
            }
            Some(_) => {
                self.evidence.remove(&(vid, property));
                self.evidence_misses += 1;
                None
            }
            None => {
                self.evidence_misses += 1;
                None
            }
        }
    }

    /// Stores a freshly certified verdict for reuse until
    /// `valid_until_us`.
    pub fn evidence_insert(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
        server: ServerId,
        status: HealthStatus,
        valid_until_us: u64,
    ) {
        self.evidence.insert(
            (vid, property),
            CachedEvidence {
                status,
                server,
                valid_until_us,
            },
        );
    }

    /// Drops all cached evidence about `vid` (migration, termination).
    pub fn invalidate_evidence_for_vid(&mut self, vid: Vid) {
        self.evidence.retain(|(v, _), _| *v != vid);
    }

    /// Drops all cached evidence gathered on `server` (crash,
    /// evacuation): the platform that produced it is gone.
    pub fn invalidate_evidence_for_server(&mut self, server: ServerId) {
        self.evidence.retain(|_, entry| entry.server != server);
    }

    /// Drops every cached verdict (Attestation Server crash).
    pub fn invalidate_all_evidence(&mut self) {
        self.evidence.clear();
    }

    /// Evidence cache hits and misses.
    pub fn evidence_cache_stats(&self) -> (u64, u64) {
        (self.evidence_hits, self.evidence_misses)
    }

    /// Builds the measurement request for a property (the P → rM mapping).
    pub fn build_measure_request(
        &self,
        vid: Vid,
        property: SecurityProperty,
        nonce3: [u8; 32],
    ) -> MeasureRequest {
        MeasureRequest {
            vid,
            spec: property_to_spec(property),
            nonce3,
        }
    }

    /// Validates a cloud server's response (message 4) on its own: runs
    /// the one per-response check sequence and verifies a bare Q3 on the
    /// spot. The caller provides the encode scratch, so the warm
    /// attestation path rebuilds the quote fields without allocating.
    ///
    /// # Errors
    ///
    /// [`CloudError::ProtocolFailure`] naming the failed check.
    pub fn validate_response_with(
        &mut self,
        response: &MeasureResponse,
        expected_vid: Vid,
        expected_spec: MeasurementSpec,
        expected_nonce3: [u8; 32],
        scratch: &mut EncodeScratch,
    ) -> Result<(), CloudError> {
        let item = BatchValidationItem {
            response,
            expected_vid,
            expected_spec,
            expected_nonce3,
        };
        self.validate_one(&item, HopVouchers::default(), scratch)
    }

    /// [`Self::validate_response_with`], taking the helper's verdicts on
    /// the binding and on Q3 where they cover exactly these bytes.
    pub(crate) fn validate_one(
        &mut self,
        item: &BatchValidationItem<'_>,
        vouchers: HopVouchers<'_>,
        scratch: &mut EncodeScratch,
    ) -> Result<(), CloudError> {
        match self.check_msg4(item, vouchers, scratch)? {
            Some((avk, digest, signature)) => avk.verify(digest, &signature).map_err(bad_q3),
            None => Ok(()),
        }
    }

    /// Validates a coalesced batch of measurement responses, returning one
    /// verdict per item in order.
    ///
    /// Each item runs the same check sequence as
    /// [`Self::validate_response_with`], in item order, so an item sees
    /// the certifications of the items before it. The bare Q3 signatures
    /// that sequence leaves are verified together in one
    /// random-linear-combination [`batch_verify_each`] call; a batch that
    /// fails the combined equation falls back to serial verification
    /// inside that call, so a forged quote is rejected exactly and never
    /// poisons its batch-mates.
    pub fn validate_response_batch(
        &mut self,
        items: &[BatchValidationItem<'_>],
        scratch: &mut EncodeScratch,
    ) -> Vec<Result<(), CloudError>> {
        let vouchers = std::iter::repeat(HopVouchers::default());
        self.validate_batch(items, vouchers, scratch)
    }

    /// [`Self::validate_response_batch`], each item taking the helper's
    /// verdicts from the vouchers alongside it.
    pub(crate) fn validate_batch<'v>(
        &mut self,
        items: &[BatchValidationItem<'_>],
        vouchers: impl IntoIterator<Item = HopVouchers<'v>>,
        scratch: &mut EncodeScratch,
    ) -> Vec<Result<(), CloudError>> {
        // Per flush, not per message: the verdicts, and the bare Q3s
        // with the items they belong to.
        let mut verdicts = Vec::with_capacity(items.len()); // #[allow(monatt::alloc_freedom)] one per flush
        let mut bare = Vec::new(); // #[allow(monatt::alloc_freedom)] one per flush
        let mut bare_at = Vec::new(); // #[allow(monatt::alloc_freedom)] one per flush
        for (item, vouchers) in items.iter().zip(vouchers) {
            let verdict = self.check_msg4(item, vouchers, scratch);
            if let Ok(Some(q3)) = verdict {
                bare.push(q3);
                bare_at.push(verdicts.len());
            }
            verdicts.push(verdict.map(drop));
        }
        // #[allow(monatt::alloc_freedom)] one verdict list per flush
        let batched = batch_verify_each(&bare);
        for (i, verdict) in bare_at.into_iter().zip(batched) {
            if let (Err(e), Some(slot)) = (verdict, verdicts.get_mut(i)) {
                *slot = Err(bad_q3(e));
            }
        }
        verdicts
    }

    /// The one per-response check sequence of message 4, in the paper's
    /// order, whichever way the response arrives: the vid, spec and N3
    /// echoes; the pCA's certification of AVKs
    /// ([`PrivacyCa::certify_bound`]); the quote digest over the rebuilt
    /// fields; Q3's signature, through the helper's verdict or else the
    /// slot's bound AVK. A Q3 with neither is handed back unverified, as
    /// the check its caller runs on the spot or joins to a batch.
    fn check_msg4<'a>(
        &mut self,
        item: &BatchValidationItem<'a>,
        vouchers: HopVouchers<'_>,
        scratch: &mut EncodeScratch,
    ) -> Result<Option<BatchItem<'a>>, CloudError> {
        let response = item.response;
        if response.vid != item.expected_vid {
            let (expected, got) = (item.expected_vid, response.vid);
            return Err(Check::Vid { expected, got }.into());
        }
        if response.spec != item.expected_spec {
            return Err(Check::Spec.into());
        }
        let (quote_kind, nonce_slot) = reply_obligations(MsgKind::Msg4)?;
        if response.nonce3 != item.expected_nonce3 {
            return Err(Check::Nonce(nonce_slot).into());
        }
        let (cert, bound) = self
            .pca
            .certify_bound(&response.cert_request, vouchers.binding)
            .map_err(Check::Certification)?;
        let quote = &response.quote;
        let (vid, spec, measurement) = (response.vid, &response.spec, &response.measurement);
        q3_fields(scratch, vid, spec, measurement, &response.nonce3, |f| {
            quote.check_fields(f)
        })
        .map_err(|e| Check::Quote(quote_kind, e))?;
        let (avk, digest, signature) = (
            cert.attestation_key,
            quote.digest.as_slice(),
            quote.signature,
        );
        let vouched = vouchers
            .quote
            .and_then(|v| v.verdict(avk, digest, &signature));
        let verdict = match (vouched, bound) {
            (Some(verdict), _) => verdict,
            (None, Some(key)) => key.verify(digest, &signature),
            (None, None) => return Ok(Some((avk, digest, signature))),
        };
        verdict.map(|()| None).map_err(bad_q3)
    }

    /// Runs the Property Interpretation Module on a validated response.
    pub fn interpret_response(
        &self,
        property: SecurityProperty,
        response: &MeasureResponse,
        expected_image: Image,
    ) -> HealthStatus {
        interpret(
            property,
            &response.measurement,
            expected_image,
            &self.references,
        )
    }

    /// The Property Certification Module: packages and signs the report
    /// for the controller (message 5, quote Q2 under SKa).
    pub fn certify_report(
        &self,
        vid: Vid,
        server: ServerId,
        property: SecurityProperty,
        status: HealthStatus,
        nonce2: [u8; 32],
    ) -> AttestationReportMsg {
        self.certify_report_with(
            vid,
            server,
            property,
            status,
            nonce2,
            &mut EncodeScratch::new(),
        )
    }

    /// [`Self::certify_report`] with a caller-provided encode scratch.
    pub fn certify_report_with(
        &self,
        vid: Vid,
        server: ServerId,
        property: SecurityProperty,
        status: HealthStatus,
        nonce2: [u8; 32],
        scratch: &mut EncodeScratch,
    ) -> AttestationReportMsg {
        let quote = q2_fields(scratch, vid, server, &property, &status, &nonce2, |f| {
            Quote::create(&self.identity, f)
        });
        AttestationReportMsg {
            vid,
            server,
            property,
            status,
            nonce2,
            quote,
        }
    }

    /// Verifies a message-5 report (used by the controller, which holds
    /// each replica's key bound), rebuilding the quoted fields in a
    /// caller-provided encode scratch.
    ///
    /// # Errors
    ///
    /// [`CloudError::ProtocolFailure`] if the quote or nonce fails.
    pub fn verify_report_msg_with(
        msg: &AttestationReportMsg,
        attserver_key: &impl Verifier,
        expected_nonce2: [u8; 32],
        scratch: &mut EncodeScratch,
    ) -> Result<(), CloudError> {
        let (quote_kind, nonce_slot) = reply_obligations(MsgKind::Msg5)?;
        if msg.nonce2 != expected_nonce2 {
            return Err(Check::Nonce(nonce_slot).into());
        }
        q2_fields(
            scratch,
            msg.vid,
            msg.server,
            &msg.property,
            &msg.status,
            &msg.nonce2,
            |f| msg.quote.verify(attserver_key, f),
        )
        .map_err(|e| Check::Quote(quote_kind, e).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::PcaError;
    use crate::protocol::{NonceSlot, QuoteKind};
    use crate::server::CloudServerNode;
    use monatt_hypervisor::driver::IdleDriver;
    use monatt_hypervisor::scheduler::SchedParams;

    /// Message 4's quote and nonce, as the IR's obligations name them.
    fn msg4() -> (QuoteKind, NonceSlot) {
        let (Some(quote), Some(nonce)) = MsgKind::Msg4.obligations() else {
            unreachable!("message 4 carries a quote and echoes a nonce")
        };
        (quote, nonce)
    }

    /// The check a protocol failure names.
    fn check(e: &CloudError) -> Check {
        match e {
            CloudError::ProtocolFailure { check } => *check,
            other => panic!("not a protocol failure: {other}"),
        }
    }

    fn setup() -> (AttestationServer, CloudServerNode) {
        let mut rng = Drbg::from_seed(40);
        let mut attserver = AttestationServer::new(&mut rng);
        let refs = ReferenceDb::new();
        let mut node = CloudServerNode::boot(
            ServerId(0),
            1,
            SchedParams::default(),
            Drbg::from_seed(41),
            refs.platform_components(),
            &[SecurityProperty::StartupIntegrity],
        );
        attserver.register_cloud_server(node.identity_key());
        node.launch_vm(
            Vid(1),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(IdleDriver)],
            256,
        );
        (attserver, node)
    }

    #[test]
    fn end_to_end_measure_validate_interpret() {
        let (mut attserver, mut node) = setup();
        let nonce3 = [3u8; 32];
        let req =
            attserver.build_measure_request(Vid(1), SecurityProperty::StartupIntegrity, nonce3);
        let resp: crate::messages::MeasureResponse =
            node.attest(req.vid, req.spec, req.nonce3).unwrap();
        attserver
            .validate_response_with(&resp, Vid(1), req.spec, nonce3, &mut EncodeScratch::new())
            .unwrap();
        let status =
            attserver.interpret_response(SecurityProperty::StartupIntegrity, &resp, Image::Cirros);
        assert!(status.is_healthy());
    }

    #[test]
    fn tampered_measurement_fails_validation() {
        let (mut attserver, mut node) = setup();
        let nonce3 = [3u8; 32];
        let req =
            attserver.build_measure_request(Vid(1), SecurityProperty::StartupIntegrity, nonce3);
        let mut resp: crate::messages::MeasureResponse =
            node.attest(req.vid, req.spec, req.nonce3).unwrap();
        // Forge the measurement after quoting.
        resp.measurement = crate::measurements::Measurement::BootIntegrity {
            platform_pcr: [0; 32],
            image_hash: [0; 32],
        };
        let err = attserver
            .validate_response_with(&resp, Vid(1), req.spec, nonce3, &mut EncodeScratch::new())
            .unwrap_err();
        assert_eq!(
            check(&err),
            Check::Quote(msg4().0, QuoteError::DigestMismatch)
        );
    }

    #[test]
    fn replayed_nonce_fails_validation() {
        let (mut attserver, mut node) = setup();
        let req =
            attserver.build_measure_request(Vid(1), SecurityProperty::StartupIntegrity, [3u8; 32]);
        let resp: crate::messages::MeasureResponse =
            node.attest(req.vid, req.spec, req.nonce3).unwrap();
        let err = attserver
            .validate_response_with(
                &resp,
                Vid(1),
                req.spec,
                [4u8; 32],
                &mut EncodeScratch::new(),
            )
            .unwrap_err();
        assert_eq!(check(&err), Check::Nonce(msg4().1));
    }

    #[test]
    fn unregistered_server_fails_validation() {
        let mut rng = Drbg::from_seed(42);
        let mut attserver = AttestationServer::new(&mut rng);
        let refs = ReferenceDb::new();
        let mut node = CloudServerNode::boot(
            ServerId(5),
            1,
            SchedParams::default(),
            Drbg::from_seed(43),
            refs.platform_components(),
            &[],
        );
        node.launch_vm(
            Vid(1),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(IdleDriver)],
            256,
        );
        let resp = node
            .attest(Vid(1), MeasurementSpec::BootIntegrity, [0u8; 32])
            .unwrap();
        let err = attserver
            .validate_response_with(
                &resp,
                Vid(1),
                MeasurementSpec::BootIntegrity,
                [0u8; 32],
                &mut EncodeScratch::new(),
            )
            .unwrap_err();
        assert_eq!(
            check(&err),
            Check::Certification(PcaError::UnregisteredServer)
        );
    }

    #[test]
    fn report_certification_roundtrip() {
        let mut rng = Drbg::from_seed(44);
        let attserver = AttestationServer::new(&mut rng);
        let msg = attserver.certify_report(
            Vid(9),
            ServerId(1),
            SecurityProperty::RuntimeIntegrity,
            HealthStatus::Healthy,
            [8u8; 32],
        );
        let verify = |msg: &AttestationReportMsg, nonce2: [u8; 32]| {
            let scratch = &mut EncodeScratch::new();
            AttestationServer::verify_report_msg_with(
                msg,
                &attserver.identity_key(),
                nonce2,
                scratch,
            )
        };
        verify(&msg, [8u8; 32]).unwrap();
        let (Some(q2), Some(n2)) = MsgKind::Msg5.obligations() else {
            unreachable!("message 5 carries a quote and echoes a nonce")
        };
        // Tampering with the status breaks the quote.
        let mut forged = msg.clone();
        forged.status = HealthStatus::Compromised {
            reason: "flip".into(),
        };
        let err = verify(&forged, [8u8; 32]).unwrap_err();
        assert_eq!(check(&err), Check::Quote(q2, QuoteError::DigestMismatch));
        // Wrong nonce is a replay.
        let err = verify(&msg, [9u8; 32]).unwrap_err();
        assert_eq!(check(&err), Check::Nonce(n2));
    }
    /// Builds `n` independent valid measurement responses from the
    /// setup node (fresh nonce per item, fresh AVK per attest).
    fn batch_fixture(
        attserver: &mut AttestationServer,
        node: &mut CloudServerNode,
        n: usize,
    ) -> Vec<(crate::messages::MeasureResponse, MeasurementSpec, [u8; 32])> {
        (0..n)
            .map(|i| {
                let nonce3 = [i as u8 + 1; 32];
                let req = attserver.build_measure_request(
                    Vid(1),
                    SecurityProperty::StartupIntegrity,
                    nonce3,
                );
                let resp: crate::messages::MeasureResponse =
                    node.attest(req.vid, req.spec, req.nonce3).unwrap();
                (resp, req.spec, nonce3)
            })
            .collect()
    }

    /// Flips the low bit of a signature's `s`, keeping it well-formed.
    fn forge(sig: &mut monatt_crypto::schnorr::Signature) {
        let mut s = sig.s.to_be_bytes();
        s[31] ^= 1;
        sig.s = monatt_crypto::bigint::U256::from_be_bytes(&s);
    }

    /// `resp` as a batch item expecting exactly what it answers.
    fn item<'a>(
        resp: &'a crate::messages::MeasureResponse,
        spec: MeasurementSpec,
        nonce3: [u8; 32],
    ) -> BatchValidationItem<'a> {
        BatchValidationItem {
            response: resp,
            expected_vid: Vid(1),
            expected_spec: spec,
            expected_nonce3: nonce3,
        }
    }

    #[test]
    fn batch_verdicts_match_serial_and_isolate_a_forged_quote() {
        let (mut attserver, mut node) = setup();
        let mut fixture = batch_fixture(&mut attserver, &mut node, 4);
        // Forge item 2's quote signature. The digest still matches (the
        // cheap per-item check passes), so rejection can only come from
        // the Schnorr layer: the combined batch equation fails and the
        // serial fallback pins the failure on this item alone.
        forge(&mut fixture[2].0.quote.signature);
        let items: Vec<BatchValidationItem<'_>> = fixture
            .iter()
            .map(|(resp, spec, nonce3)| item(resp, *spec, *nonce3))
            .collect();
        let mut scratch = EncodeScratch::new();
        let batch = attserver.validate_response_batch(&items, &mut scratch);
        for (i, (resp, spec, nonce3)) in fixture.iter().enumerate() {
            let serial =
                attserver.validate_response_with(resp, Vid(1), *spec, *nonce3, &mut scratch);
            match (&batch[i], &serial) {
                (Ok(()), Ok(())) => assert_ne!(i, 2, "forged item must fail"),
                (Err(b), Err(s)) => {
                    assert_eq!(i, 2, "only the forged item may fail");
                    assert_eq!(b, s, "errors must match");
                    assert_eq!(check(b), Check::Quote(msg4().0, QuoteError::BadSignature));
                }
                (b, s) => panic!("verdict diverged at {i}: batch {b:?} vs serial {s:?}"),
            }
        }
    }

    #[test]
    fn singleton_batch_matches_serial_exactly() {
        let (mut attserver, mut node) = setup();
        let fixture = batch_fixture(&mut attserver, &mut node, 2);
        let (resp, spec, nonce3) = &fixture[0];
        let items = [item(resp, *spec, *nonce3)];
        let mut scratch = EncodeScratch::new();
        assert!(attserver.validate_response_batch(&items, &mut scratch)[0].is_ok());
        attserver
            .validate_response_with(resp, Vid(1), *spec, *nonce3, &mut scratch)
            .unwrap();
        // And a cheap-check failure (wrong nonce echo) short-circuits
        // before any Schnorr work, with the serial error.
        let items = [item(resp, *spec, [0xaa; 32])];
        let batch = attserver.validate_response_batch(&items, &mut scratch);
        assert_eq!(
            check(batch[0].as_ref().unwrap_err()),
            Check::Nonce(msg4().1)
        );
        // A forged binding over an altered measurement fails the pCA's
        // certification before the digest is looked at, alone and beside
        // a genuine batch-mate alike.
        let mut forged = resp.clone();
        forge(&mut forged.cert_request.identity_signature);
        forged.measurement = crate::measurements::Measurement::BootIntegrity {
            platform_pcr: [0; 32],
            image_hash: [0; 32],
        };
        let serial = attserver
            .validate_response_with(&forged, Vid(1), *spec, *nonce3, &mut scratch)
            .unwrap_err();
        let (mate, mate_spec, mate_nonce3) = &fixture[1];
        let items = [
            item(mate, *mate_spec, *mate_nonce3),
            item(&forged, *spec, *nonce3),
        ];
        let batch = attserver.validate_response_batch(&items, &mut scratch);
        assert!(batch[0].is_ok(), "{:?}", batch[0]);
        assert_eq!(batch[1].as_ref().unwrap_err(), &serial);
        assert_eq!(check(&serial), Check::Certification(PcaError::BadBinding));
    }

    #[test]
    fn a_forged_quote_leaves_the_same_pca_state_alone_or_batched() {
        // Twin Attestation Servers with the certified-AVK cache on: a
        // good binding with a forged Q3 is certified (and cached) before
        // its quote fails, so the identical request presented again hits
        // — whether each presentation comes alone or in a batch.
        let (mut alone, mut node) = setup();
        let mut batched = AttestationServer::new(&mut Drbg::from_seed(40));
        batched.register_cloud_server(node.identity_key());
        alone.enable_avk_cert_cache();
        batched.enable_avk_cert_cache();
        let mut fixture = batch_fixture(&mut alone, &mut node, 1);
        let (resp, spec, nonce3) = &mut fixture[0];
        forge(&mut resp.quote.signature);
        let mut scratch = EncodeScratch::new();
        for _ in 0..2 {
            let serial = alone.validate_response_with(resp, Vid(1), *spec, *nonce3, &mut scratch);
            let items = [item(resp, *spec, *nonce3)];
            let batch = batched.validate_response_batch(&items, &mut scratch);
            assert_eq!(batch, std::slice::from_ref(&serial));
            let forged = Check::Quote(msg4().0, QuoteError::BadSignature);
            assert_eq!(check(&serial.unwrap_err()), forged);
        }
        assert_eq!(alone.avk_cert_cache_stats(), (1, 1));
        assert_eq!(batched.avk_cert_cache_stats(), alone.avk_cert_cache_stats());
    }
}
