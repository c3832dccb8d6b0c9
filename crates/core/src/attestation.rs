//! The Attestation Server (Section 3.2.3): the attestation requester and
//! appraiser. Holds the oat database (reference values, server registry),
//! the Property Interpretation Module, the Property Certification Module,
//! and works with the privacy CA to authenticate cloud servers
//! anonymously.

use crate::error::CloudError;
use crate::interpret::{interpret, property_to_spec, ReferenceDb};
use crate::measurements::MeasurementSpec;
use crate::messages::{AttestationReportMsg, MeasureRequest, MeasureResponse};
use crate::pca::{PcaError, PrivacyCa};
use crate::types::{HealthStatus, Image, SecurityProperty, ServerId, Vid};
use monatt_crypto::batch::{batch_verify_each, BatchItem};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::{SigningKey, Verifier, VerifyingKey};
use monatt_net::wire::EncodeScratch;

/// Cold error constructors, outlined so the validation paths the
/// session warm loop calls into allocate nothing when every check
/// passes. The serial and batch paths share them, which also keeps
/// their error strings aligned check for check.
#[cold]
fn vid_mismatch(expected: Vid, got: Vid) -> CloudError {
    CloudError::protocol(format!("vid mismatch: expected {expected}, got {got}"))
}

/// The vid / spec / nonce-N3 echo checks every msg-4 validation opens
/// with — one function, so the serial and batch paths cannot drift.
fn check_echoes(
    response: &MeasureResponse,
    expected_vid: Vid,
    expected_spec: MeasurementSpec,
    expected_nonce3: [u8; 32],
) -> Result<(), CloudError> {
    if response.vid != expected_vid {
        return Err(vid_mismatch(expected_vid, response.vid));
    }
    if response.spec != expected_spec {
        return Err(CloudError::protocol("measurement spec mismatch"));
    }
    if response.nonce3 != expected_nonce3 {
        return Err(CloudError::protocol("nonce N3 mismatch (possible replay)"));
    }
    Ok(())
}

#[cold]
fn certification_failure(e: impl std::fmt::Display) -> CloudError {
    CloudError::protocol(format!("attestation key certification failed: {e}"))
}

#[cold]
fn quote_failure(which: &str, e: impl std::fmt::Display) -> CloudError {
    CloudError::protocol(format!("quote {which} verification failed: {e}"))
}
use monatt_tpm::quote::{Quote, QuoteError};
use std::collections::BTreeMap;

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

/// One msg-4 of a coalesced batch awaiting AS validation.
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

    /// Turns on the pCA's certified-AVK cache (see
    /// [`PrivacyCa::enable_cert_cache`]).
    pub fn enable_avk_cert_cache(&mut self) {
        self.pca.enable_cert_cache();
    }

    /// Certified-AVK cache hits and misses.
    pub fn avk_cert_cache_stats(&self) -> (u64, u64) {
        self.pca.cache_stats()
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

    /// Validates a cloud server's response: certifies the session key via
    /// the pCA, then checks the quote digest and signature and the nonce
    /// and vid echoes. The caller provides the encode scratch, so the
    /// warm attestation path rebuilds the quote fields without
    /// allocating.
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
        check_echoes(response, expected_vid, expected_spec, expected_nonce3)?;
        let cert = self
            .pca
            .certify(&response.cert_request)
            .map_err(certification_failure)?;
        let vid_bytes = response.vid.0.to_be_bytes();
        let (spec_bytes, meas_bytes) = scratch.encode_pair(&response.spec, &response.measurement);
        response
            .quote
            .verify(
                &cert.attestation_key,
                &[&vid_bytes, spec_bytes, meas_bytes, &response.nonce3],
            )
            .map_err(|e| quote_failure("Q3", e))
    }

    /// The cheap per-item checks of the batch path — vid/spec/nonce
    /// echoes, server registration, quote digest — mirroring the serial
    /// [`Self::validate_response_with`] order and error strings exactly.
    /// Returns whether the item's certification request missed the cert
    /// cache (so its identity binding still needs verification).
    fn precheck_item(
        &mut self,
        item: &BatchValidationItem<'_>,
        scratch: &mut EncodeScratch,
    ) -> Result<bool, CloudError> {
        let response = item.response;
        check_echoes(
            response,
            item.expected_vid,
            item.expected_spec,
            item.expected_nonce3,
        )?;
        if !self.pca.is_registered(&response.cert_request.identity_key) {
            return Err(certification_failure(PcaError::UnregisteredServer));
        }
        let vid_bytes = response.vid.0.to_be_bytes();
        let (spec_bytes, meas_bytes) = scratch.encode_pair(&response.spec, &response.measurement);
        response
            .quote
            .check_fields(&[&vid_bytes, spec_bytes, meas_bytes, &response.nonce3])
            .map_err(|e| quote_failure("Q3", e))?;
        Ok(self.pca.cached(&response.cert_request).is_none())
    }

    /// Validates a coalesced batch of measurement responses, returning one
    /// verdict per item in order.
    ///
    /// The cheap checks (vid/spec/nonce echoes, quote digests, cert-cache
    /// lookups) run per item; every Schnorr verification the batch still
    /// needs — identity bindings for uncached certification requests plus
    /// one quote signature per item — is folded into a single
    /// random-linear-combination [`batch_verify_each`] call. A batch that
    /// fails the combined equation falls back to serial verification
    /// inside that call, so a forged quote is rejected exactly and never
    /// poisons its batch-mates. Verdicts and error strings match the
    /// serial [`Self::validate_response_with`] path check for check.
    pub fn validate_response_batch(
        &mut self,
        items: &[BatchValidationItem<'_>],
        scratch: &mut EncodeScratch,
    ) -> Vec<Result<(), CloudError>> {
        let n = items.len();
        // Per-item cheap-check verdicts and whether each item's
        // certification request missed the cert cache (and therefore
        // needs its identity binding verified), built in lockstep.
        let mut failures: Vec<Option<CloudError>> = Vec::with_capacity(n);
        let mut needs_binding: Vec<bool> = Vec::with_capacity(n);
        // Owned copies of each binding message (the AVK bytes), allocated
        // before the batch is assembled so the borrows below can live
        // across the whole call.
        let mut avk_bytes: Vec<[u8; 32]> = Vec::with_capacity(n);
        for item in items {
            avk_bytes.push(item.response.cert_request.attestation_key.to_bytes());
        }
        for item in items {
            match self.precheck_item(item, scratch) {
                Ok(nb) => {
                    failures.push(None);
                    needs_binding.push(nb);
                }
                Err(e) => {
                    failures.push(Some(e));
                    needs_binding.push(false);
                }
            }
        }
        // Assemble the signature batch: uncached identity bindings first,
        // then one quote signature per surviving item.
        let mut sig_batch: Vec<BatchItem<'_>> = Vec::with_capacity(2 * n);
        let mut owners: Vec<(usize, bool)> = Vec::with_capacity(2 * n); // (item, is_binding)
        let per_item = items
            .iter()
            .zip(failures.iter())
            .zip(needs_binding.iter())
            .zip(avk_bytes.iter());
        for (i, (((item, failure), binding), avk)) in per_item.enumerate() {
            if failure.is_some() {
                continue;
            }
            let request = &item.response.cert_request;
            if *binding {
                sig_batch.push((request.identity_key, avk, request.identity_signature));
                owners.push((i, true));
            }
            sig_batch.push((
                request.attestation_key,
                &item.response.quote.digest,
                item.response.quote.signature,
            ));
            owners.push((i, false));
        }
        let verdicts = batch_verify_each(&sig_batch);
        for ((i, is_binding), verdict) in owners.iter().zip(verdicts.iter()) {
            let Some(slot) = failures.get_mut(*i) else {
                continue;
            };
            if verdict.is_ok() || slot.is_some() {
                continue;
            }
            *slot = Some(match is_binding {
                true => certification_failure(PcaError::BadBinding),
                false => quote_failure("Q3", QuoteError::BadSignature),
            });
        }
        // Issue (and cache) certificates for the bindings that held, so
        // follow-up sessions presenting the same binding hit the cache.
        for ((i, is_binding), verdict) in owners.iter().zip(verdicts.iter()) {
            if *is_binding && verdict.is_ok() && failures.get(*i).is_some_and(|f| f.is_none()) {
                if let Some(item) = items.get(*i) {
                    self.pca.issue(&item.response.cert_request);
                }
            }
        }
        failures
            .into_iter()
            .map(|f| match f {
                Some(e) => Err(e),
                None => Ok(()),
            })
            .collect()
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
        let vid_bytes = vid.0.to_be_bytes();
        let server_bytes = server.0.to_be_bytes();
        let (prop_bytes, status_bytes) = scratch.encode_pair(&property, &status);
        let quote = Quote::create(
            &self.identity,
            &[&vid_bytes, &server_bytes, prop_bytes, status_bytes, &nonce2],
        );
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
        if msg.nonce2 != expected_nonce2 {
            return Err(CloudError::protocol("nonce N2 mismatch (possible replay)"));
        }
        let vid_bytes = msg.vid.0.to_be_bytes();
        let server_bytes = msg.server.0.to_be_bytes();
        let (prop_bytes, status_bytes) = scratch.encode_pair(&msg.property, &msg.status);
        msg.quote
            .verify(
                attserver_key,
                &[
                    &vid_bytes,
                    &server_bytes,
                    prop_bytes,
                    status_bytes,
                    &msg.nonce2,
                ],
            )
            .map_err(|e| quote_failure("Q2", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CloudServerNode;
    use monatt_hypervisor::driver::IdleDriver;
    use monatt_hypervisor::scheduler::SchedParams;

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
            node.attest(req.vid, req.spec, req.nonce3).unwrap().into();
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
            node.attest(req.vid, req.spec, req.nonce3).unwrap().into();
        // Forge the measurement after quoting.
        resp.measurement = crate::measurements::Measurement::BootIntegrity {
            platform_pcr: [0; 32],
            image_hash: [0; 32],
        };
        let err = attserver
            .validate_response_with(&resp, Vid(1), req.spec, nonce3, &mut EncodeScratch::new())
            .unwrap_err();
        assert!(matches!(err, CloudError::ProtocolFailure { .. }));
    }

    #[test]
    fn replayed_nonce_fails_validation() {
        let (mut attserver, mut node) = setup();
        let req =
            attserver.build_measure_request(Vid(1), SecurityProperty::StartupIntegrity, [3u8; 32]);
        let resp: crate::messages::MeasureResponse =
            node.attest(req.vid, req.spec, req.nonce3).unwrap().into();
        let err = attserver
            .validate_response_with(
                &resp,
                Vid(1),
                req.spec,
                [4u8; 32],
                &mut EncodeScratch::new(),
            )
            .unwrap_err();
        let CloudError::ProtocolFailure { reason } = err else {
            panic!("wrong error");
        };
        assert!(reason.contains("N3"));
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
        let resp: crate::messages::MeasureResponse = node
            .attest(Vid(1), MeasurementSpec::BootIntegrity, [0u8; 32])
            .unwrap()
            .into();
        let err = attserver
            .validate_response_with(
                &resp,
                Vid(1),
                MeasurementSpec::BootIntegrity,
                [0u8; 32],
                &mut EncodeScratch::new(),
            )
            .unwrap_err();
        let CloudError::ProtocolFailure { reason } = err else {
            panic!("wrong error");
        };
        assert!(reason.contains("certification"));
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
        // Tampering with the status breaks the quote.
        let mut forged = msg.clone();
        forged.status = HealthStatus::Compromised {
            reason: "flip".into(),
        };
        assert!(verify(&forged, [8u8; 32]).is_err());
        // Wrong nonce is a replay.
        assert!(verify(&msg, [9u8; 32]).is_err());
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
                    node.attest(req.vid, req.spec, req.nonce3).unwrap().into();
                (resp, req.spec, nonce3)
            })
            .collect()
    }

    #[test]
    fn batch_verdicts_match_serial_and_isolate_a_forged_quote() {
        let (mut attserver, mut node) = setup();
        let mut fixture = batch_fixture(&mut attserver, &mut node, 4);
        // Forge item 2's quote signature. The digest still matches (the
        // cheap per-item check passes), so rejection can only come from
        // the Schnorr layer: the combined batch equation fails and the
        // serial fallback pins the failure on this item alone.
        {
            let sig = &mut fixture[2].0.quote.signature;
            let mut s = sig.s.to_be_bytes();
            s[31] ^= 1;
            sig.s = monatt_crypto::bigint::U256::from_be_bytes(&s);
        }
        let items: Vec<BatchValidationItem<'_>> = fixture
            .iter()
            .map(|(resp, spec, nonce3)| BatchValidationItem {
                response: resp,
                expected_vid: Vid(1),
                expected_spec: *spec,
                expected_nonce3: *nonce3,
            })
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
                    assert_eq!(b.to_string(), s.to_string(), "error strings must match");
                    assert!(b.to_string().contains("quote Q3"), "{b}");
                }
                (b, s) => panic!("verdict diverged at {i}: batch {b:?} vs serial {s:?}"),
            }
        }
    }

    #[test]
    fn singleton_batch_matches_serial_exactly() {
        let (mut attserver, mut node) = setup();
        let fixture = batch_fixture(&mut attserver, &mut node, 1);
        let (resp, spec, nonce3) = &fixture[0];
        let items = [BatchValidationItem {
            response: resp,
            expected_vid: Vid(1),
            expected_spec: *spec,
            expected_nonce3: *nonce3,
        }];
        let mut scratch = EncodeScratch::new();
        assert!(attserver.validate_response_batch(&items, &mut scratch)[0].is_ok());
        attserver
            .validate_response_with(resp, Vid(1), *spec, *nonce3, &mut scratch)
            .unwrap();
        // And a cheap-check failure (wrong nonce echo) short-circuits
        // before any Schnorr work, with the serial error string.
        let items = [BatchValidationItem {
            response: resp,
            expected_vid: Vid(1),
            expected_spec: *spec,
            expected_nonce3: [0xaa; 32],
        }];
        let err = attserver.validate_response_batch(&items, &mut scratch)[0]
            .as_ref()
            .unwrap_err()
            .to_string();
        assert!(err.contains("N3"), "{err}");
    }
}
