//! The privacy Certificate Authority (Section 3.2.3 / 3.4.2).
//!
//! Cloud servers register their long-term identity keys VKs at deployment
//! time. For each attestation session, a server submits its fresh public
//! attestation key AVKs signed by its identity key; the pCA verifies the
//! binding and issues a certificate for AVKs. The Attestation Server then
//! authenticates the quote *without learning which server produced it
//! from the key alone* — preserving the server anonymity that prevents
//! co-location probing (Section 3.4.2).

use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::{BoundKey, Signature, SigningKey, VerifyingKey};
use monatt_crypto::sha256::Sha256;
use monatt_tpm::module::CertificationRequest;
use std::collections::BTreeMap;

/// Domain-separation tag mixed into every certificate signature, so a pCA
/// signature over an attestation key can never be confused with any other
/// signature the same key makes (report quotes, handshake transcripts).
const CERT_DST: &[u8] = b"monatt/pca-avk-cert/v2";

/// Length of the certificate signing payload: tag, epoch, key.
const CERT_PAYLOAD_LEN: usize = 22 + 8 + 32;

/// A certificate for a session attestation key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvkCertificate {
    /// The certified attestation key.
    pub attestation_key: VerifyingKey,
    /// The pCA key epoch the certificate was issued under. Certificates
    /// from earlier epochs are stale: the epoch bumps on channel re-key
    /// (node recovery), which is exactly when old bindings stop being
    /// trustworthy.
    pub epoch: u64,
    /// The pCA's signature over the tagged `(epoch, key)` payload.
    pub signature: Signature,
}

/// Errors from certification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PcaError {
    /// The identity key is not registered with the pCA.
    UnregisteredServer,
    /// The identity signature over the attestation key is invalid.
    BadBinding,
}

impl std::fmt::Display for PcaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcaError::UnregisteredServer => write!(f, "server identity key not registered"),
            PcaError::BadBinding => write!(f, "identity signature over attestation key invalid"),
        }
    }
}

impl std::error::Error for PcaError {}

/// The privacy CA.
pub struct PrivacyCa {
    key: SigningKey,
    /// The registered identity keys VKs, by encoding. Each is bound at
    /// registration: these are the keys every session's binding is
    /// verified against for as long as the server is deployed.
    registered: BTreeMap<[u8; 32], BoundKey>,
    /// Current key epoch; bumped on channel re-key, invalidating every
    /// certificate issued before the bump.
    epoch: u64,
    /// Whether the certified-AVK cache is on. Off by default: with fresh
    /// per-session attestation keys the cache can never hit, and its
    /// inserts would put allocations on the warm attestation path.
    cache_enabled: bool,
    /// Certified-AVK cache: request digest → certificate issued this
    /// epoch. A cloud server re-submitting an identical identity binding
    /// gets its certificate back without the pCA re-verifying the binding
    /// signature. Keyed by a hash of the *entire* request (identity key,
    /// attestation key, binding signature), so only byte-identical
    /// requests can hit. Cleared on epoch bump.
    cert_cache: BTreeMap<[u8; 32], AvkCertificate>,
    cache_hits: u64,
    cache_misses: u64,
}

impl std::fmt::Debug for PrivacyCa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivacyCa")
            .field("registered", &self.registered.len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl PrivacyCa {
    /// Creates a pCA with a fresh key pair.
    pub fn new(rng: &mut Drbg) -> Self {
        PrivacyCa {
            key: SigningKey::generate(rng),
            registered: BTreeMap::new(),
            epoch: 0,
            cache_enabled: false,
            cert_cache: BTreeMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Turns on the certified-AVK cache. Only worthwhile together with
    /// server-side attestation-key reuse — with fresh per-session keys
    /// every lookup misses.
    pub fn enable_cert_cache(&mut self) {
        self.cache_enabled = true;
    }

    /// The pCA's public key, distributed to verifiers.
    pub fn public_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// The current key epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances to a new key epoch (called on channel re-key, e.g. after
    /// node recovery). Every previously issued certificate becomes stale
    /// and the certified-AVK cache is dropped with them.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.cert_cache.clear();
    }

    /// Certified-AVK cache hits and misses since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Registers a cloud server's identity key at deployment time,
    /// binding it for the verifications to come. Registering a key again
    /// changes nothing.
    pub fn register_server(&mut self, identity: VerifyingKey) {
        self.registered
            .entry(identity.to_bytes())
            .or_insert_with(|| BoundKey::new(identity));
    }

    /// Certifies a session attestation key.
    ///
    /// A byte-identical request already certified this epoch is answered
    /// from the certified-AVK cache without re-verifying the identity
    /// binding.
    ///
    /// # Errors
    ///
    /// [`PcaError::UnregisteredServer`] if the identity key is unknown,
    /// [`PcaError::BadBinding`] if the identity signature is invalid.
    pub fn certify(&mut self, request: &CertificationRequest) -> Result<AvkCertificate, PcaError> {
        let Some(identity) = self.registered.get(&request.identity_key.to_bytes()) else {
            return Err(PcaError::UnregisteredServer);
        };
        if self.cache_enabled {
            if let Some(cert) = self.cert_cache.get(&Self::request_digest(request)) {
                self.cache_hits += 1;
                return Ok(cert.clone());
            }
            self.cache_misses += 1;
        }
        if !request.verify_with(identity) {
            return Err(PcaError::BadBinding);
        }
        Ok(self.issue(request))
    }

    /// True when `identity` was registered at deployment time.
    pub(crate) fn is_registered(&self, identity: &VerifyingKey) -> bool {
        self.registered.contains_key(&identity.to_bytes())
    }

    /// Issues (and, when the cache is on, caches) a certificate for a
    /// request whose identity binding has already been verified — the
    /// batch-validation path checks bindings in bulk and then calls this
    /// per survivor.
    pub(crate) fn issue(&mut self, request: &CertificationRequest) -> AvkCertificate {
        let cert = AvkCertificate {
            attestation_key: request.attestation_key,
            epoch: self.epoch,
            signature: self.key.sign(&AvkCertificate::signed_payload(
                &request.attestation_key,
                self.epoch,
            )),
        };
        if self.cache_enabled {
            self.cert_cache
                .insert(Self::request_digest(request), cert.clone());
        }
        cert
    }

    /// Looks up a cached certificate for `request` without verifying
    /// anything; callers must have checked registration already. Returns
    /// `None` (and counts nothing) when the cache is off.
    pub(crate) fn cached(&mut self, request: &CertificationRequest) -> Option<AvkCertificate> {
        if !self.cache_enabled {
            return None;
        }
        let cert = self.cert_cache.get(&Self::request_digest(request)).cloned();
        match cert.is_some() {
            true => self.cache_hits += 1,
            false => self.cache_misses += 1,
        }
        cert
    }

    /// Hashes the full certification request for use as a cache key.
    pub(crate) fn request_digest(request: &CertificationRequest) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&request.identity_key.to_bytes());
        h.update(&request.attestation_key.to_bytes());
        h.update(&request.identity_signature.to_bytes());
        h.finalize()
    }
}

impl AvkCertificate {
    /// The byte string a certificate signature covers: domain tag, issuing
    /// epoch, certified key. Binding the epoch means a certificate cannot
    /// outlive a channel re-key. Fixed-size so certificate issuance stays
    /// off the allocator (it sits on the warm attestation path).
    fn signed_payload(attestation_key: &VerifyingKey, epoch: u64) -> [u8; CERT_PAYLOAD_LEN] {
        let mut payload = [0u8; CERT_PAYLOAD_LEN];
        let (dst, rest) = payload.split_at_mut(CERT_DST.len());
        let (ep, key) = rest.split_at_mut(8);
        dst.copy_from_slice(CERT_DST);
        ep.copy_from_slice(&epoch.to_be_bytes());
        key.copy_from_slice(&attestation_key.to_bytes());
        payload
    }

    /// Verifies this certificate against the pCA's public key and its
    /// current epoch. A certificate issued under an earlier epoch fails
    /// even if its signature is intact: re-keying revoked it.
    pub fn verify(&self, pca_key: &VerifyingKey, current_epoch: u64) -> bool {
        self.epoch == current_epoch
            && pca_key
                .verify(
                    &Self::signed_payload(&self.attestation_key, self.epoch),
                    &self.signature,
                )
                .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_tpm::module::TrustModule;

    #[test]
    fn registered_server_gets_certified() {
        let mut rng = Drbg::from_seed(30);
        let mut pca = PrivacyCa::new(&mut rng);
        let mut tm = TrustModule::provision(Drbg::from_seed(31));
        pca.register_server(tm.identity_key());
        // Registering the same identity again is a no-op.
        pca.register_server(tm.identity_key());
        assert_eq!(pca.registered.len(), 1);
        let session = tm.begin_attestation();
        let cert = pca.certify(session.certification_request()).unwrap();
        assert!(cert.verify(&pca.public_key(), pca.epoch()));
        assert_eq!(cert.attestation_key, session.attestation_key());
    }

    #[test]
    fn identical_request_is_served_from_cache() {
        let mut rng = Drbg::from_seed(50);
        let mut pca = PrivacyCa::new(&mut rng);
        pca.enable_cert_cache();
        let mut tm = TrustModule::provision(Drbg::from_seed(51));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        let first = pca.certify(session.certification_request()).unwrap();
        let second = pca.certify(session.certification_request()).unwrap();
        assert_eq!(first, second);
        assert_eq!(pca.cache_stats(), (1, 1));
    }

    #[test]
    fn epoch_bump_invalidates_issued_certificates() {
        let mut rng = Drbg::from_seed(52);
        let mut pca = PrivacyCa::new(&mut rng);
        pca.enable_cert_cache();
        let mut tm = TrustModule::provision(Drbg::from_seed(53));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        let cert = pca.certify(session.certification_request()).unwrap();
        assert!(cert.verify(&pca.public_key(), pca.epoch()));
        pca.bump_epoch();
        // The old certificate is stale after re-keying even though its
        // signature bytes are intact.
        assert!(!cert.verify(&pca.public_key(), pca.epoch()));
        // The cache was dropped with the epoch: a re-certification is a
        // miss and yields a fresh, epoch-1 certificate.
        let fresh = pca.certify(session.certification_request()).unwrap();
        assert_eq!(fresh.epoch, 1);
        assert!(fresh.verify(&pca.public_key(), pca.epoch()));
        assert_ne!(cert.signature, fresh.signature);
    }

    #[test]
    fn cert_signature_is_domain_separated() {
        // The pCA signing the raw key bytes (the pre-DST payload) must not
        // produce a valid certificate signature.
        let mut rng = Drbg::from_seed(54);
        let mut pca = PrivacyCa::new(&mut rng);
        let mut tm = TrustModule::provision(Drbg::from_seed(55));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        let cert = pca.certify(session.certification_request()).unwrap();
        let untagged = pca.key.sign(&cert.attestation_key.to_bytes());
        let forged = AvkCertificate {
            attestation_key: cert.attestation_key,
            epoch: cert.epoch,
            signature: untagged,
        };
        assert!(!forged.verify(&pca.public_key(), pca.epoch()));
    }

    #[test]
    fn unregistered_server_rejected() {
        let mut rng = Drbg::from_seed(32);
        let mut pca = PrivacyCa::new(&mut rng);
        let mut tm = TrustModule::provision(Drbg::from_seed(33));
        let session = tm.begin_attestation();
        assert_eq!(
            pca.certify(session.certification_request()),
            Err(PcaError::UnregisteredServer)
        );
    }

    #[test]
    fn bad_binding_rejected() {
        let mut rng = Drbg::from_seed(34);
        let mut pca = PrivacyCa::new(&mut rng);
        let mut tm1 = TrustModule::provision(Drbg::from_seed(35));
        let mut tm2 = TrustModule::provision(Drbg::from_seed(36));
        pca.register_server(tm1.identity_key());
        let s1 = tm1.begin_attestation();
        let s2 = tm2.begin_attestation();
        // Splice: claim tm1's identity but present tm2's attestation key.
        let forged = CertificationRequest {
            attestation_key: s2.attestation_key(),
            identity_signature: s1.certification_request().identity_signature,
            identity_key: tm1.identity_key(),
        };
        assert_eq!(pca.certify(&forged), Err(PcaError::BadBinding));
    }

    #[test]
    fn forged_certificate_fails_verification() {
        let mut rng = Drbg::from_seed(37);
        let mut pca = PrivacyCa::new(&mut rng);
        let other_pca = PrivacyCa::new(&mut rng);
        let mut tm = TrustModule::provision(Drbg::from_seed(38));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        let cert = pca.certify(session.certification_request()).unwrap();
        assert!(!cert.verify(&other_pca.public_key(), other_pca.epoch()));
    }
}
