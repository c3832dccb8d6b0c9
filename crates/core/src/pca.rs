//! The privacy Certificate Authority (Section 3.2.3 / 3.4.2).
//!
//! Cloud servers register their long-term identity keys VKs at deployment
//! time. For each attestation session, a server submits its fresh public
//! attestation key AVKs signed by its identity key; the pCA verifies the
//! binding and issues a certificate for AVKs. The Attestation Server then
//! authenticates the quote *without learning which server produced it
//! from the key alone* — preserving the server anonymity that prevents
//! co-location probing (Section 3.4.2).

use crate::verify_ring::{HeldKey, Vouched, Voucher};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::{BoundKey, Signature, SigningKey, VerifyingKey};
use monatt_crypto::sha256::Sha256;
use monatt_crypto::zeroize::ct_eq;
use monatt_tpm::module::CertificationRequest;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

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
    /// The registered servers, by the encoding of their identity key.
    registered: BTreeMap<[u8; 32], Registration>,
    /// Current key epoch; bumped on channel re-key, invalidating every
    /// certificate issued before the bump.
    epoch: u64,
    /// Whether the certified-AVK cache is on. Off by default: with fresh
    /// per-session attestation keys the cache can never hit.
    cache_enabled: bool,
    cache_hits: u64,
    cache_misses: u64,
}

/// One server identity key's table (8 KiB), built at most once however
/// many pCAs register the key: every AS replica's pCA holds a clone, and
/// the first to bind the key builds it for all of them.
#[derive(Clone, Default)]
pub(crate) struct IdentityTable(Arc<OnceLock<BoundKey>>);

/// What the pCA holds for one registered server.
struct Registration {
    /// The identity key VKs, which every session's binding is verified
    /// against for as long as the server is deployed.
    identity: VerifyingKey,
    /// Its table. This pCA builds it on the key's second binding, the
    /// rule the AVK slot follows: a server whose reused AVK the cache
    /// answers shows its identity key once per epoch and never pays the
    /// table. Until then the key verifies bare, unless another pCA
    /// sharing the table has built it already.
    table: IdentityTable,
    /// Whether a binding has been verified here.
    seen: bool,
    /// The certified-AVK cache's one entry for this server: its last
    /// certified request this epoch. A new request replaces it, and an
    /// epoch bump empties it, so the cache never holds more than one
    /// certificate per registered server.
    slot: Option<AvkSlot>,
}

impl Registration {
    /// Verifies `request`'s binding under the identity key, through the
    /// helper's verdict when `binding` vouches for exactly these bytes.
    /// The second binding (good or forged) binds the key first.
    fn verify_binding(
        &mut self,
        request: &CertificationRequest,
        binding: Option<Voucher<'_>>,
    ) -> bool {
        let IdentityTable(table) = &self.table;
        if std::mem::replace(&mut self.seen, true) {
            table.get_or_init(|| BoundKey::new(self.identity));
        }
        let element = request.identity_key;
        match table.get() {
            Some(bound) => request.verify_with(&Vouched::new(bound, element, binding)),
            None => request.verify_with(&Vouched::new(&self.identity, element, binding)),
        }
    }

    /// The identity key in the form its bindings verify under.
    fn held(&self) -> HeldKey {
        let IdentityTable(table) = &self.table;
        table.get().map_or(HeldKey::Bare(self.identity), |bound| {
            HeldKey::Bound(bound.clone())
        })
    }
}

/// A cached certification, answered again without re-verifying the
/// identity binding when the server presents a byte-identical request.
struct AvkSlot {
    /// Hash of the *entire* request (identity key, attestation key,
    /// binding signature), so only a byte-identical request hits.
    digest: [u8; 32],
    cert: AvkCertificate,
    /// The certified AVK bound to its table, built on the request's
    /// second sight: a key presented once (fresh per-session AVKs) never
    /// pays the build or its 8 KiB.
    bound: Option<BoundKey>,
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
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Turns on the certified-AVK cache. Only worthwhile together with
    /// server-side attestation-key reuse — with fresh per-session keys
    /// every lookup misses. It holds one certificate per registered
    /// server at most, and binds a server's key (8 KiB) only once the
    /// same request comes back.
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
    /// and every server's certified-AVK slot is emptied with them.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        for server in self.registered.values_mut() {
            server.slot = None;
        }
    }

    /// Certified-AVK cache hits and misses since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Registers a cloud server's identity key at deployment time. The
    /// key is bound on its second binding, not here. Registering a key
    /// again changes nothing.
    pub fn register_server(&mut self, identity: VerifyingKey) {
        self.register_sharing(identity, IdentityTable::default());
    }

    /// [`Self::register_server`], with the key's table shared with every
    /// other pCA `table` is handed to.
    pub(crate) fn register_sharing(&mut self, identity: VerifyingKey, table: IdentityTable) {
        self.registered
            .entry(identity.to_bytes())
            .or_insert(Registration {
                identity,
                table,
                seen: false,
                slot: None,
            });
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
        self.certify_bound(request, None).map(|(cert, _)| cert)
    }

    /// [`Self::certify`], also handing back the certified AVK bound to its
    /// table when the server's slot holds one — the key the quote under
    /// this certificate verifies through. The pCA's one certification
    /// path: every message 4 reaches it, inline or in a flush. A cache
    /// hit binds the AVK if its slot has not yet: the second sight of a
    /// request is the first sign the server reuses its key. A miss
    /// verifies the binding through the registered identity anchor,
    /// taking the helper's verdict when `binding` vouches for exactly
    /// these bytes, then issues and caches the certificate.
    pub(crate) fn certify_bound(
        &mut self,
        request: &CertificationRequest,
        binding: Option<Voucher<'_>>,
    ) -> Result<(AvkCertificate, Option<&BoundKey>), PcaError> {
        let Some(server) = self.registered.get_mut(&request.identity_key.to_bytes()) else {
            return Err(PcaError::UnregisteredServer);
        };
        if !self.cache_enabled {
            if !server.verify_binding(request, binding) {
                return Err(PcaError::BadBinding);
            }
            return Ok((sign_certificate(&self.key, self.epoch, request), None));
        }
        let digest = Self::request_digest(request);
        // A different request leaves the slot in place until its binding
        // verifies, then replaces it.
        let slot = match server.slot.take_if(|slot| ct_eq(&slot.digest, &digest)) {
            Some(mut slot) => {
                self.cache_hits += 1;
                let avk = slot.cert.attestation_key;
                slot.bound.get_or_insert_with(|| BoundKey::new(avk));
                slot
            }
            None => {
                self.cache_misses += 1;
                if !server.verify_binding(request, binding) {
                    return Err(PcaError::BadBinding);
                }
                AvkSlot {
                    digest,
                    cert: sign_certificate(&self.key, self.epoch, request),
                    bound: None,
                }
            }
        };
        let slot = server.slot.insert(slot);
        Ok((slot.cert.clone(), slot.bound.as_ref()))
    }

    /// The key `identity`'s bindings verify against, in the form the
    /// pCA holds it.
    pub(crate) fn identity_anchor(&self, identity: &VerifyingKey) -> Option<HeldKey> {
        let server = self.registered.get(&identity.to_bytes())?;
        Some(server.held())
    }

    /// Registered identity keys the pCA holds bound.
    #[cfg(test)]
    pub(crate) fn identity_tables(&self) -> usize {
        let servers = self.registered.values();
        servers
            .filter(|s| matches!(s.held(), HeldKey::Bound(_)))
            .count()
    }

    /// Certificates in the certified-AVK cache, and how many of their
    /// keys are bound.
    #[cfg(test)]
    pub(crate) fn cached_avks(&self) -> (usize, usize) {
        let slots = self.registered.values().filter_map(|s| s.slot.as_ref());
        slots.fold((0, 0), |(certs, bound), slot| {
            (certs + 1, bound + usize::from(slot.bound.is_some()))
        })
    }

    /// Hashes the full certification request for use as a cache key.
    fn request_digest(request: &CertificationRequest) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&request.identity_key.to_bytes());
        h.update(&request.attestation_key.to_bytes());
        h.update(&request.identity_signature.to_bytes());
        h.finalize()
    }
}

/// Signs a certificate for `request`'s attestation key under `epoch`.
fn sign_certificate(
    key: &SigningKey,
    epoch: u64,
    request: &CertificationRequest,
) -> AvkCertificate {
    AvkCertificate {
        attestation_key: request.attestation_key,
        epoch,
        signature: key.sign(&AvkCertificate::signed_payload(
            &request.attestation_key,
            epoch,
        )),
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
    fn second_sight_binds_the_reused_key() {
        let mut pca = PrivacyCa::new(&mut Drbg::from_seed(56));
        pca.enable_cert_cache();
        let mut tm = TrustModule::provision(Drbg::from_seed(57));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        let request = session.certification_request();
        let (_, bound) = pca.certify_bound(request, None).unwrap();
        assert!(bound.is_none(), "a key seen once stays bare");
        let (cert, bound) = pca.certify_bound(request, None).unwrap();
        assert_eq!(bound.map(BoundKey::key), Some(cert.attestation_key));
        assert_eq!(pca.cached_avks(), (1, 1));
        pca.bump_epoch();
        assert_eq!(pca.cached_avks(), (0, 0));
    }

    #[test]
    fn fresh_keys_hold_one_slot_and_bind_nothing() {
        let mut pca = PrivacyCa::new(&mut Drbg::from_seed(58));
        pca.enable_cert_cache();
        let mut tm = TrustModule::provision(Drbg::from_seed(59));
        pca.register_server(tm.identity_key());
        for _ in 0..1_000 {
            let session = tm.begin_attestation();
            pca.certify(session.certification_request()).unwrap();
        }
        assert_eq!(pca.cache_stats(), (0, 1_000));
        assert_eq!(pca.cached_avks(), (1, 0));
    }

    #[test]
    fn a_new_binding_replaces_only_its_own_servers_slot() {
        let mut pca = PrivacyCa::new(&mut Drbg::from_seed(60));
        pca.enable_cert_cache();
        let mut a = TrustModule::provision(Drbg::from_seed(61));
        let mut b = TrustModule::provision(Drbg::from_seed(62));
        pca.register_server(a.identity_key());
        pca.register_server(b.identity_key());
        let (a_old, b_session) = (a.begin_attestation(), b.begin_attestation());
        for request in [
            a_old.certification_request(),
            b_session.certification_request(),
        ] {
            pca.certify(request).unwrap();
            pca.certify(request).unwrap();
        }
        assert_eq!(pca.cached_avks(), (2, 2));
        pca.certify(a.begin_attestation().certification_request())
            .unwrap();
        // A's old binding is gone, unbound with it; B's stays bound.
        assert_eq!(pca.cached_avks(), (2, 1));
        assert_eq!(pca.cache_stats(), (2, 3));
        pca.certify(b_session.certification_request()).unwrap();
        pca.certify(a_old.certification_request()).unwrap();
        assert_eq!(pca.cache_stats(), (3, 4));
    }

    #[test]
    fn a_bad_binding_leaves_the_slot_alone() {
        let mut pca = PrivacyCa::new(&mut Drbg::from_seed(63));
        pca.enable_cert_cache();
        let mut tm = TrustModule::provision(Drbg::from_seed(64));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        pca.certify(session.certification_request()).unwrap();
        let mut forged = session.certification_request().clone();
        forged.attestation_key = tm.begin_attestation().attestation_key();
        assert_eq!(pca.certify(&forged), Err(PcaError::BadBinding));
        pca.certify(session.certification_request()).unwrap();
        assert_eq!(pca.cache_stats(), (1, 2));
        assert_eq!(pca.cached_avks(), (1, 1));
    }

    #[test]
    fn identity_keys_bind_on_second_sight() {
        let mut pca = PrivacyCa::new(&mut Drbg::from_seed(65));
        let mut tm = TrustModule::provision(Drbg::from_seed(66));
        let identity = tm.identity_key();
        pca.register_server(identity);
        assert_eq!(pca.identity_tables(), 0, "registering builds no table");
        let anchor = |pca: &PrivacyCa| match pca.identity_anchor(&identity) {
            Some(HeldKey::Bare(key)) => (false, key),
            Some(HeldKey::Bound(bound)) => (true, bound.key()),
            None => panic!("registered"),
        };
        assert_eq!(anchor(&pca), (false, identity));
        for (sight, bound) in [(1, false), (2, true), (3, true)] {
            let session = tm.begin_attestation();
            let cert = pca.certify(session.certification_request()).unwrap();
            assert!(cert.verify(&pca.public_key(), pca.epoch()), "sight {sight}");
            assert_eq!(anchor(&pca), (bound, identity), "sight {sight}");
        }
        assert_eq!(pca.identity_tables(), 1);
    }

    #[test]
    fn replicas_share_one_identity_table() {
        // Two pCAs registering one key share its table: the first to see
        // a second binding builds it, and the other verifies through it
        // from its own first binding on. Neither builds it before then.
        let mut tm = TrustModule::provision(Drbg::from_seed(71));
        let identity = tm.identity_key();
        let table = IdentityTable::default();
        let mut pcas = [72, 73].map(|seed| PrivacyCa::new(&mut Drbg::from_seed(seed)));
        for pca in &mut pcas {
            pca.register_sharing(identity, table.clone());
        }
        let [a, b] = &mut pcas;
        let mut certify = |pca: &mut PrivacyCa| {
            let session = tm.begin_attestation();
            pca.certify(session.certification_request()).unwrap();
        };
        certify(a);
        assert_eq!((a.identity_tables(), b.identity_tables()), (0, 0));
        certify(a);
        assert_eq!((a.identity_tables(), b.identity_tables()), (1, 1));
        certify(b);
        assert!(matches!(
            b.identity_anchor(&identity),
            Some(HeldKey::Bound(_))
        ));
        let IdentityTable(shared) = &table;
        assert_eq!(Arc::strong_count(shared), 3, "this handle and one per pCA");
    }

    #[test]
    fn a_forged_binding_fails_alike_at_first_and_second_sight() {
        let mut pca = PrivacyCa::new(&mut Drbg::from_seed(67));
        let mut tm = TrustModule::provision(Drbg::from_seed(68));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        let mut forged = session.certification_request().clone();
        forged.attestation_key = tm.begin_attestation().attestation_key();
        for tables in [0, 1] {
            assert_eq!(pca.certify(&forged), Err(PcaError::BadBinding));
            assert_eq!(pca.identity_tables(), tables);
        }
        // The key it bound verifies a genuine binding.
        pca.certify(session.certification_request()).unwrap();
    }

    #[test]
    fn a_cached_binding_shows_the_identity_key_once() {
        // A reused AVK is verified under the identity key once per epoch;
        // every later request is a cache hit and leaves the key bare.
        let mut pca = PrivacyCa::new(&mut Drbg::from_seed(69));
        pca.enable_cert_cache();
        let mut tm = TrustModule::provision(Drbg::from_seed(70));
        pca.register_server(tm.identity_key());
        let session = tm.begin_attestation();
        for _ in 0..5 {
            pca.certify(session.certification_request()).unwrap();
        }
        assert_eq!(pca.cache_stats(), (4, 1));
        assert_eq!(pca.identity_tables(), 0);
        // A second epoch's miss is the key's second sight.
        pca.bump_epoch();
        pca.certify(session.certification_request()).unwrap();
        assert_eq!(pca.identity_tables(), 1);
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
