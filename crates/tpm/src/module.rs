//! The Trust Module (Figure 2 of the paper): a hardware root of trust on
//! every CloudMonatt-secure cloud server.
//!
//! It contains the server's **identity key** (never released), a **key
//! generator** and **random number generator**, a **crypto engine** (here,
//! the `monatt-crypto` primitives), **Trust Evidence Registers** for
//! security measurements, and the PCR bank of the integrity measurement
//! unit.
//!
//! For each attestation session the module generates a fresh attestation
//! key pair `{AVKs, ASKs}` and signs the public half with the identity key
//! so the privacy CA can certify it — keeping the server anonymous to
//! everyone but the pCA (Section 3.4.2).

use crate::pcr::PcrBank;
use crate::quote::Quote;
use crate::registers::{RegisterLayout, TrustEvidenceRegisters};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::{Signature, SigningKey, Verifier, VerifyingKey};

/// A certification request: the new session attestation public key, signed
/// by the server's long-term identity key. Sent to the privacy CA.
#[derive(Clone, Debug)]
pub struct CertificationRequest {
    /// The session attestation verification key AVKs.
    pub attestation_key: VerifyingKey,
    /// Signature over `attestation_key` by the server's identity key SKs.
    pub identity_signature: Signature,
    /// The identity verification key VKs (so the pCA can look the server
    /// up; in deployment the pCA already has it registered).
    pub identity_key: VerifyingKey,
}

impl CertificationRequest {
    /// Verifies the identity signature binding the attestation key to the
    /// identity key the request names.
    pub fn verify(&self) -> bool {
        self.verify_with(&self.identity_key)
    }

    /// Verifies the identity signature against `identity`, the form of
    /// [`Self::identity_key`] the caller holds: the privacy CA passes the
    /// key it bound when the server registered.
    pub fn verify_with(&self, identity: &impl Verifier) -> bool {
        identity
            .verify(&self.attestation_key.to_bytes(), &self.identity_signature)
            .is_ok()
    }
}

/// An attestation session: a fresh key pair plus the certification request
/// for its public half.
pub struct AttestationSession {
    signing_key: SigningKey,
    request: CertificationRequest,
}

impl std::fmt::Debug for AttestationSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Identify the session by its public key; the signing key redacts
        // itself but is omitted entirely for defense in depth.
        f.debug_struct("AttestationSession")
            .field("attestation_key", &self.signing_key.verifying_key())
            .finish_non_exhaustive()
    }
}

impl AttestationSession {
    /// The certification request to forward to the pCA.
    pub fn certification_request(&self) -> &CertificationRequest {
        &self.request
    }

    /// The session's public attestation key AVKs.
    pub fn attestation_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// Produces a signed quote over `fields` with the session key ASKs.
    pub fn quote(&self, fields: &[&[u8]]) -> Quote {
        Quote::create(&self.signing_key, fields)
    }
}

/// The hardware Trust Module of one cloud server.
pub struct TrustModule {
    identity: SigningKey,
    rng: Drbg,
    pcrs: PcrBank,
    registers: Option<TrustEvidenceRegisters>,
}

impl std::fmt::Debug for TrustModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Neither the identity key nor the DRBG state belongs in logs.
        f.debug_struct("TrustModule")
            .field("identity_key", &self.identity.verifying_key())
            .field("pcrs", &self.pcrs)
            .field("registers", &self.registers)
            .finish_non_exhaustive()
    }
}

impl TrustModule {
    /// Provisions a Trust Module with a fresh identity key drawn from
    /// `rng` (models secure key insertion at deployment, Section 3.4.2).
    pub fn provision(mut rng: Drbg) -> Self {
        let identity = SigningKey::generate(&mut rng);
        TrustModule {
            identity,
            rng,
            pcrs: PcrBank::new(),
            registers: None,
        }
    }

    /// The server's public identity key VKs.
    pub fn identity_key(&self) -> VerifyingKey {
        self.identity.verifying_key()
    }

    /// Generates a fresh nonce.
    pub fn fresh_nonce(&mut self) -> [u8; 32] {
        self.rng.next_bytes32()
    }

    /// Starts a new attestation session: generates `{AVKs, ASKs}` and signs
    /// AVKs with the identity key.
    pub fn begin_attestation(&mut self) -> AttestationSession {
        let signing_key = SigningKey::generate(&mut self.rng);
        let avk = signing_key.verifying_key();
        let identity_signature = self.identity.sign(&avk.to_bytes());
        AttestationSession {
            signing_key,
            request: CertificationRequest {
                attestation_key: avk,
                identity_signature,
                identity_key: self.identity.verifying_key(),
            },
        }
    }

    /// Access to the PCR bank (integrity measurement unit).
    pub fn pcrs(&self) -> &PcrBank {
        &self.pcrs
    }

    /// Mutable access to the PCR bank.
    pub fn pcrs_mut(&mut self) -> &mut PcrBank {
        &mut self.pcrs
    }

    /// Programs the Trust Evidence Registers with a new layout, discarding
    /// any previous contents.
    pub fn program_registers(&mut self, layout: RegisterLayout) {
        self.registers = Some(TrustEvidenceRegisters::new(layout));
    }

    /// Access to the Trust Evidence Registers, if programmed.
    pub fn registers(&self) -> Option<&TrustEvidenceRegisters> {
        self.registers.as_ref()
    }

    /// Mutable access to the Trust Evidence Registers, if programmed.
    pub fn registers_mut(&mut self) -> Option<&mut TrustEvidenceRegisters> {
        self.registers.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_crypto::sha256::sha256;

    fn module(seed: u64) -> TrustModule {
        TrustModule::provision(Drbg::from_seed(seed))
    }

    #[test]
    fn identity_is_stable() {
        let m = module(1);
        assert_eq!(m.identity_key(), m.identity_key());
    }

    #[test]
    fn attestation_sessions_use_fresh_keys() {
        let mut m = module(2);
        let s1 = m.begin_attestation();
        let s2 = m.begin_attestation();
        assert_ne!(s1.attestation_key(), s2.attestation_key());
        // Neither session key equals the identity key (anonymity).
        assert_ne!(s1.attestation_key(), m.identity_key());
    }

    #[test]
    fn certification_request_verifies() {
        let mut m = module(3);
        let session = m.begin_attestation();
        assert!(session.certification_request().verify());
    }

    #[test]
    fn forged_certification_request_fails() {
        let mut m1 = module(4);
        let mut m2 = module(5);
        let s1 = m1.begin_attestation();
        let s2 = m2.begin_attestation();
        // Splice m2's attestation key into m1's request.
        let forged = CertificationRequest {
            attestation_key: s2.attestation_key(),
            identity_signature: s1.certification_request().identity_signature,
            identity_key: m1.identity_key(),
        };
        assert!(!forged.verify());
    }

    #[test]
    fn session_quotes_verify_with_session_key() {
        let mut m = module(6);
        let session = m.begin_attestation();
        let quote = session.quote(&[b"vid", b"measurement", b"nonce"]);
        assert!(quote
            .verify(
                &session.attestation_key(),
                &[b"vid", b"measurement", b"nonce"]
            )
            .is_ok());
        assert!(quote
            .verify(&m.identity_key(), &[b"vid", b"measurement", b"nonce"])
            .is_err());
    }

    #[test]
    fn nonces_are_fresh() {
        let mut m = module(7);
        assert_ne!(m.fresh_nonce(), m.fresh_nonce());
    }

    #[test]
    fn pcr_and_register_plumbing() {
        let mut m = module(8);
        m.pcrs_mut().extend(0, sha256(b"hypervisor"), "hypervisor");
        assert_eq!(m.pcrs().log().len(), 1);
        assert!(m.registers().is_none());
        m.program_registers(RegisterLayout::Accumulators { count: 1 });
        let regs = m.registers_mut().unwrap();
        let token = regs.unlock();
        regs.accumulate(&token, 0, 42);
        assert_eq!(m.registers().unwrap().snapshot(), vec![42]);
        // Reprogramming clears.
        m.program_registers(RegisterLayout::Accumulators { count: 1 });
        assert_eq!(m.registers().unwrap().snapshot(), vec![0]);
    }
}
