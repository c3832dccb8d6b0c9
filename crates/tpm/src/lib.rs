//! # monatt-tpm
//!
//! The Trust Module substrate for the CloudMonatt reproduction — the
//! hardware root of trust that Figure 2 of the paper adds to each secure
//! cloud server, plus classic TPM building blocks:
//!
//! * [`pcr`] — Platform Configuration Registers with extend-only semantics
//!   and a measurement log (the Integrity Measurement Unit).
//! * [`registers`] — the paper's new *Trust Evidence Registers*:
//!   programmable security-measurement counters (histograms and
//!   accumulators).
//! * [`quote`] — hash-then-sign quotes over measurement fields
//!   (`Q = H(Vid || rM || M || N)` in the protocol of Figure 3).
//! * [`module`] — the [`TrustModule`] facade: identity key, per-session
//!   attestation keys with pCA certification requests, RNG, PCRs and
//!   registers.
//!
//! ## Example: one attestation session
//!
//! ```
//! use monatt_crypto::drbg::Drbg;
//! use monatt_tpm::TrustModule;
//!
//! let mut tm = TrustModule::provision(Drbg::from_seed(1));
//! let session = tm.begin_attestation();
//! assert!(session.certification_request().verify());
//! let quote = session.quote(&[b"vm-12", b"cpu_time", b"123456", b"nonce"]);
//! quote
//!     .verify(&session.attestation_key(), &[b"vm-12", b"cpu_time", b"123456", b"nonce"])
//!     .unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod module;
pub mod pcr;
pub mod quote;
pub mod registers;

pub use module::{AttestationSession, CertificationRequest, TrustModule};
pub use pcr::{Digest, MeasurementEvent, PcrBank};
pub use quote::{Quote, QuoteError};
pub use registers::{RegisterLayout, TrustEvidenceRegisters};
