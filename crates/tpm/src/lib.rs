//! # monatt-tpm
//!
//! The Trust Module substrate for the CloudMonatt reproduction — the
//! hardware root of trust that Figure 2 of the paper adds to each secure
//! cloud server, plus classic TPM building blocks:
//!
//! * [`pcr`] — Platform Configuration Registers with extend-only semantics
//!   and a measurement log (the Integrity Measurement Unit).
//! * [`quote`] — hash-then-sign quotes over measurement fields
//!   (`Q = H(Vid || rM || M || N)` in the protocol of Figure 3).
//! * [`module`] — the [`TrustModule`] facade: identity key, per-session
//!   attestation keys with pCA certification requests, RNG and PCRs.
//!
//! The paper's *Trust Evidence Registers* (Section 3.2.4) are not kept
//! here: they are counted once, in each VM's row of the hypervisor
//! simulator (`monatt_hypervisor::profile`), and the Monitor Module
//! reads them straight into the measurement that the quote covers.
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

pub use module::{AttestationSession, CertificationRequest, TrustModule};
pub use pcr::{Digest, MeasurementEvent, PcrBank};
pub use quote::{Quote, QuoteError};
