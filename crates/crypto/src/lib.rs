//! # monatt-crypto
//!
//! From-scratch cryptographic substrate for the CloudMonatt reproduction.
//!
//! The CloudMonatt attestation protocol (Figure 3 of the paper) needs
//! identity signatures, per-session attestation keys, hash quotes,
//! SSL-style session-key establishment and symmetric record protection.
//! This crate provides all of those primitives without external
//! cryptography dependencies:
//!
//! * [`bigint`] — fixed-width 256/512-bit unsigned integers.
//! * [`montgomery`] — Montgomery-form multiplication and windowed
//!   exponentiation for odd moduli (the hot-path kernels).
//! * [`comb`] — fixed-base exponentiation tables for long-lived bases
//!   (the generator, trust-anchor keys).
//! * [`group`] — a 256-bit safe-prime Schnorr group: its element field
//!   mod `p` and its scalar field mod `q`.
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), compressing on the CPU's SHA
//!   extensions where it has them.
//! * [`hmac`] — HMAC-SHA256 and HKDF (RFCs 2104/5869).
//! * [`drbg`] — a ChaCha20-based deterministic random bit generator.
//! * [`aes`] — AES-128 with CTR mode (FIPS 197), CTR on AES-NI where the
//!   CPU has it.
//! * [`schnorr`] — Schnorr signatures with deterministic nonces, verified
//!   against a bare key or a key bound to its table.
//! * [`batch`] — random-linear-combination batch verification.
//! * [`dh`] — Diffie-Hellman key agreement.
//! * [`authenc`] — encrypt-then-MAC authenticated encryption.
//! * [`zeroize`] — best-effort key zeroization and constant-time
//!   comparison (the runtime half of the `monatt-lint` secret-hygiene and
//!   constant-time rules).
//!
//! **This is a simulation substrate, not a production cryptography
//! library**: nothing is constant-time and the 256-bit mod-p group trades
//! security margin for simulation speed.
//!
//! ## Example: sign and verify an attestation report
//!
//! ```
//! use monatt_crypto::drbg::Drbg;
//! use monatt_crypto::schnorr::SigningKey;
//!
//! # fn main() -> Result<(), monatt_crypto::error::CryptoError> {
//! let mut rng = Drbg::from_seed(7);
//! let identity = SigningKey::generate(&mut rng);
//! let sig = identity.sign(b"report: VM 12 healthy");
//! identity.verifying_key().verify(b"report: VM 12 healthy", &sig)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// `unsafe` lives in the two hardware modules below and nowhere else.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aes;
pub mod authenc;
pub mod batch;
pub mod bigint;
pub mod comb;
pub mod dh;
pub mod drbg;
pub mod error;
pub mod group;
pub mod hmac;
pub mod montgomery;
pub mod schnorr;
pub mod sha256;
pub mod zeroize;

// The CPU's own instructions for the two symmetric primitives, reached
// through `aes` and `sha256` after run-time detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aes_ni;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni;

pub use authenc::SealKey;
pub use batch::{batch_verify, batch_verify_each, BatchItem};
pub use bigint::U256;
pub use dh::{EphemeralSecret, PublicShare};
pub use drbg::Drbg;
pub use error::CryptoError;
pub use schnorr::{BoundKey, Signature, SigningKey, Verifier, VerifyingKey};
pub use sha256::{sha256, sha256_concat, Sha256};
pub use zeroize::{ct_eq, zeroize_bytes, Zeroizing};
