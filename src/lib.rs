//! # CloudMonatt
//!
//! A full-system reproduction of *CloudMonatt: an Architecture for Security
//! Health Monitoring and Attestation of Virtual Machines in Cloud Computing*
//! (Zhang & Lee, ISCA 2015).
//!
//! This facade crate re-exports every subsystem of the reproduction:
//!
//! * [`core`] — the CloudMonatt architecture itself: Cloud Controller,
//!   Attestation Server, Cloud Server agents, the Figure-3 attestation
//!   protocol, property interpretation, VM lifecycle and remediation
//!   responses.
//! * [`crypto`] — from-scratch cryptographic substrate (SHA-256, HMAC, HKDF,
//!   AES-128-CTR, ChaCha20 DRBG, Schnorr signatures and Diffie-Hellman over a
//!   256-bit safe-prime group).
//! * [`tpm`] — the Trust Module: PCRs, Trust Evidence Registers, identity and
//!   per-session attestation keys, quote generation.
//! * [`hypervisor`] — a discrete-event Xen-style cloud server simulator with
//!   a credit scheduler (UNDER/OVER/BOOST), IPIs, VM introspection, a VMM
//!   profile tool and a performance monitor unit.
//! * [`workloads`] — SPEC-like CPU-bound programs and cloud service workload
//!   models (database, file, web, app, stream, mail).
//! * [`attacks`] — the paper's two new attacks (CPU covert channel,
//!   IPI-boost availability attack) plus rootkit and image-tampering threats.
//! * [`net`] — simulated network with Dolev-Yao attacker hooks and an
//!   SSL-like authenticated secure channel.
//! * [`verifier`] — a bounded symbolic (Dolev-Yao) protocol verifier used to
//!   check the attestation protocol's secrecy, integrity and authentication
//!   properties (Section 7.2.2 of the paper).
//!
//! ## Quickstart
//!
//! ```
//! use cloudmonatt::core::{CloudBuilder, Flavor, Image, SecurityProperty, VmRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cloud = CloudBuilder::new().servers(2).seed(42).build();
//! let vid = cloud.request_vm(
//!     VmRequest::new(Flavor::Small, Image::Cirros)
//!         .require(SecurityProperty::StartupIntegrity),
//! )?;
//! let report = cloud.startup_attest_current(vid, SecurityProperty::StartupIntegrity)?;
//! assert!(report.healthy());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use monatt_attacks as attacks;
pub use monatt_core as core;
pub use monatt_crypto as crypto;
pub use monatt_hypervisor as hypervisor;
pub use monatt_net as net;
pub use monatt_tpm as tpm;
pub use monatt_verifier as verifier;
pub use monatt_workloads as workloads;
