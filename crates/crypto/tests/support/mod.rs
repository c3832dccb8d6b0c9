//! Reference oracles for the differential suites.
//!
//! Each kernel `monatt-crypto` ships has exactly one implementation in
//! `src/`; the slow, easy-to-audit versions the kernels replaced live
//! here, built only on the crate's public API, so the suites can check
//! the shipped kernels bit for bit without the oracles shipping too.
//! Every test binary includes this module and uses a different part of
//! it, hence the blanket `dead_code` allowance.

#![allow(dead_code)]

pub mod aes_ref;
pub mod bignum_ref;
