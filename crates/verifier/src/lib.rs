//! # monatt-verifier
//!
//! A bounded symbolic (Dolev-Yao) protocol verifier — the reproduction's
//! stand-in for ProVerif in Section 7.2.2 of the CloudMonatt paper.
//!
//! * [`term`] — the symbolic message algebra (typed atoms, pairing,
//!   encryption, signatures, hashes).
//! * [`knowledge`] — attacker knowledge with decomposition saturation and
//!   derivability checking.
//! * [`protocol`] — roles, linear scripts and message patterns (pattern
//!   matching models the receiver's cryptographic checks).
//! * [`search`] — bounded exploration of attacker deliveries, checking
//!   secrecy and correspondence (authentication/integrity) assertions.
//! * [`cloudmonatt`] — the Figure-3 attestation protocol model plus
//!   weakened variants demonstrating that every ingredient (signatures,
//!   encryption, nonces, per-session attestation keys) is load-bearing.
//!
//! The search is *typed* (protocol variables only unify with terms of
//! their kind) and *bounded* (hole candidates come from the subterm
//! universe of the attacker's knowledge, plus fresh attacker atoms) —
//! the standard restrictions for terminating Dolev-Yao checking. A
//! `truncated` flag reports when the branch budget was exhausted, so a
//! "verified" verdict is never silently partial.
//!
//! ## Example
//!
//! ```
//! use monatt_verifier::cloudmonatt::{verify_cloudmonatt, ModelConfig};
//!
//! let outcome = verify_cloudmonatt(&ModelConfig::full());
//! assert!(outcome.verified());
//!
//! let weakened = ModelConfig { sign_quotes: false, leak_kz: true, ..ModelConfig::full() };
//! assert!(!verify_cloudmonatt(&weakened).verified());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cloudmonatt;
pub mod knowledge;
pub mod protocol;
pub mod search;
pub mod term;

pub use cloudmonatt::{build, verify_cloudmonatt, ModelConfig};
pub use knowledge::Knowledge;
pub use protocol::{Bindings, EventRecord, Pat, Protocol, Role, Step};
pub use search::{verify, Correspondence, Properties, SearchConfig, VerifyOutcome, Violation};
pub use term::{Kind, Term};
