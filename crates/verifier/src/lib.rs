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
//! * [`mod@lower`] — the attestation programs `monatt-core` compiles
//!   (Figure 3 and every other `Protocol` term), lowered to roles, plus
//!   weakened configurations showing that every ingredient (signatures,
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
//! use monatt_core::Protocol;
//! use monatt_verifier::{verify_program, ModelConfig, SearchConfig};
//!
//! let figure3 = Protocol::figure3_customer();
//! let outcomes = verify_program(&figure3, &ModelConfig::full(), SearchConfig::default()).unwrap();
//! assert!(outcomes[0].verified());
//!
//! let weakened = ModelConfig { sign_quotes: false, leak_kz: true, ..ModelConfig::full() };
//! let outcomes = verify_program(&figure3, &weakened, SearchConfig::default()).unwrap();
//! assert!(!outcomes[0].verified());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod knowledge;
pub mod lower;
pub mod protocol;
pub mod search;
pub mod term;

pub use knowledge::Knowledge;
pub use lower::{lower, verify_program, Model, ModelConfig};
pub use protocol::{Bindings, EventRecord, Pat, Protocol, Role, Step};
pub use search::{verify, Correspondence, Properties, SearchConfig, VerifyOutcome, Violation};
pub use term::{Kind, Term};
