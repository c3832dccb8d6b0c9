//! # monatt-net
//!
//! The network substrate of the CloudMonatt reproduction:
//!
//! * [`wire`] — a deterministic canonical encoding for protocol messages
//!   (quotes and signatures are computed over these bytes).
//! * [`channel`] — SSL-like mutually authenticated secure channels:
//!   signed Diffie-Hellman handshake, directional record keys (the
//!   session keys Kx, Ky, Kz of Figure 3), sequence-numbered records with
//!   replay protection.
//! * [`sim`] — a simulated network with a latency model and pluggable
//!   Dolev-Yao adversaries (eavesdrop, tamper, replay, drop), matching
//!   the threat model of Section 3.3.
//!
//! ## Example: a protected hop survives a tamperer
//!
//! ```
//! use monatt_crypto::drbg::Drbg;
//! use monatt_crypto::schnorr::SigningKey;
//! use monatt_net::channel::handshake_pair;
//! use monatt_net::sim::{SimNetwork, Tamperer};
//!
//! let mut rng = Drbg::from_seed(1);
//! let client = SigningKey::generate(&mut rng);
//! let server = SigningKey::generate(&mut rng);
//! let (mut c, mut s) = handshake_pair(&mut rng, &client, &server).unwrap();
//!
//! let mut net = SimNetwork::default();
//! net.set_attacker(Box::new(Tamperer::new("")));
//! let record = c.seal(b"", b"attestation request");
//! let delivered = net.transmit("client", "server", &record).payload.unwrap();
//! assert!(s.open(b"", &delivered).is_err(), "tampering must be detected");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod sim;
pub mod wire;

pub use channel::{
    complete, handshake_pair, initiate, respond, ChannelError, Hello, HelloReply, SecureChannel,
    REPLAY_WINDOW,
};
pub use sim::{
    Delivery, Eavesdropper, FaultModel, FaultStats, Intercept, LatencyModel, NetworkAttacker,
    Replayer, SimNetwork, Tamperer, TransmitRecord,
};
pub use wire::{Reader, Wire, WireError, Writer};
