//! SSL-like authenticated secure channels.
//!
//! The CloudMonatt architecture "expects the customer, Cloud Controller,
//! Attestation Server and secure Cloud Servers to implement the SSL
//! protocol" (Section 3.4.1): mutual authentication with long-term
//! identity key pairs, then symmetric session keys (Kx, Ky, Kz in
//! Figure 3) protecting each hop.
//!
//! The handshake here is a signed Diffie-Hellman exchange:
//!
//! 1. Initiator → Responder: DH share `A`, signed by the initiator.
//! 2. Responder → Initiator: DH share `B`, signature over `A || B`.
//! 3. Both derive directional [`SealKey`]s from the shared secret bound to
//!    the transcript, and number records with sequence counters (replay
//!    protection).

use crate::wire::{Reader, Wire, WireError, Writer};
use monatt_crypto::dh::{EphemeralSecret, PublicShare};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::error::CryptoError;
use monatt_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use monatt_crypto::SealKey;

/// Channel errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChannelError {
    /// A handshake signature did not verify — wrong peer or tampering.
    PeerAuthentication,
    /// A handshake share was malformed.
    BadShare,
    /// A record failed authentication (tampering).
    RecordAuthentication,
    /// A record carried a sequence number already accepted (or too old
    /// to tell): a benign retransmit duplicate or a replay attack.
    /// Either way the record is rejected, but the channel state is
    /// untouched — later records still open.
    DuplicateRecord,
    /// A record was malformed.
    Malformed,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::PeerAuthentication => write!(f, "peer authentication failed"),
            ChannelError::BadShare => write!(f, "malformed handshake share"),
            ChannelError::RecordAuthentication => write!(f, "record authentication failed"),
            ChannelError::DuplicateRecord => write!(f, "duplicate or replayed record rejected"),
            ChannelError::Malformed => write!(f, "malformed record"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<CryptoError> for ChannelError {
    fn from(e: CryptoError) -> Self {
        match e {
            CryptoError::InvalidKey => ChannelError::BadShare,
            CryptoError::InvalidSignature => ChannelError::PeerAuthentication,
            _ => ChannelError::RecordAuthentication,
        }
    }
}

/// First handshake flight: the initiator's signed DH share.
#[derive(Clone, Debug)]
pub struct Hello {
    share: PublicShare,
    signature: Signature,
}

impl Wire for Hello {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.share.to_bytes());
        w.put_fixed(&self.signature.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let share_bytes: [u8; 32] = r.get_fixed()?;
        let sig_bytes: [u8; 64] = r.get_fixed()?;
        Ok(Hello {
            share: PublicShare::from_bytes(&share_bytes).map_err(|_| WireError::InvalidKey)?,
            signature: Signature::from_bytes(&sig_bytes),
        })
    }
}

/// Second handshake flight: the responder's signed DH share (signature
/// covers both shares, binding the transcript).
#[derive(Clone, Debug)]
pub struct HelloReply {
    share: PublicShare,
    signature: Signature,
}

impl Wire for HelloReply {
    fn encode(&self, w: &mut Writer) {
        w.put_fixed(&self.share.to_bytes());
        w.put_fixed(&self.signature.to_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let share_bytes: [u8; 32] = r.get_fixed()?;
        let sig_bytes: [u8; 64] = r.get_fixed()?;
        Ok(HelloReply {
            share: PublicShare::from_bytes(&share_bytes).map_err(|_| WireError::InvalidKey)?,
            signature: Signature::from_bytes(&sig_bytes),
        })
    }
}

/// Initiator-side state between the two flights.
pub struct PendingHandshake {
    secret: EphemeralSecret,
    hello_share: PublicShare,
}

impl std::fmt::Debug for PendingHandshake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The ephemeral secret redacts itself; keep the whole handshake
        // state down to the public share regardless.
        f.debug_struct("PendingHandshake")
            .field("hello_share", &self.hello_share)
            .finish_non_exhaustive()
    }
}

/// An established channel endpoint: directional keys + sequence numbers,
/// plus a cached label naming the remote endpoint so per-record paths
/// never re-format peer names.
///
/// Receiving uses a DTLS-style sliding anti-replay window rather than a
/// strict monotonic cursor: a late (reordered) record within
/// [`REPLAY_WINDOW`] of the newest accepted sequence is still accepted
/// exactly once, while any second copy — a retransmit duplicate or an
/// attacker replay — is rejected with [`ChannelError::DuplicateRecord`]
/// without desynchronizing the channel.
pub struct SecureChannel {
    send_key: SealKey,
    recv_key: SealKey,
    send_seq: u64,
    /// Highest sequence number accepted so far (meaningful only when
    /// `recv_count > 0`).
    recv_max: u64,
    /// Bitmap over the window: bit `i` set means sequence
    /// `recv_max - i` was accepted.
    recv_window: u64,
    /// Total records accepted.
    recv_count: u64,
    peer: Box<str>,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Directional session keys stay out of the output; sequence
        // numbers and the peer label are enough for diagnostics.
        f.debug_struct("SecureChannel")
            .field("peer", &self.peer)
            .field("send_seq", &self.send_seq)
            .field("recv_max", &self.recv_max)
            .field("recv_count", &self.recv_count)
            .finish_non_exhaustive()
    }
}

/// Width of the receive anti-replay window, in records. Records older
/// than `recv_max - REPLAY_WINDOW + 1` are rejected as replays even if
/// never seen — the window is the bound on how much reordering a
/// retransmitting sender can produce.
pub const REPLAY_WINDOW: u64 = 64;

/// Label used until [`SecureChannel::set_peer`] names the remote endpoint.
const DEFAULT_PEER: &str = "peer";

#[cold]
fn transcript_context(a: &PublicShare, b: &PublicShare) -> Vec<u8> {
    let mut ctx = Vec::with_capacity(64 + 16);
    ctx.extend_from_slice(b"monatt-channel-v1");
    ctx.extend_from_slice(&a.to_bytes());
    ctx.extend_from_slice(&b.to_bytes());
    ctx
}

/// Starts a handshake: produces the first flight and pending state.
pub fn initiate(rng: &mut Drbg, identity: &SigningKey) -> (Hello, PendingHandshake) {
    let secret = EphemeralSecret::generate(rng);
    let share = secret.public_share();
    let signature = identity.sign(&share.to_bytes());
    (
        Hello { share, signature },
        PendingHandshake {
            secret,
            hello_share: share,
        },
    )
}

/// Responder side: verifies the first flight against the initiator's
/// known identity key and produces the reply plus an established channel.
///
/// # Errors
///
/// [`ChannelError::PeerAuthentication`] on a bad signature,
/// [`ChannelError::BadShare`] on an invalid group element.
#[cold]
pub fn respond(
    rng: &mut Drbg,
    identity: &SigningKey,
    initiator_key: &VerifyingKey,
    hello: &Hello,
) -> Result<(HelloReply, SecureChannel), ChannelError> {
    initiator_key
        .verify(&hello.share.to_bytes(), &hello.signature)
        .map_err(|_| ChannelError::PeerAuthentication)?;
    let secret = EphemeralSecret::generate(rng);
    let my_share = secret.public_share();
    let ctx = transcript_context(&hello.share, &my_share);
    let session = secret.agree(&hello.share, &ctx)?;
    let mut sign_payload = hello.share.to_bytes().to_vec();
    sign_payload.extend_from_slice(&my_share.to_bytes());
    let signature = identity.sign(&sign_payload);
    // Responder sends with the "r2i" key and receives with "i2r".
    Ok((
        HelloReply {
            share: my_share,
            signature,
        },
        SecureChannel {
            send_key: SealKey::derive(&session, b"r2i"),
            recv_key: SealKey::derive(&session, b"i2r"),
            send_seq: 0,
            recv_max: 0,
            recv_window: 0,
            recv_count: 0,
            peer: DEFAULT_PEER.into(),
        },
    ))
}

/// Initiator side: verifies the reply against the responder's known
/// identity key and establishes the channel.
///
/// # Errors
///
/// [`ChannelError::PeerAuthentication`] on a bad signature,
/// [`ChannelError::BadShare`] on an invalid group element.
#[cold]
pub fn complete(
    pending: PendingHandshake,
    responder_key: &VerifyingKey,
    reply: &HelloReply,
) -> Result<SecureChannel, ChannelError> {
    let mut signed = pending.hello_share.to_bytes().to_vec();
    signed.extend_from_slice(&reply.share.to_bytes());
    responder_key
        .verify(&signed, &reply.signature)
        .map_err(|_| ChannelError::PeerAuthentication)?;
    let ctx = transcript_context(&pending.hello_share, &reply.share);
    let session = pending.secret.agree(&reply.share, &ctx)?;
    Ok(SecureChannel {
        send_key: SealKey::derive(&session, b"i2r"),
        recv_key: SealKey::derive(&session, b"r2i"),
        send_seq: 0,
        recv_max: 0,
        recv_window: 0,
        recv_count: 0,
        peer: DEFAULT_PEER.into(),
    })
}

impl SecureChannel {
    /// Seals a record. The sequence number is carried in an 8-byte header
    /// (authenticated through the nonce, DTLS-style), so a tampered or
    /// dropped record does not desynchronize the channel.
    ///
    /// Allocating convenience; the warm path uses [`Self::seal_into`].
    #[cold]
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut record = Vec::new();
        self.seal_into(aad, plaintext, &mut record);
        record
    }

    /// [`Self::seal`] into a caller-owned record buffer (contents
    /// replaced, capacity reused) — the steady-state form for the
    /// session hot path.
    pub fn seal_into(&mut self, aad: &[u8], plaintext: &[u8], record: &mut Vec<u8>) {
        let seq = self.send_seq;
        self.send_seq += 1;
        let nonce = seq_nonce(seq);
        record.clear();
        record.extend_from_slice(&seq.to_be_bytes());
        self.send_key.seal_into(&nonce, aad, plaintext, record);
    }

    /// Opens a record, enforcing at-most-once delivery through the
    /// sliding anti-replay window: gaps (dropped records) are tolerated,
    /// a reordered record within [`REPLAY_WINDOW`] of the newest accepted
    /// sequence is accepted exactly once, and any already-accepted or
    /// out-of-window sequence is rejected without touching channel state.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Malformed`] for records too short to carry a
    /// header, [`ChannelError::DuplicateRecord`] for a duplicate or
    /// replay, [`ChannelError::RecordAuthentication`] on tampering.
    ///
    /// Allocating convenience; the warm path uses [`Self::open_into`].
    #[cold]
    pub fn open(&mut self, aad: &[u8], record: &[u8]) -> Result<Vec<u8>, ChannelError> {
        let mut pt = Vec::new();
        self.open_into(aad, record, &mut pt)?;
        Ok(pt)
    }

    /// [`Self::open`] into a caller-owned plaintext buffer (contents
    /// replaced, capacity reused; unspecified on error) — the
    /// steady-state form for the session hot path.
    ///
    /// # Errors
    ///
    /// As [`Self::open`].
    pub fn open_into(
        &mut self,
        aad: &[u8],
        record: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ChannelError> {
        if record.len() < 8 {
            return Err(ChannelError::Malformed);
        }
        let (seq_prefix, body) = record.split_at(8);
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(seq_prefix);
        let seq = u64::from_be_bytes(seq_bytes);
        // Replay check first — it is cheap and needs no key material.
        if self.recv_count > 0 && seq <= self.recv_max {
            let age = self.recv_max - seq;
            if age >= REPLAY_WINDOW {
                // Too old to track: reject conservatively.
                return Err(ChannelError::DuplicateRecord);
            }
            if self.recv_window & (1u64 << age) != 0 {
                return Err(ChannelError::DuplicateRecord);
            }
        }
        let nonce = seq_nonce(seq);
        out.clear();
        self.recv_key
            .open_into(&nonce, aad, body, out)
            .map_err(|_| ChannelError::RecordAuthentication)?;
        // Only authenticated records advance the window.
        if self.recv_count == 0 || seq > self.recv_max {
            let shift = if self.recv_count == 0 {
                // First record: the window starts at `seq` alone.
                REPLAY_WINDOW
            } else {
                seq - self.recv_max
            };
            self.recv_window = if shift >= REPLAY_WINDOW {
                0
            } else {
                self.recv_window << shift
            };
            self.recv_window |= 1;
            self.recv_max = seq;
        } else {
            self.recv_window |= 1u64 << (self.recv_max - seq);
        }
        self.recv_count += 1;
        Ok(())
    }

    /// Names the remote endpoint. The label is cached on the channel so
    /// hot paths (routing, error reporting) can borrow it instead of
    /// formatting an identifier per record.
    pub fn set_peer(&mut self, name: &str) {
        self.peer = name.into();
    }

    /// The cached remote-endpoint label (`"peer"` until
    /// [`Self::set_peer`] is called).
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Records sent so far.
    pub fn records_sent(&self) -> u64 {
        self.send_seq
    }

    /// Records accepted so far.
    pub fn records_received(&self) -> u64 {
        self.recv_count
    }
}

fn seq_nonce(seq: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    let (_, seq_part) = nonce.split_at_mut(4);
    seq_part.copy_from_slice(&seq.to_be_bytes());
    nonce
}

/// Convenience: runs the whole handshake in-process (no network) and
/// returns the two endpoints. Useful for tests and for co-located
/// components.
///
/// # Errors
///
/// Propagates any handshake failure.
pub fn handshake_pair(
    rng: &mut Drbg,
    initiator_identity: &SigningKey,
    responder_identity: &SigningKey,
) -> Result<(SecureChannel, SecureChannel), ChannelError> {
    let (hello, pending) = initiate(rng, initiator_identity);
    let (reply, responder_chan) = respond(
        rng,
        responder_identity,
        &initiator_identity.verifying_key(),
        &hello,
    )?;
    let initiator_chan = complete(pending, &responder_identity.verifying_key(), &reply)?;
    Ok((initiator_chan, responder_chan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> (Drbg, SigningKey, SigningKey) {
        let mut rng = Drbg::from_seed(55);
        let a = SigningKey::generate(&mut rng);
        let b = SigningKey::generate(&mut rng);
        (rng, a, b)
    }

    #[test]
    fn handshake_and_bidirectional_records() {
        let (mut rng, alice, bob) = keys();
        let (mut a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        let r1 = a.seal(b"hdr", b"request");
        assert_eq!(b.open(b"hdr", &r1).unwrap(), b"request");
        let r2 = b.seal(b"hdr", b"response");
        assert_eq!(a.open(b"hdr", &r2).unwrap(), b"response");
        assert_eq!(a.records_sent(), 1);
        assert_eq!(a.records_received(), 1);
    }

    #[test]
    fn wrong_initiator_identity_rejected() {
        let (mut rng, alice, bob) = keys();
        let mallory = SigningKey::generate(&mut rng);
        let (hello, _) = initiate(&mut rng, &mallory);
        // Bob expects Alice.
        let result = respond(&mut rng, &bob, &alice.verifying_key(), &hello);
        assert!(matches!(result, Err(ChannelError::PeerAuthentication)));
    }

    #[test]
    fn wrong_responder_identity_rejected() {
        let (mut rng, alice, bob) = keys();
        let mallory = SigningKey::generate(&mut rng);
        let (hello, pending) = initiate(&mut rng, &alice);
        let (reply, _) = respond(&mut rng, &mallory, &alice.verifying_key(), &hello).unwrap();
        // Alice expects Bob but Mallory answered.
        assert!(matches!(
            complete(pending, &bob.verifying_key(), &reply),
            Err(ChannelError::PeerAuthentication)
        ));
    }

    #[test]
    fn tampered_hello_rejected() {
        let (mut rng, alice, bob) = keys();
        let (hello, _) = initiate(&mut rng, &alice);
        let mut bytes = hello.to_wire();
        bytes[40] ^= 1; // flip a signature bit
        let tampered = Hello::from_wire(&bytes).unwrap();
        assert!(respond(&mut rng, &bob, &alice.verifying_key(), &tampered).is_err());
    }

    #[test]
    fn replayed_record_rejected() {
        let (mut rng, alice, bob) = keys();
        let (mut a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        let r1 = a.seal(b"", b"one");
        assert!(b.open(b"", &r1).is_ok());
        // Replay of r1: already accepted, rejected without desync.
        assert_eq!(b.open(b"", &r1), Err(ChannelError::DuplicateRecord));
        // The channel still accepts the next fresh record.
        let r2 = a.seal(b"", b"two");
        assert_eq!(b.open(b"", &r2).unwrap(), b"two");
    }

    #[test]
    fn reordered_record_accepted_once_gaps_tolerated() {
        let (mut rng, alice, bob) = keys();
        let (mut a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        let r1 = a.seal(b"", b"one");
        let r2 = a.seal(b"", b"two");
        // Forward jump (r1 delayed in transit) is tolerated...
        assert_eq!(b.open(b"", &r2).unwrap(), b"two");
        // ...the late r1 still arrives within the window and opens once...
        assert_eq!(b.open(b"", &r1).unwrap(), b"one");
        // ...but a second copy of either is a duplicate.
        assert_eq!(b.open(b"", &r1), Err(ChannelError::DuplicateRecord));
        assert_eq!(b.open(b"", &r2), Err(ChannelError::DuplicateRecord));
    }

    #[test]
    fn records_behind_the_window_rejected() {
        let (mut rng, alice, bob) = keys();
        let (mut a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        let r0 = a.seal(b"", b"zero");
        // Push the window far past r0 without delivering it.
        for _ in 0..REPLAY_WINDOW {
            let r = a.seal(b"", b"fill");
            assert!(b.open(b"", &r).is_ok());
        }
        // r0 (seq 0) is now out of the window: rejected although unseen.
        assert_eq!(b.open(b"", &r0), Err(ChannelError::DuplicateRecord));
    }

    #[test]
    fn duplicate_rejection_does_not_desync() {
        let (mut rng, alice, bob) = keys();
        let (mut a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        for i in 0..10u8 {
            let r = a.seal(b"", &[i]);
            assert_eq!(b.open(b"", &r).unwrap(), vec![i]);
            assert_eq!(b.open(b"", &r), Err(ChannelError::DuplicateRecord));
        }
        assert_eq!(b.records_received(), 10);
    }

    #[test]
    fn channel_recovers_after_tampered_record() {
        let (mut rng, alice, bob) = keys();
        let (mut a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        let mut r1 = a.seal(b"", b"one");
        r1[10] ^= 1;
        assert!(b.open(b"", &r1).is_err());
        // The next clean record still opens.
        let r2 = a.seal(b"", b"two");
        assert_eq!(b.open(b"", &r2).unwrap(), b"two");
    }

    #[test]
    fn short_record_is_malformed() {
        let (mut rng, alice, bob) = keys();
        let (_a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        assert_eq!(b.open(b"", &[1, 2, 3]), Err(ChannelError::Malformed));
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut rng, alice, bob) = keys();
        let (mut a, mut b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        let mut r = a.seal(b"", b"payload");
        r[0] ^= 1;
        assert!(b.open(b"", &r).is_err());
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut rng, alice, bob) = keys();
        let (mut a, _b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        let record = a.seal(b"", b"SECRET-MEASUREMENT");
        let needle = b"SECRET-MEASUREMENT";
        let found = record.windows(needle.len()).any(|w| w == needle.as_slice());
        assert!(!found, "plaintext must not appear in the record");
    }

    #[test]
    fn peer_labels_default_and_update() {
        let (mut rng, alice, bob) = keys();
        let (mut a, b) = handshake_pair(&mut rng, &alice, &bob).unwrap();
        assert_eq!(a.peer(), "peer");
        assert_eq!(b.peer(), "peer");
        a.set_peer("bob");
        assert_eq!(a.peer(), "bob");
    }

    #[test]
    fn handshake_messages_roundtrip_on_wire() {
        let (mut rng, alice, bob) = keys();
        let (hello, pending) = initiate(&mut rng, &alice);
        let hello2 = Hello::from_wire(&hello.to_wire()).unwrap();
        let (reply, mut b) = respond(&mut rng, &bob, &alice.verifying_key(), &hello2).unwrap();
        let reply2 = HelloReply::from_wire(&reply.to_wire()).unwrap();
        let mut a = complete(pending, &bob.verifying_key(), &reply2).unwrap();
        let r = a.seal(b"", b"over the wire");
        assert_eq!(b.open(b"", &r).unwrap(), b"over the wire");
    }
}
