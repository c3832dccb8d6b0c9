//! Canonical wire encoding for protocol messages.
//!
//! Attestation quotes and signatures are computed over encoded bytes, so
//! the encoding must be deterministic and unambiguous: every field is
//! fixed-width or length-prefixed, integers are big-endian.

use std::error::Error;
use std::fmt;

/// Decoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Fewer bytes remained than the field required.
    UnexpectedEnd,
    /// Bytes remained after the value was fully decoded.
    TrailingBytes,
    /// A length prefix exceeded the sanity limit.
    LengthOverflow,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An enum discriminant was out of range.
    InvalidDiscriminant(u8),
    /// A public key or DH share was not an element of the group.
    InvalidKey,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::LengthOverflow => write!(f, "length prefix exceeds limit"),
            WireError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::InvalidDiscriminant(d) => write!(f, "invalid discriminant {d}"),
            WireError::InvalidKey => write!(f, "public key is not a group element"),
        }
    }
}

impl Error for WireError {}

/// Sanity limit on variable-length fields (16 MiB).
const MAX_LEN: usize = 16 * 1024 * 1024;

/// An append-only encoder.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that encodes into `buf`'s storage: the contents
    /// are cleared, the capacity is kept. Pair with
    /// [`Writer::into_bytes`] to re-encode into a long-lived buffer
    /// without reallocating.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends fixed-width bytes with no length prefix (use for hashes,
    /// keys, nonces whose length is fixed by the protocol).
    pub fn put_fixed(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends length-prefixed bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Two reusable encode buffers for call sites that need a pair of wire
/// encodings alive at the same time — typically the fields of a quote
/// digest (measurement spec + measurement, or property + status). After
/// the first use the buffers hold their steady-state capacity, so warm
/// paths encode without touching the heap.
#[derive(Clone, Debug, Default)]
pub struct EncodeScratch {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl EncodeScratch {
    /// Creates an empty scratch pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `a` and `b` into the two retained buffers and returns
    /// their encodings as slices.
    pub fn encode_pair<'s, A: Wire, B: Wire>(&'s mut self, a: &A, b: &B) -> (&'s [u8], &'s [u8]) {
        a.encode_into(&mut self.a);
        b.encode_into(&mut self.b);
        (&self.a, &self.b)
    }
}

/// A cursor over encoded bytes.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::UnexpectedEnd)?;
        let out = self
            .data
            .get(self.pos..end)
            .ok_or(WireError::UnexpectedEnd)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_be_bytes(arr))
    }

    /// Reads `N` fixed bytes.
    pub fn get_fixed<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let b = self.take(N)?;
        let mut arr = [0u8; N];
        arr.copy_from_slice(b);
        Ok(arr)
    }

    /// Reads length-prefixed bytes.
    ///
    /// Allocating convenience: returns an owned copy. Warm-path decoders
    /// borrow the payload in place via `Self::take` instead.
    #[cold]
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow);
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| WireError::InvalidUtf8)
    }

    /// Asserts that all input was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// A type with a canonical wire encoding.
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes a value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes to a standalone byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Encodes into `buf`, replacing its contents but reusing its
    /// capacity — the steady-state form of [`Wire::to_wire`] for hot
    /// paths that own a long-lived encode buffer.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::from_vec(std::mem::take(buf));
        self.encode(&mut w);
        *buf = w.into_bytes();
    }

    /// Decodes from a standalone byte vector, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Any [`WireError`], including [`WireError::TrailingBytes`] if input
    /// remains after decoding.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u64,
        name: String,
        payload: Vec<u8>,
        digest: [u8; 32],
    }

    impl Wire for Demo {
        fn encode(&self, w: &mut Writer) {
            w.put_u64(self.id);
            w.put_str(&self.name);
            w.put_bytes(&self.payload);
            w.put_fixed(&self.digest);
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Demo {
                id: r.get_u64()?,
                name: r.get_str()?,
                payload: r.get_bytes()?,
                digest: r.get_fixed()?,
            })
        }
    }

    fn demo() -> Demo {
        Demo {
            id: 42,
            name: "attest".into(),
            payload: vec![1, 2, 3],
            digest: [7u8; 32],
        }
    }

    #[test]
    fn roundtrip() {
        let d = demo();
        assert_eq!(Demo::from_wire(&d.to_wire()).unwrap(), d);
    }

    #[test]
    fn deterministic() {
        assert_eq!(demo().to_wire(), demo().to_wire());
    }

    #[test]
    fn truncation_detected() {
        let bytes = demo().to_wire();
        for cut in [0, 1, 8, bytes.len() - 1] {
            assert!(
                Demo::from_wire(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = demo().to_wire();
        bytes.push(0);
        assert_eq!(Demo::from_wire(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn oversize_length_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(WireError::LengthOverflow));
    }

    #[test]
    fn length_prefix_edges_near_max_len() {
        // len == MAX_LEN is within the sanity limit: with a short buffer
        // the reader reports truncation, not overflow.
        let mut w = Writer::new();
        w.put_u32(MAX_LEN as u32);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(WireError::UnexpectedEnd));
        // len == MAX_LEN + 1 trips the limit before any allocation.
        let mut w = Writer::new();
        w.put_u32(MAX_LEN as u32 + 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(WireError::LengthOverflow));
        // And a full MAX_LEN-sized field actually round-trips.
        let mut w = Writer::new();
        w.put_bytes(&vec![0xA5u8; MAX_LEN]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap().len(), MAX_LEN);
        r.finish().unwrap();
    }

    #[test]
    fn utf8_validation() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_str(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn display_messages_nonempty() {
        for e in [
            WireError::UnexpectedEnd,
            WireError::TrailingBytes,
            WireError::LengthOverflow,
            WireError::InvalidUtf8,
            WireError::InvalidDiscriminant(9),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
