//! Fixture: every direct allocation class the `alloc_freedom` rule
//! bans in warm-path files. Linted as `crates/net/src/wire.rs` (an
//! enrolled warm file).

/// Owned copy on the warm path.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = payload.to_vec();
    out.extend_from_slice(b"!");
    out
}

/// Allocating macro on the warm path.
pub fn frame_label(kind: u8) -> String {
    format!("frame#{kind}")
}

/// Turbofish collect on the warm path.
pub fn gather(xs: &[u8]) -> Vec<u8> {
    xs.iter().copied().collect::<Vec<u8>>()
}

/// Allocating constructor in a fn that is neither `#[cold]` nor named
/// in the cold list.
pub fn stage() -> Vec<u8> {
    Vec::with_capacity(64)
}

/// A shared handle built where a warm path runs.
pub fn share(counter: u64) -> std::rc::Rc<u64> {
    std::rc::Rc::new(counter)
}
