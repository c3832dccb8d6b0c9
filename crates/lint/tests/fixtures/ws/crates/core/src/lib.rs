// Fixture crate scanned by engine tests: exactly two panic_freedom findings.
// `sweep.rs` is compiled only in tests, so its `panic!` is not one of them.

#[cfg(test)]
mod sweep;

pub fn route(port: Option<u16>) -> u16 {
    port.unwrap()
}

pub fn frame(bytes: &[u8]) -> u8 {
    *bytes.first().expect("frame must be non-empty")
}
