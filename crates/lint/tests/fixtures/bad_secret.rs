// Fixture: every secret_hygiene sub-check fires.
// Not compiled; scanned by crates/lint/tests/fixture_tests.rs.

#[derive(Clone, Debug)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

pub struct Drbg {
    key: [u8; 32],
}

impl std::fmt::Debug for Drbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Drbg").finish_non_exhaustive()
    }
}

impl Drop for Drbg {
    fn drop(&mut self) {
        self.key = [0; 32]; // plain store: the optimizer may elide this
    }
}

fn log_keys(mac_key: &[u8], secret: u64) {
    println!("mac key is {:x?}", mac_key);
    log::warn!("derived {secret}");
}
