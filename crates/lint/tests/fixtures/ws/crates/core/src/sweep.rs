// Test-only helper module: declared `#[cfg(test)] mod sweep;` in lib.rs,
// so the whole file is test code although no attribute in it says so.

pub fn failed(seed: u64) -> ! {
    panic!("seed {seed} failed")
}
