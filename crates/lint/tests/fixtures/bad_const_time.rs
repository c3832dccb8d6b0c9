// Fixture: const_time findings — variable-time comparisons on tag and
// digest material. The exponent-indexed lookup below is not a finding:
// the arithmetic kernels are not constant-time by design.

pub fn check_tag(tag: &[u8; 32], expected_tag: &[u8; 32]) -> bool {
    tag == expected_tag
}

pub fn digest_matches(quote_digest: [u8; 32], reference: [u8; 32]) -> bool {
    quote_digest != reference
}

pub fn pow(exp: u64, table: &[u64; 16]) -> u64 {
    let mut acc = 1;
    if exp & 1 == 1 {
        acc = table[(exp & 0xf) as usize];
    }
    acc
}
