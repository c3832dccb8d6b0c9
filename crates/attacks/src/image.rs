//! Image and platform tampering for the startup-integrity case study
//! (Section 4.2): VM images or platform software corrupted in storage or
//! transit, caught by measured boot.

use monatt_hypervisor::guest::GuestOs;

/// Corrupts a VM image in place by XOR-flipping one byte at `offset`
/// (wrapped to the image length). Models malware insertion during storage
/// or transmission. Returns false if the image is empty.
pub fn tamper_image(guest: &mut GuestOs, offset: usize) -> bool {
    let image = guest.image_mut();
    if image.is_empty() {
        return false;
    }
    let idx = offset % image.len();
    image[idx] ^= 0xff;
    true
}

/// Appends a payload blob to an image — a grosser form of tampering.
pub fn implant_payload(guest: &mut GuestOs, payload: &[u8]) {
    guest.image_mut().extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tampering_changes_hash() {
        let mut guest = GuestOs::boot(b"pristine-image".to_vec(), &["init"]);
        let clean = guest.image_hash();
        assert!(tamper_image(&mut guest, 3));
        assert_ne!(guest.image_hash(), clean);
    }

    #[test]
    fn tamper_wraps_offset() {
        let mut guest = GuestOs::boot(vec![0u8; 4], &["init"]);
        assert!(tamper_image(&mut guest, 100)); // 100 % 4 == 0
        assert_eq!(guest.image_mut()[0], 0xff);
    }

    #[test]
    fn empty_image_cannot_be_tampered() {
        let mut guest = GuestOs::boot(Vec::new(), &["init"]);
        assert!(!tamper_image(&mut guest, 0));
    }

    #[test]
    fn payload_implant_changes_hash() {
        let mut guest = GuestOs::boot(b"img".to_vec(), &["init"]);
        let clean = guest.image_hash();
        implant_payload(&mut guest, b"evil");
        assert_ne!(guest.image_hash(), clean);
    }

    #[test]
    fn tampering_a_borrowed_image_leaves_the_shared_bytes_pristine() {
        static SHARED: [u8; 16] = [0x5a; 16];
        let mut flipped = GuestOs::boot(&SHARED[..], &["init"]);
        let mut implanted = GuestOs::boot(&SHARED[..], &["init"]);
        let clean = flipped.image_hash();
        assert!(tamper_image(&mut flipped, 3));
        implant_payload(&mut implanted, b"evil");
        assert_ne!(flipped.image_hash(), clean);
        assert_ne!(implanted.image_hash(), clean);
        assert_eq!(flipped.image()[3], 0xa5);
        assert_eq!(implanted.image().len(), 20);
        assert_eq!(SHARED, [0x5a; 16]);
    }
}
