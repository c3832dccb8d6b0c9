//! The latency model behind the management-plane timings of Figures 9-11.
//!
//! The paper measured these on a three-server OpenStack Havana testbed;
//! our simulator replaces the testbed with calibrated cost formulas. The
//! calibration targets the paper's *shapes*: launch stages of hundreds of
//! milliseconds to seconds with attestation ≈20 % of the total (Fig. 9),
//! and response times ordered Termination < Suspension < Migration with
//! migration dominated by memory copy over a 1 Gbps link (Fig. 11).

use crate::types::{Flavor, Image};
use monatt_crypto::drbg::Drbg;

/// Microseconds per millisecond.
const MS: u64 = 1_000;

/// Per-hop retransmission policy for the Figure-3 protocol: how many
/// delivery attempts each message gets and how long the sender backs off
/// between them. The paper's threat model gives the adversary "full
/// control of the network" (Section 3.3); real deployments additionally
/// lose messages benignly, so delivery failure is a protocol state to
/// recover from, not a fatal error.
///
/// Backoff is exponential with up to 50 % decorrelating jitter
/// (`backoff * 2^(attempt-1)` capped at `backoff_cap_us`), and all retry
/// time — timeouts plus backoff — is charged into the end-to-end latency
/// of Figures 9-11, so a lossy network visibly slows attestation instead
/// of silently failing it. With a clean network the policy adds zero
/// latency and draws no randomness, keeping fault-free runs bit-identical
/// to a fail-fast configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total delivery attempts per hop, including the first (1 =
    /// fail-fast, the pre-retransmit behaviour).
    pub max_attempts: u32,
    /// How long the sender waits before declaring a record lost.
    pub timeout_us: u64,
    /// First-retry backoff; doubles each further attempt.
    pub backoff_base_us: u64,
    /// Upper bound on a single backoff step (before jitter).
    pub backoff_cap_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            timeout_us: 2 * MS,
            backoff_base_us: 500,
            backoff_cap_us: 8 * MS,
        }
    }
}

impl RetryPolicy {
    /// The fail-fast policy: one attempt, no retransmission.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The backoff (plus jitter) charged before retry number `attempt`
    /// (1-based: the backoff taken after the `attempt`-th failed try).
    /// `attempt == 0` is treated as the first retry — the subtraction
    /// saturates instead of underflowing to a shift of 16 (which would
    /// silently charge the cap for what should be the cheapest step).
    pub fn backoff_us(&self, attempt: u32, rng: &mut Drbg) -> u64 {
        let exp = self
            .backoff_base_us
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.backoff_cap_us);
        exp + rng.next_u64_below(exp / 2 + 1)
    }
}

/// Cost parameters for cloud management operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyParams {
    /// Fixed scheduling cost (filter evaluation etc.).
    pub scheduling_base_us: u64,
    /// Additional scheduling cost per candidate server.
    pub scheduling_per_server_us: u64,
    /// Extra scheduling cost when the property filter consults the
    /// attestation database (CloudMonatt's addition).
    pub property_filter_us: u64,
    /// Network (port/DHCP) setup cost.
    pub networking_us: u64,
    /// Base block-device mapping cost.
    pub block_device_base_us: u64,
    /// Block-device cost per MB of image.
    pub block_device_per_mb_us: u64,
    /// Base spawning cost.
    pub spawn_base_us: u64,
    /// Spawning cost per MB of image.
    pub spawn_per_mb_us: u64,
    /// Spawning cost per vCPU of the flavor (device model setup).
    pub spawn_per_vcpu_us: u64,
    /// Hashing throughput for integrity measurement, MB per second.
    pub hash_mb_per_sec: u64,
    /// Cost of one signature (sign or verify) in the Trust Module or a
    /// server.
    pub signature_us: u64,
    /// Cost of generating a TPM-style quote in the Trust Module (key
    /// generation plus signing on a slow security processor).
    pub quote_generation_us: u64,
    /// Per-hop processing overhead in the attestation protocol.
    pub hop_processing_us: u64,
    /// Termination: base cost.
    pub terminate_base_us: u64,
    /// Termination: cost per GB of RAM to tear down.
    pub terminate_per_gb_us: u64,
    /// Suspension: base cost.
    pub suspend_base_us: u64,
    /// Suspension: state-save cost per GB of RAM.
    pub suspend_per_gb_us: u64,
    /// Migration: base cost (pre-copy setup + switchover).
    pub migrate_base_us: u64,
    /// Migration: memory-copy cost per GB of RAM (1 Gbps-ish effective).
    pub migrate_per_gb_us: u64,
}

impl Default for LatencyParams {
    fn default() -> Self {
        LatencyParams {
            scheduling_base_us: 120 * MS,
            scheduling_per_server_us: 8 * MS,
            property_filter_us: 60 * MS,
            networking_us: 700 * MS,
            block_device_base_us: 250 * MS,
            block_device_per_mb_us: 2 * MS,
            spawn_base_us: 800 * MS,
            spawn_per_mb_us: 4 * MS,
            spawn_per_vcpu_us: 150 * MS,
            hash_mb_per_sec: 400,
            signature_us: 15 * MS,
            quote_generation_us: 120 * MS,
            hop_processing_us: 40 * MS,
            terminate_base_us: 400 * MS,
            terminate_per_gb_us: 80 * MS,
            suspend_base_us: 500 * MS,
            suspend_per_gb_us: 450 * MS,
            migrate_base_us: 1_000 * MS,
            migrate_per_gb_us: 1_500 * MS,
        }
    }
}

impl LatencyParams {
    /// Scheduling-stage latency for a pool of `servers`, with or without
    /// the CloudMonatt property filter.
    pub fn scheduling_us(&self, servers: usize, with_property_filter: bool) -> u64 {
        self.scheduling_base_us
            + self.scheduling_per_server_us * servers as u64
            + if with_property_filter {
                self.property_filter_us
            } else {
                0
            }
    }

    /// Networking-stage latency.
    pub fn networking_us(&self) -> u64 {
        self.networking_us
    }

    /// Block-device-mapping-stage latency.
    pub fn block_device_us(&self, image: Image) -> u64 {
        self.block_device_base_us + self.block_device_per_mb_us * image.size_mb()
    }

    /// Spawning-stage latency.
    pub fn spawning_us(&self, image: Image, flavor: Flavor) -> u64 {
        self.spawn_base_us
            + self.spawn_per_mb_us * image.size_mb()
            + self.spawn_per_vcpu_us * flavor.vcpus() as u64
    }

    /// Time to hash `mb` megabytes in the integrity measurement unit.
    pub fn hash_us(&self, mb: u64) -> u64 {
        mb * 1_000_000 / self.hash_mb_per_sec
    }

    /// Post-arrival processing charge for message `n` (1–6) of the
    /// Figure-3 protocol. Every hop pays `hop_processing_us`; messages 4
    /// and 5 each add one signature (the server signing its response,
    /// the Attestation Server signing the property report) and message 6
    /// adds two (the controller signing quote Q1, the customer verifying
    /// it). A session charges these between an arrival event and the
    /// next transmission, so its end-to-end latency is the sum of its
    /// hop, processing and window charges.
    pub fn post_hop_us(&self, message: u8) -> u64 {
        let signatures: u64 = match message {
            4 | 5 => 1,
            6 => 2,
            _ => 0,
        };
        self.hop_processing_us + signatures * self.signature_us
    }

    /// Measurement-and-quote charge once a measurement window closes:
    /// optional image hashing (boot integrity), quote generation, one
    /// signature by the Trust Module.
    pub fn measurement_us(&self, hashed_image_mb: Option<u64>) -> u64 {
        let hash = hashed_image_mb.map_or(0, |mb| self.hash_us(mb));
        hash + self.quote_generation_us + self.signature_us
    }

    /// Termination response latency.
    pub fn terminate_us(&self, flavor: Flavor) -> u64 {
        self.terminate_base_us + self.terminate_per_gb_us * flavor.memory_gb()
    }

    /// Suspension response latency.
    pub fn suspend_us(&self, flavor: Flavor) -> u64 {
        self.suspend_base_us + self.suspend_per_gb_us * flavor.memory_gb()
    }

    /// Migration response latency.
    pub fn migrate_us(&self, flavor: Flavor) -> u64 {
        self.migrate_base_us + self.migrate_per_gb_us * flavor.memory_gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_stage_shapes_match_figure9() {
        let p = LatencyParams::default();
        // Stages are hundreds of ms to seconds.
        for image in Image::ALL {
            for flavor in Flavor::ALL {
                let total = p.scheduling_us(3, true)
                    + p.networking_us()
                    + p.block_device_us(image)
                    + p.spawning_us(image, flavor);
                assert!(
                    (1_500 * MS..7_000 * MS).contains(&total),
                    "{image}/{flavor}: {total}"
                );
            }
        }
        // Bigger images cost more.
        assert!(p.block_device_us(Image::Ubuntu) > p.block_device_us(Image::Cirros));
        assert!(
            p.spawning_us(Image::Ubuntu, Flavor::Large)
                > p.spawning_us(Image::Cirros, Flavor::Small)
        );
    }

    #[test]
    fn response_ordering_matches_figure11() {
        let p = LatencyParams::default();
        for flavor in Flavor::ALL {
            assert!(p.terminate_us(flavor) < p.suspend_us(flavor));
            assert!(p.suspend_us(flavor) < p.migrate_us(flavor));
        }
        // Larger VMs migrate slower.
        assert!(p.migrate_us(Flavor::Large) > p.migrate_us(Flavor::Small));
    }

    #[test]
    fn property_filter_adds_cost() {
        let p = LatencyParams::default();
        assert!(p.scheduling_us(3, true) > p.scheduling_us(3, false));
    }

    #[test]
    fn hashing_scales() {
        let p = LatencyParams::default();
        assert_eq!(p.hash_us(400), 1_000_000);
        assert!(p.hash_us(Image::Ubuntu.size_mb()) > p.hash_us(Image::Cirros.size_mb()));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy::default();
        let mut rng = Drbg::from_seed(5);
        let b1 = policy.backoff_us(1, &mut rng);
        assert!((500..=750).contains(&b1), "{b1}");
        // Deep attempts are capped at backoff_cap_us (+50% jitter).
        let deep = policy.backoff_us(30, &mut rng);
        assert!(
            (policy.backoff_cap_us..=policy.backoff_cap_us * 3 / 2).contains(&deep),
            "{deep}"
        );
    }

    #[test]
    fn backoff_at_attempt_zero_does_not_underflow() {
        // Regression: `1u64 << (attempt - 1)` underflowed at attempt 0,
        // shifting by (u32::MAX).min(16) = 16 and charging the cap for
        // what should be the cheapest backoff step.
        let policy = RetryPolicy::default();
        let mut rng = Drbg::from_seed(6);
        let b0 = policy.backoff_us(0, &mut rng);
        let b1 = policy.backoff_us(1, &mut rng);
        // Attempt 0 behaves like the first retry: base plus <=50% jitter.
        assert!((500..=750).contains(&b0), "{b0}");
        assert!((500..=750).contains(&b1), "{b1}");
    }

    #[test]
    fn disabled_policy_is_fail_fast() {
        assert_eq!(RetryPolicy::disabled().max_attempts, 1);
    }
}
