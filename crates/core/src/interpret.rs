//! The Property Interpretation Module (Section 3.2.3 and Section 4): maps
//! requested security properties to measurement specifications, and
//! interprets returned measurements into health verdicts — the bridge
//! across the paper's "semantic gap".

use crate::measurements::{Measurement, MeasurementSpec, TaskInfo};
use crate::types::{HealthStatus, Image, SecurityProperty};
use monatt_crypto::sha256::sha256;
use monatt_crypto::zeroize::ct_eq;
use monatt_tpm::pcr::PcrBank;

/// Default runtime observation window (1 s) for interval and CPU-time
/// measurements — enough for ~200 covert-channel bit slots.
pub const DEFAULT_WINDOW_US: u64 = 1_000_000;

/// The reference values an appraiser needs: pristine platform and image
/// hashes (the role the IMA-style appraiser plays in Section 4.2.2).
#[derive(Clone, Debug)]
pub struct ReferenceDb {
    platform_components: Vec<&'static str>,
    // Reference values are fixed for the database's lifetime, so they are
    // computed once here: appraisal sits on the per-attestation hot path
    // and must not re-derive (or re-allocate) pristine blobs every round.
    platform_pcr: [u8; 32],
    image_hashes: [[u8; 32]; Image::ALL.len()],
}

impl Default for ReferenceDb {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceDb {
    /// Creates the reference database with the stock platform software.
    pub fn new() -> Self {
        let platform_components = vec!["firmware-v2", "xen-4.4", "dom0-linux-3.13"];
        let digests: Vec<[u8; 32]> = platform_components
            .iter()
            .map(|c| sha256(c.as_bytes()))
            .collect();
        ReferenceDb {
            platform_pcr: PcrBank::replay(&digests),
            image_hashes: Image::ALL.map(|image| sha256(image.pristine())),
            platform_components,
        }
    }

    /// The platform components measured at server boot, in load order.
    pub fn platform_components(&self) -> &[&'static str] {
        &self.platform_components
    }

    /// The expected PCR value of a pristine platform.
    pub fn expected_platform_pcr(&self) -> [u8; 32] {
        self.platform_pcr
    }

    /// The expected hash of a pristine image.
    pub fn expected_image_hash(&self, image: Image) -> [u8; 32] {
        let [cirros, fedora, ubuntu] = self.image_hashes;
        match image {
            Image::Cirros => cirros,
            Image::Fedora => fedora,
            Image::Ubuntu => ubuntu,
        }
    }
}

/// Maps a security property to the measurements that indicate it —
/// the `P → M` mapping of Section 4.1.
pub fn property_to_spec(property: SecurityProperty) -> MeasurementSpec {
    match property {
        SecurityProperty::StartupIntegrity => MeasurementSpec::BootIntegrity,
        SecurityProperty::RuntimeIntegrity => MeasurementSpec::TaskListProbe,
        SecurityProperty::CovertChannelFreedom => MeasurementSpec::UsageIntervals {
            window_us: DEFAULT_WINDOW_US,
        },
        SecurityProperty::CpuAvailability { .. } => MeasurementSpec::CpuTime {
            window_us: DEFAULT_WINDOW_US,
        },
        SecurityProperty::SchedulerFairness => MeasurementSpec::SchedulerEvents {
            window_us: DEFAULT_WINDOW_US,
        },
    }
}

/// Interprets a measurement for a property. `expected_image` supplies the
/// per-VM context startup integrity needs.
pub fn interpret(
    property: SecurityProperty,
    measurement: &Measurement,
    expected_image: Image,
    references: &ReferenceDb,
) -> HealthStatus {
    match (property, measurement) {
        (
            SecurityProperty::StartupIntegrity,
            Measurement::BootIntegrity {
                platform_pcr,
                image_hash,
            },
        ) => interpret_boot(platform_pcr, image_hash, expected_image, references),
        (
            SecurityProperty::RuntimeIntegrity,
            Measurement::TaskLists {
                kernel,
                guest_visible,
            },
        ) => interpret_task_lists(kernel, guest_visible),
        (
            SecurityProperty::CovertChannelFreedom,
            Measurement::UsageIntervals {
                bins, bin_width_us, ..
            },
        ) => interpret_intervals(bins, *bin_width_us),
        (
            SecurityProperty::CpuAvailability { min_share_pct },
            Measurement::CpuTime {
                virtual_time_us,
                window_us,
                contending_vcpus,
            },
        ) => interpret_cpu_time(
            *virtual_time_us,
            *window_us,
            *contending_vcpus,
            min_share_pct,
        ),
        (
            SecurityProperty::SchedulerFairness,
            Measurement::SchedulerEvents {
                boosts, window_us, ..
            },
        ) => interpret_scheduler_events(*boosts, *window_us),
        _ => mismatched(property),
    }
}

/// The verdict on a measurement of the wrong kind for its property,
/// outlined so that `interpret` itself allocates nothing.
#[cold]
fn mismatched(property: SecurityProperty) -> HealthStatus {
    HealthStatus::Compromised {
        reason: format!("measurement does not match property {property}"),
    }
}

fn interpret_boot(
    platform_pcr: &[u8; 32],
    image_hash: &[u8; 32],
    expected_image: Image,
    references: &ReferenceDb,
) -> HealthStatus {
    if !ct_eq(platform_pcr, &references.expected_platform_pcr()) {
        return HealthStatus::Compromised {
            reason: "platform configuration hash does not match pristine reference".into(),
        };
    }
    if !ct_eq(image_hash, &references.expected_image_hash(expected_image)) {
        return HealthStatus::Compromised {
            reason: format!("VM image hash does not match pristine {expected_image} image"),
        };
    }
    HealthStatus::Healthy
}

fn interpret_task_lists(kernel: &[TaskInfo], guest_visible: &[TaskInfo]) -> HealthStatus {
    let hidden: Vec<&TaskInfo> = kernel
        .iter()
        .filter(|k| !guest_visible.iter().any(|v| v.pid == k.pid))
        .collect();
    if hidden.is_empty() {
        HealthStatus::Healthy
    } else {
        let names: Vec<String> = hidden
            .iter()
            .map(|t| format!("{}(pid {})", t.name, t.pid))
            .collect();
        HealthStatus::Compromised {
            reason: format!(
                "tasks present in kernel memory but hidden from the guest: {}",
                names.join(", ")
            ),
        }
    }
}

/// Statistics of the covert-channel analysis, exposed for the Figure 5
/// harness.
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalAnalysis {
    /// Total recorded intervals.
    pub samples: u64,
    /// Cluster centers in milliseconds (low, high), when two clusters
    /// were found.
    pub centers_ms: Option<(f64, f64)>,
    /// Probability mass of the lower cluster.
    pub low_mass: f64,
    /// Whether the pattern was classified as a covert channel.
    pub covert: bool,
}

/// Minimum samples before the detector will flag anything.
const MIN_SAMPLES: u64 = 50;
/// Minimum probability mass each cluster needs to count as a "peak".
const MIN_PEAK_MASS: f64 = 0.15;
/// Minimum separation between the two peaks, in bins.
const MIN_SEPARATION_BINS: f64 = 2.0;

/// The two-peak detector of Section 4.4.3: clusters the usage-interval
/// distribution with weighted 2-means. Two well-separated peaks of short
/// intervals indicate a "0"/"1" transmission pattern; a benign VM shows a
/// single peak at the 30 ms scheduler slice.
pub fn analyze_intervals(bins: &[u64], bin_width_us: u64) -> IntervalAnalysis {
    let samples: u64 = bins.iter().sum();
    if samples < MIN_SAMPLES || bins.is_empty() || bin_width_us == 0 {
        return IntervalAnalysis {
            samples,
            centers_ms: None,
            low_mass: 0.0,
            covert: false,
        };
    }
    // Weighted 2-means over bin centers.
    let center = |i: usize| (i as f64 + 0.5) * bin_width_us as f64 / 1_000.0;
    let (Some(first), Some(last)) = (
        bins.iter().position(|&b| b > 0),
        bins.iter().rposition(|&b| b > 0),
    ) else {
        // Unreachable given samples >= MIN_SAMPLES, but degrade gracefully.
        return IntervalAnalysis {
            samples,
            centers_ms: None,
            low_mass: 0.0,
            covert: false,
        };
    };
    if first == last {
        // A single occupied bin: one peak.
        return IntervalAnalysis {
            samples,
            centers_ms: None,
            low_mass: 1.0,
            covert: false,
        };
    }
    let mut c_low = center(first);
    let mut c_high = center(last);
    for _ in 0..32 {
        let mut sum_low = 0.0;
        let mut w_low = 0.0;
        let mut sum_high = 0.0;
        let mut w_high = 0.0;
        for (i, &b) in bins.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let (w, c) = (b as f64, center(i));
            if (c - c_low).abs() <= (c - c_high).abs() {
                sum_low += c * w;
                w_low += w;
            } else {
                sum_high += c * w;
                w_high += w;
            }
        }
        let new_low = if w_low > 0.0 { sum_low / w_low } else { c_low };
        let new_high = if w_high > 0.0 {
            sum_high / w_high
        } else {
            c_high
        };
        let converged = (new_low - c_low).abs() < 1e-9 && (new_high - c_high).abs() < 1e-9;
        c_low = new_low;
        c_high = new_high;
        if converged {
            break;
        }
    }
    // Final assignment for masses and per-cluster peak bins.
    let mut mass_low = 0.0;
    let mut peak_low: (usize, u64) = (first, 0);
    let mut peak_high: (usize, u64) = (last, 0);
    for (i, &b) in bins.iter().enumerate() {
        if b == 0 {
            continue;
        }
        let c = center(i);
        if (c - c_low).abs() <= (c - c_high).abs() {
            mass_low += b as f64;
            if b > peak_low.1 {
                peak_low = (i, b);
            }
        } else if b > peak_high.1 {
            peak_high = (i, b);
        }
    }
    let low_mass = mass_low / samples as f64;
    let high_mass = 1.0 - low_mass;
    let separation_bins = (c_high - c_low).abs() / (bin_width_us as f64 / 1_000.0);
    // True bimodality needs a valley: the occupancy between the two peak
    // bins must drop well below both peaks. A jittered unimodal workload
    // has contiguous mass and therefore no valley.
    let valley = match bins.get(peak_low.0 + 1..peak_high.0) {
        Some(between) if !between.is_empty() => between.iter().copied().min().unwrap_or(0),
        _ => peak_low.1.min(peak_high.1),
    };
    let has_valley = (valley as f64) < 0.25 * peak_low.1.min(peak_high.1) as f64;
    let covert = low_mass >= MIN_PEAK_MASS
        && high_mass >= MIN_PEAK_MASS
        && separation_bins >= MIN_SEPARATION_BINS
        && has_valley;
    IntervalAnalysis {
        samples,
        centers_ms: Some((c_low, c_high)),
        low_mass,
        covert,
    }
}

fn interpret_intervals(bins: &[u64], bin_width_us: u64) -> HealthStatus {
    let analysis = analyze_intervals(bins, bin_width_us);
    if let (true, Some((lo, hi))) = (analysis.covert, analysis.centers_ms) {
        HealthStatus::Compromised {
            reason: format!(
                "bimodal CPU usage intervals (peaks at {lo:.1} ms and {hi:.1} ms over {} samples) indicate covert-channel signalling",
                analysis.samples
            ),
        }
    } else {
        HealthStatus::Healthy
    }
}

fn interpret_cpu_time(
    virtual_time_us: u64,
    window_us: u64,
    contending_vcpus: u32,
    min_share_pct: u8,
) -> HealthStatus {
    if window_us == 0 {
        return HealthStatus::Compromised {
            reason: "empty measurement window".into(),
        };
    }
    let usage = virtual_time_us as f64 / window_us as f64;
    // Fair entitlement: an equal share of the pCPU among contending vCPUs.
    let entitlement = 1.0 / contending_vcpus.max(1) as f64;
    let relative = usage / entitlement;
    if relative * 100.0 + 1e-9 < min_share_pct as f64 {
        HealthStatus::Compromised {
            reason: format!(
                "relative CPU usage {:.1}% of entitlement (usage {:.1}% of wall clock, {} contending vCPUs) below the {}% SLA floor",
                relative * 100.0,
                usage * 100.0,
                contending_vcpus,
                min_share_pct
            ),
        }
    } else {
        HealthStatus::Healthy
    }
}

/// Boost wake-ups per second above which a VM is judged to be gaming the
/// scheduler. Benign I/O-bound services wake at most ~100 times per
/// second (their I/O waits are several milliseconds); the boost attacker
/// and the covert-channel sender both wake with boost at ~200/s.
const BOOST_ABUSE_PER_SEC: f64 = 150.0;

fn interpret_scheduler_events(boosts: u64, window_us: u64) -> HealthStatus {
    if window_us == 0 {
        return HealthStatus::Compromised {
            reason: "empty measurement window".into(),
        };
    }
    let rate = boosts as f64 / (window_us as f64 / 1_000_000.0);
    if rate > BOOST_ABUSE_PER_SEC {
        HealthStatus::Compromised {
            reason: format!(
                "{rate:.0} boosted wake-ups per second (threshold {BOOST_ABUSE_PER_SEC:.0}/s) indicate scheduler-boost abuse"
            ),
        }
    } else {
        HealthStatus::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs() -> ReferenceDb {
        ReferenceDb::new()
    }

    #[test]
    fn pristine_boot_is_healthy() {
        let r = refs();
        let status = interpret(
            SecurityProperty::StartupIntegrity,
            &Measurement::BootIntegrity {
                platform_pcr: r.expected_platform_pcr(),
                image_hash: r.expected_image_hash(Image::Ubuntu),
            },
            Image::Ubuntu,
            &r,
        );
        assert!(status.is_healthy());
    }

    #[test]
    fn tampered_image_detected() {
        let r = refs();
        let status = interpret(
            SecurityProperty::StartupIntegrity,
            &Measurement::BootIntegrity {
                platform_pcr: r.expected_platform_pcr(),
                image_hash: [0xde; 32],
            },
            Image::Ubuntu,
            &r,
        );
        assert!(!status.is_healthy());
    }

    #[test]
    fn wrong_image_kind_detected() {
        let r = refs();
        let status = interpret(
            SecurityProperty::StartupIntegrity,
            &Measurement::BootIntegrity {
                platform_pcr: r.expected_platform_pcr(),
                image_hash: r.expected_image_hash(Image::Fedora),
            },
            Image::Ubuntu,
            &r,
        );
        assert!(!status.is_healthy());
    }

    #[test]
    fn corrupted_platform_detected() {
        let r = refs();
        let status = interpret(
            SecurityProperty::StartupIntegrity,
            &Measurement::BootIntegrity {
                platform_pcr: [0; 32],
                image_hash: r.expected_image_hash(Image::Cirros),
            },
            Image::Cirros,
            &r,
        );
        assert!(!status.is_healthy());
    }

    fn task(pid: u32, name: &str) -> TaskInfo {
        TaskInfo {
            pid,
            name: name.into(),
        }
    }

    #[test]
    fn matching_task_lists_healthy() {
        let tasks = vec![task(1, "init"), task(2, "sshd")];
        let status = interpret_task_lists(&tasks, &tasks);
        assert!(status.is_healthy());
    }

    #[test]
    fn hidden_task_detected_and_named() {
        let kernel = vec![task(1, "init"), task(66, "cryptominer")];
        let visible = vec![task(1, "init")];
        let status = interpret_task_lists(&kernel, &visible);
        let HealthStatus::Compromised { reason } = status else {
            panic!("expected compromised");
        };
        assert!(reason.contains("cryptominer"));
        assert!(reason.contains("66"));
    }

    #[test]
    fn bimodal_intervals_flagged() {
        // Peaks in bins 0 (1ms) and 3 (4ms): the covert pattern.
        let mut bins = vec![0u64; 30];
        bins[0] = 300;
        bins[3] = 280;
        let a = analyze_intervals(&bins, 1_000);
        assert!(a.covert);
        let (lo, hi) = a.centers_ms.unwrap();
        assert!(lo < 2.0 && hi > 3.0, "centers {lo} {hi}");
        assert!(!interpret_intervals(&bins, 1_000).is_healthy());
    }

    #[test]
    fn single_peak_at_slice_is_benign() {
        let mut bins = vec![0u64; 30];
        bins[29] = 200;
        bins[28] = 10;
        assert!(!analyze_intervals(&bins, 1_000).covert);
        assert!(interpret_intervals(&bins, 1_000).is_healthy());
    }

    #[test]
    fn single_short_peak_is_benign() {
        // An I/O-bound service with ~8 ms bursts: one cluster only.
        let mut bins = vec![0u64; 30];
        bins[7] = 150;
        bins[8] = 160;
        bins[6] = 80;
        assert!(!analyze_intervals(&bins, 1_000).covert);
    }

    #[test]
    fn jittered_unimodal_spread_is_benign() {
        // A service with ±20% jitter spreads contiguously over several
        // bins; 2-means will split it, but there is no valley between the
        // halves, so it must not be flagged.
        let mut bins = vec![0u64; 30];
        for (i, count) in [
            (6usize, 40u64),
            (7, 120),
            (8, 160),
            (9, 140),
            (10, 60),
            (11, 20),
        ] {
            bins[i] = count;
        }
        let a = analyze_intervals(&bins, 1_000);
        assert!(!a.covert, "{a:?}");
    }

    #[test]
    fn bimodal_with_valley_still_detected_after_valley_rule() {
        // Slightly smeared covert peaks, still separated by empty bins.
        let mut bins = vec![0u64; 30];
        bins[0] = 250;
        bins[1] = 30;
        bins[3] = 40;
        bins[4] = 240;
        assert!(analyze_intervals(&bins, 1_000).covert);
    }

    #[test]
    fn sparse_data_is_inconclusive() {
        let mut bins = vec![0u64; 30];
        bins[0] = 10;
        bins[10] = 10;
        let a = analyze_intervals(&bins, 1_000);
        assert!(!a.covert, "too few samples to conclude");
    }

    #[test]
    fn availability_verdicts() {
        // Full entitlement: healthy.
        let h = interpret_cpu_time(1_500_000, 3_000_000, 2, 80);
        assert!(h.is_healthy());
        // Starved victim: 3% of wall clock with 3 contenders = 9% of
        // entitlement — far below an 80% floor.
        let c = interpret_cpu_time(90_000, 3_000_000, 3, 80);
        assert!(!c.is_healthy());
        // Solo VM using 100%.
        assert!(interpret_cpu_time(3_000_000, 3_000_000, 1, 90).is_healthy());
    }

    #[test]
    fn scheduler_fairness_thresholds() {
        // 200 boosts/s: the attack signature.
        assert!(!interpret_scheduler_events(200, 1_000_000).is_healthy());
        // ~100 boosts/s: a busy I/O service.
        assert!(interpret_scheduler_events(100, 1_000_000).is_healthy());
        // No window is an error.
        assert!(!interpret_scheduler_events(0, 0).is_healthy());
        // Rates scale with the window.
        assert!(interpret_scheduler_events(200, 2_000_000).is_healthy());
    }

    #[test]
    fn mismatched_measurement_rejected() {
        let status = interpret(
            SecurityProperty::RuntimeIntegrity,
            &Measurement::CpuTime {
                virtual_time_us: 0,
                window_us: 1,
                contending_vcpus: 1,
            },
            Image::Cirros,
            &refs(),
        );
        assert!(!status.is_healthy());
    }

    #[test]
    fn property_spec_mapping() {
        assert_eq!(
            property_to_spec(SecurityProperty::StartupIntegrity),
            MeasurementSpec::BootIntegrity
        );
        assert!(matches!(
            property_to_spec(SecurityProperty::CovertChannelFreedom),
            MeasurementSpec::UsageIntervals { .. }
        ));
    }
}
