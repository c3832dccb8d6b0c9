//! **Figure 5** — Measurements of covert-channel vulnerabilities: the
//! probability distribution of CPU usage intervals recorded by the 30
//! Trust Evidence Registers, for a covert-channel sender (two peaks) and
//! a benign VM (single peak at the 30 ms slice).

use monatt_attacks::covert::{CovertReceiver, CovertSender};
use monatt_core::interpret::{analyze_intervals, IntervalAnalysis};
use monatt_hypervisor::driver::BusyLoop;
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::PcpuId;
use monatt_hypervisor::profile::{INTERVAL_BINS, INTERVAL_BIN_WIDTH_US};
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmConfig;

/// The two distributions of Figure 5 plus their interpretations.
#[derive(Clone, Debug)]
pub struct IntervalDistributions {
    /// Normalized covert-channel sender distribution over `bins` bins.
    pub covert: Vec<f64>,
    /// Normalized benign-VM distribution.
    pub benign: Vec<f64>,
    /// Detector verdict on the covert pattern.
    pub covert_analysis: IntervalAnalysis,
    /// Detector verdict on the benign pattern.
    pub benign_analysis: IntervalAnalysis,
    /// Number of histogram bins used.
    pub bins: usize,
}

/// Runs both scenarios for `seconds`, with a configurable bin count (the
/// paper uses 30; the bin-count sweep is the ablation of DESIGN.md).
/// Fewer than 30 bins of 1 ms sum the registers' tail into the last bin.
///
/// # Panics
///
/// Panics unless `1 <= bins <= 30`.
pub fn run(seconds: u64, bins: usize) -> IntervalDistributions {
    assert!(
        (1..=INTERVAL_BINS).contains(&bins),
        "between 1 and {INTERVAL_BINS} bins"
    );
    let histogram = |registers: &[u64; INTERVAL_BINS]| {
        let mut hist = vec![0u64; bins];
        for (bin, &count) in registers.iter().enumerate() {
            hist[bin.min(bins - 1)] += count;
        }
        hist
    };

    // Covert scenario: sender + receiver sharing pCPU 0.
    let mut sim = ServerSim::new(1, SchedParams::default());
    let sender = CovertSender::new(b"\xA5");
    let receiver = CovertReceiver::new();
    let sender_vm =
        sim.create_vm(VmConfig::new("sender", vec![Box::new(sender)]).pin(vec![PcpuId(0)]));
    sim.create_vm(VmConfig::new("receiver", vec![Box::new(receiver)]).pin(vec![PcpuId(0)]));
    sim.run_until(SimTime::from_secs(seconds));
    let covert_hist = histogram(sim.profile().interval_registers(sender_vm));

    // Benign scenario: two CPU-bound VMs sharing pCPU 0.
    let mut sim = ServerSim::new(1, SchedParams::default());
    let benign_vm =
        sim.create_vm(VmConfig::new("benign", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
    sim.create_vm(VmConfig::new("other", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
    sim.run_until(SimTime::from_secs(seconds));
    let benign_hist = histogram(sim.profile().interval_registers(benign_vm));

    let normalize = |hist: &[u64]| {
        let total: u64 = hist.iter().sum();
        hist.iter()
            .map(|&v| {
                if total == 0 {
                    0.0
                } else {
                    v as f64 / total as f64
                }
            })
            .collect::<Vec<f64>>()
    };
    IntervalDistributions {
        covert: normalize(&covert_hist),
        benign: normalize(&benign_hist),
        covert_analysis: analyze_intervals(&covert_hist, INTERVAL_BIN_WIDTH_US),
        benign_analysis: analyze_intervals(&benign_hist, INTERVAL_BIN_WIDTH_US),
        bins,
    }
}

/// Prints the paper-style distribution table.
pub fn print(d: &IntervalDistributions) {
    println!(
        "Figure 5: Measurements of Covert-channel Vulnerabilities ({} bins)",
        d.bins
    );
    println!("interval_ms\tcovert_prob\tbenign_prob");
    for i in 0..d.bins {
        println!("({},{}]\t{:.3}\t{:.3}", i, i + 1, d.covert[i], d.benign[i]);
    }
    println!(
        "covert verdict: {} (centers: {:?})",
        if d.covert_analysis.covert {
            "COVERT CHANNEL"
        } else {
            "benign"
        },
        d.covert_analysis.centers_ms
    );
    println!(
        "benign verdict: {}",
        if d.benign_analysis.covert {
            "COVERT CHANNEL"
        } else {
            "benign"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covert_pattern_has_two_peaks_benign_has_one() {
        let d = run(3, 30);
        assert!(d.covert_analysis.covert, "{:?}", d.covert_analysis);
        assert!(!d.benign_analysis.covert, "{:?}", d.benign_analysis);
        // Covert mass concentrates in the 1ms and 4ms bins.
        assert!(d.covert[0] + d.covert[3] > 0.9, "{:?}", d.covert);
        // Benign mass concentrates at the 30ms slice.
        assert!(d.benign[29] > 0.8, "{:?}", d.benign);
    }

    #[test]
    fn detection_robust_to_bin_count() {
        // The DESIGN.md ablation: fewer bins still detect, down to a
        // point.
        for bins in [30, 15, 10] {
            let d = run(2, bins);
            assert!(
                d.covert_analysis.covert,
                "covert channel should be detected with {bins} bins"
            );
            assert!(!d.benign_analysis.covert);
        }
    }
}
