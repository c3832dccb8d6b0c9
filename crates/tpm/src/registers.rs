//! Trust Evidence Registers — the paper's new hardware feature (Section
//! 3.2.4, Figure 2).
//!
//! These are programmable counter/value registers, analogous to performance
//! counters but measuring aspects of the system's *security*. The covert
//! channel detector (Case Study III) programs 30 of them as a histogram of
//! CPU-usage intervals; the availability monitor (Case Study IV) uses one
//! as an accumulator for a VM's virtual running time. Only the Trust Module
//! and Monitor Module may access them, modelled by the [`AccessToken`]
//! required for mutation.

use std::fmt;

/// How a register bank is interpreted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegisterLayout {
    /// A histogram: register `i` counts events falling in bin `i`. The
    /// paper's covert-channel detector uses 30 one-millisecond bins,
    /// `(0,1], (1,2], …, (29,30]`.
    Histogram {
        /// Number of bins.
        bins: usize,
        /// Width of each bin in microseconds.
        bin_width_us: u64,
    },
    /// Independent accumulator registers (e.g. total virtual running time).
    Accumulators {
        /// Number of registers.
        count: usize,
    },
}

/// Capability token proving the caller is the Trust/Monitor Module.
/// Obtained from [`TrustEvidenceRegisters::unlock`]; the simulation uses it
/// to model the paper's hardware access control.
#[derive(Debug)]
pub struct AccessToken(());

/// A bank of Trust Evidence Registers.
///
/// # Examples
///
/// ```
/// use monatt_tpm::registers::{RegisterLayout, TrustEvidenceRegisters};
///
/// let mut regs = TrustEvidenceRegisters::new(RegisterLayout::Histogram {
///     bins: 30,
///     bin_width_us: 1_000,
/// });
/// let token = regs.unlock();
/// regs.record_interval(&token, 4_600, 1); // 4.6 ms -> bin (4,5]
/// assert_eq!(regs.snapshot()[4], 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TrustEvidenceRegisters {
    layout: RegisterLayout,
    values: Vec<u64>,
}

impl fmt::Debug for TrustEvidenceRegisters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrustEvidenceRegisters")
            .field("layout", &self.layout)
            .field("len", &self.values.len())
            .finish()
    }
}

impl TrustEvidenceRegisters {
    /// Allocates a register bank with the given layout, all zeroed.
    ///
    /// # Panics
    ///
    /// Panics if the layout describes zero registers or a zero bin width.
    pub fn new(layout: RegisterLayout) -> Self {
        let len = match &layout {
            RegisterLayout::Histogram { bins, bin_width_us } => {
                assert!(*bins > 0, "histogram needs at least one bin");
                assert!(*bin_width_us > 0, "bin width must be positive");
                *bins
            }
            RegisterLayout::Accumulators { count } => {
                assert!(*count > 0, "need at least one accumulator");
                *count
            }
        };
        TrustEvidenceRegisters {
            layout,
            values: vec![0; len],
        }
    }

    /// Returns the layout the bank was programmed with.
    pub fn layout(&self) -> &RegisterLayout {
        &self.layout
    }

    /// Grants mutation access (models the hardware restriction that only
    /// the Trust Module / Monitor Module can write these registers).
    pub fn unlock(&mut self) -> AccessToken {
        AccessToken(())
    }

    /// Records `count` samples of one duration into the histogram (one
    /// saturating add). Durations beyond the last bin are clamped into
    /// it (the paper's (29,30] bin also catches full 30 ms scheduler
    /// slices); zero-length samples land in bin 0.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not in histogram layout.
    pub fn record_interval(&mut self, _token: &AccessToken, duration_us: u64, count: u64) {
        let RegisterLayout::Histogram { bins, bin_width_us } = &self.layout else {
            // Layout misuse is a caller bug, not adversarial input; the
            // panic is the documented API contract.
            panic!("record_interval requires histogram layout"); // #[allow(monatt::panic_freedom)]
        };
        // (0, w] -> bin 0, (w, 2w] -> bin 1, ...
        let bin = if duration_us == 0 {
            0
        } else {
            (((duration_us - 1) / bin_width_us) as usize).min(bins - 1)
        };
        // `bin` is clamped to `bins - 1` above.
        self.values[bin] = self.values[bin].saturating_add(count); // #[allow(monatt::panic_freedom)]
    }

    /// Adds `amount` to accumulator `index`.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not in accumulator layout or `index` is out of
    /// range.
    pub fn accumulate(&mut self, _token: &AccessToken, index: usize, amount: u64) {
        assert!(
            matches!(self.layout, RegisterLayout::Accumulators { .. }),
            "accumulate requires accumulator layout"
        );
        // Out-of-range accumulator indices are a documented panic.
        self.values[index] = self.values[index].saturating_add(amount); // #[allow(monatt::panic_freedom)]
    }

    /// Returns a copy of all register values.
    pub fn snapshot(&self) -> Vec<u64> {
        self.values.clone()
    }

    /// Returns the total count across all registers.
    pub fn total(&self) -> u64 {
        self.values
            .iter()
            .fold(0u64, |acc, v| acc.saturating_add(*v))
    }

    /// Clears every register (start of a new detection period).
    pub fn clear(&mut self, _token: &AccessToken) {
        for v in &mut self.values {
            *v = 0;
        }
    }

    /// Normalizes a histogram snapshot into a probability distribution.
    /// Returns all-zero probabilities if no events were recorded.
    pub fn distribution(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.values.len()];
        }
        self.values
            .iter()
            .map(|&v| v as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram30() -> TrustEvidenceRegisters {
        TrustEvidenceRegisters::new(RegisterLayout::Histogram {
            bins: 30,
            bin_width_us: 1_000,
        })
    }

    #[test]
    fn histogram_binning_matches_paper() {
        // Paper: "Suppose the sender VM executes for 4.6ms, then the Trust
        // Evidence Register (4,5] will be incremented by 1."
        let mut regs = histogram30();
        let token = regs.unlock();
        regs.record_interval(&token, 4_600, 1);
        assert_eq!(regs.snapshot()[4], 1);
    }

    #[test]
    fn bin_edges() {
        let mut regs = histogram30();
        let token = regs.unlock();
        regs.record_interval(&token, 1, 1); // (0,1] -> bin 0
        regs.record_interval(&token, 1_000, 1); // exactly 1 ms -> bin 0
        regs.record_interval(&token, 1_001, 1); // (1,2] -> bin 1
        regs.record_interval(&token, 30_000, 1); // 30 ms -> bin 29
        regs.record_interval(&token, 99_000, 1); // clamped to bin 29
        regs.record_interval(&token, 0, 1); // zero-length -> bin 0
        let snap = regs.snapshot();
        assert_eq!(snap[0], 3);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[29], 2);
        assert_eq!(regs.total(), 6);
    }

    #[test]
    fn counted_samples_add_once_and_saturate() {
        let mut regs = histogram30();
        let token = regs.unlock();
        regs.record_interval(&token, 4_600, 3);
        regs.record_interval(&token, 4_001, 2);
        regs.record_interval(&token, 4_001, 0);
        assert_eq!(regs.snapshot()[4], 5);
        regs.record_interval(&token, 99_000, u64::MAX);
        regs.record_interval(&token, 30_000, 1);
        assert_eq!(regs.snapshot()[29], u64::MAX);
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut regs = histogram30();
        let token = regs.unlock();
        for us in [500, 1_500, 1_700, 29_500] {
            regs.record_interval(&token, us, 1);
        }
        let dist = regs.distribution();
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((dist[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_is_zero() {
        let regs = histogram30();
        assert!(regs.distribution().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn accumulators() {
        let mut regs = TrustEvidenceRegisters::new(RegisterLayout::Accumulators { count: 2 });
        let token = regs.unlock();
        regs.accumulate(&token, 0, 100);
        regs.accumulate(&token, 0, 50);
        regs.accumulate(&token, 1, 7);
        assert_eq!(regs.snapshot(), vec![150, 7]);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut regs = histogram30();
        let token = regs.unlock();
        regs.record_interval(&token, 5_000, 1);
        regs.clear(&token);
        assert_eq!(regs.total(), 0);
    }

    #[test]
    #[should_panic(expected = "record_interval requires histogram layout")]
    fn record_on_accumulator_panics() {
        let mut regs = TrustEvidenceRegisters::new(RegisterLayout::Accumulators { count: 1 });
        let token = regs.unlock();
        regs.record_interval(&token, 5, 1);
    }

    #[test]
    #[should_panic(expected = "histogram needs at least one bin")]
    fn zero_bins_rejected() {
        let _ = TrustEvidenceRegisters::new(RegisterLayout::Histogram {
            bins: 0,
            bin_width_us: 1,
        });
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut regs = TrustEvidenceRegisters::new(RegisterLayout::Accumulators { count: 1 });
        let token = regs.unlock();
        regs.accumulate(&token, 0, u64::MAX);
        regs.accumulate(&token, 0, 10);
        assert_eq!(regs.snapshot()[0], u64::MAX);
    }
}
