//! The VMM Profile Tool (Section 4.5.2): observes vCPU transitions on each
//! physical core and keeps, per VM and per measurement window, its
//! virtual running time and a bank of [`INTERVAL_BINS`] usage-interval
//! counters: the covert-channel detector's Trust Evidence Registers
//! (Section 4.4.2), kept nowhere else. Both live in the VM's row of
//! [`crate::engine::ServerSim`] and are updated as each run segment
//! closes, so a server's profile is a fixed-size row per VM however long
//! it runs unattested.
//!
//! The segments themselves are kept only by an opt-in log
//! ([`crate::engine::ServerSim::set_segment_logging`], off by default)
//! for tests and traces.

use crate::ids::{PcpuId, VcpuId};
use crate::time::SimTime;

/// Number of usage-interval registers: 30 bins of [`INTERVAL_BIN_WIDTH_US`],
/// `(0,1], (1,2], …, (29,30]` ms, the last one also catching longer
/// stints (Section 4.4.2).
pub const INTERVAL_BINS: usize = 30;
/// Width of each usage-interval bin in microseconds.
pub const INTERVAL_BIN_WIDTH_US: u64 = 1_000;

/// Why a run segment ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DescheduleReason {
    /// The vCPU blocked voluntarily (sleep / I/O wait).
    Blocked,
    /// A higher-priority vCPU preempted it.
    Preempted,
    /// Its 30 ms slice expired.
    SliceExpired,
    /// It yielded voluntarily.
    Yielded,
    /// The guest program halted.
    Halted,
    /// The VM was suspended or terminated by the hypervisor.
    Stopped,
}

/// One contiguous stretch of CPU occupancy by a vCPU — a "CPU usage
/// interval" in the paper's terminology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSegment {
    /// The vCPU that ran.
    pub vcpu: VcpuId,
    /// The pCPU it ran on.
    pub pcpu: PcpuId,
    /// Stint start.
    pub start: SimTime,
    /// Stint end.
    pub end: SimTime,
    /// Why it was descheduled.
    pub reason: DescheduleReason,
}

impl RunSegment {
    /// Duration of the segment in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end.duration_since(self.start)
    }
}

/// One VM's window: running time and interval registers side by side,
/// so closing a segment touches one struct.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WindowRegisters {
    pub(crate) cpu_time_us: u64,
    pub(crate) intervals: [u64; INTERVAL_BINS],
}

impl WindowRegisters {
    /// Counts a closed run segment of `duration_us`: adds it to the
    /// running time and counts it in the interval register of its bin.
    /// A zero-length segment counts in no bin.
    pub(crate) fn record(&mut self, duration_us: u64) {
        self.cpu_time_us += duration_us;
        if duration_us > 0 {
            // (0, w] -> bin 0, (w, 2w] -> bin 1, …, longer -> the last.
            let bin = (((duration_us - 1) / INTERVAL_BIN_WIDTH_US) as usize).min(INTERVAL_BINS - 1);
            self.intervals[bin] = self.intervals[bin].saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_cpu_time() {
        let mut w = WindowRegisters::default();
        w.record(5_000);
        w.record(2_000);
        assert_eq!(w.cpu_time_us, 7_000);
    }

    #[test]
    fn histogram_binning() {
        let mut w = WindowRegisters::default();
        w.record(4_600); // 4.6 ms -> bin 4
        w.record(1_000); // 1.0 ms -> bin 0
        w.record(1); // 1 us -> bin 0
        w.record(1_001); // 1.001 ms -> bin 1
        w.record(60_000); // 60 ms -> clamped to bin 29
        w.record(0); // zero-length: no bin
        let h = &w.intervals;
        assert_eq!(h[0], 2);
        assert_eq!(h[1], 1);
        assert_eq!(h[4], 1);
        assert_eq!(h[29], 1);
        assert_eq!(h.iter().sum::<u64>(), 5);
        assert_eq!(w.cpu_time_us, 66_602);
    }
}
