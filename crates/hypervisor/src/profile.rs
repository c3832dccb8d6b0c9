//! The VMM Profile Tool (Section 4.5.2): observes vCPU transitions on each
//! physical core and records the virtual running time of each VM, plus the
//! run-segment log that feeds the covert-channel interval histogram
//! (Section 4.4.2).

use crate::ids::{PcpuId, VcpuId, VmId};
use crate::time::SimTime;

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

/// The profile tool: per-VM virtual running time plus the segment log.
#[derive(Clone, Debug, Default)]
pub struct ProfileTool {
    segments: Vec<RunSegment>,
    /// Indexed by `VmId` (a dense per-server counter).
    vm_cpu_time_us: Vec<u64>,
    window_start: SimTime,
}

impl ProfileTool {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed run segment (called by the engine on every
    /// deschedule).
    pub fn record(&mut self, segment: RunSegment) {
        self.track(segment.vcpu.vm);
        self.vm_cpu_time_us[segment.vcpu.vm.0 as usize] += segment.duration_us();
        self.segments.push(segment);
    }

    /// Makes room for `vm`'s total. The engine calls this when a VM is
    /// created, so recording never grows the table.
    pub(crate) fn track(&mut self, vm: VmId) {
        let row = vm.0 as usize;
        if row >= self.vm_cpu_time_us.len() {
            self.vm_cpu_time_us.resize(row + 1, 0);
        }
    }

    /// All recorded segments since the last [`Self::reset_window`].
    pub fn segments(&self) -> &[RunSegment] {
        &self.segments
    }

    /// Segments belonging to one VM.
    pub fn vm_segments(&self, vm: VmId) -> impl Iterator<Item = &RunSegment> {
        self.segments.iter().filter(move |s| s.vcpu.vm == vm)
    }

    /// Total virtual running time of `vm` in the current window
    /// (`CPU_measure` in the paper).
    pub fn vm_cpu_time_us(&self, vm: VmId) -> u64 {
        self.vm_cpu_time_us.get(vm.0 as usize).copied().unwrap_or(0)
    }

    /// Relative CPU usage of `vm`: virtual running time divided by the
    /// wall-clock window length (Section 4.5.3). Returns 0 for an empty
    /// window.
    pub fn relative_cpu_usage(&self, vm: VmId, now: SimTime) -> f64 {
        let window = now.saturating_duration_since(self.window_start);
        if window == 0 {
            return 0.0;
        }
        self.vm_cpu_time_us(vm) as f64 / window as f64
    }

    /// When the current measurement window began.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// Starts a new measurement window at `now`: clears segments and
    /// per-VM counters (both keep their capacity).
    pub fn reset_window(&mut self, now: SimTime) {
        self.segments.clear();
        self.vm_cpu_time_us.fill(0);
        self.window_start = now;
    }

    /// Builds a usage-interval histogram for `vm`: counts of segment
    /// durations falling in `(0, w], (w, 2w], …` with `bins` bins, the
    /// last bin clamping longer segments — mirroring the Trust Evidence
    /// Register programming of Section 4.4.2.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `bin_width_us == 0`.
    pub fn interval_histogram(&self, vm: VmId, bins: usize, bin_width_us: u64) -> Vec<u64> {
        assert!(bins > 0 && bin_width_us > 0, "invalid histogram shape");
        let mut hist = vec![0u64; bins];
        for seg in self.vm_segments(vm) {
            let d = seg.duration_us();
            if d == 0 {
                continue;
            }
            let bin = (((d - 1) / bin_width_us) as usize).min(bins - 1);
            hist[bin] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(vm: u32, start_us: u64, end_us: u64) -> RunSegment {
        RunSegment {
            vcpu: VcpuId {
                vm: VmId(vm),
                index: 0,
            },
            pcpu: PcpuId(0),
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            reason: DescheduleReason::Blocked,
        }
    }

    #[test]
    fn accumulates_cpu_time_per_vm() {
        let mut p = ProfileTool::new();
        p.record(seg(1, 0, 5_000));
        p.record(seg(1, 10_000, 12_000));
        p.record(seg(2, 5_000, 10_000));
        assert_eq!(p.vm_cpu_time_us(VmId(1)), 7_000);
        assert_eq!(p.vm_cpu_time_us(VmId(2)), 5_000);
        assert_eq!(p.vm_cpu_time_us(VmId(3)), 0);
    }

    #[test]
    fn relative_usage() {
        let mut p = ProfileTool::new();
        p.record(seg(1, 0, 30_000));
        let usage = p.relative_cpu_usage(VmId(1), SimTime::from_micros(60_000));
        assert!((usage - 0.5).abs() < 1e-9);
        assert_eq!(p.relative_cpu_usage(VmId(1), SimTime::ZERO), 0.0);
    }

    #[test]
    fn window_reset() {
        let mut p = ProfileTool::new();
        p.record(seg(1, 0, 10_000));
        p.reset_window(SimTime::from_micros(10_000));
        assert_eq!(p.vm_cpu_time_us(VmId(1)), 0);
        assert!(p.segments().is_empty());
        p.record(seg(1, 10_000, 40_000));
        let usage = p.relative_cpu_usage(VmId(1), SimTime::from_micros(40_000));
        assert!((usage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_binning() {
        let mut p = ProfileTool::new();
        p.record(seg(1, 0, 4_600)); // 4.6 ms -> bin 4
        p.record(seg(1, 10_000, 11_000)); // 1.0 ms -> bin 0
        p.record(seg(1, 20_000, 80_000)); // 60 ms -> clamped to bin 29
        p.record(seg(2, 0, 1_000)); // other VM, excluded
        let h = p.interval_histogram(VmId(1), 30, 1_000);
        assert_eq!(h[4], 1);
        assert_eq!(h[0], 1);
        assert_eq!(h[29], 1);
        assert_eq!(h.iter().sum::<u64>(), 3);
    }

    #[test]
    fn vm_segments_filter() {
        let mut p = ProfileTool::new();
        p.record(seg(1, 0, 1));
        p.record(seg(2, 1, 2));
        assert_eq!(p.vm_segments(VmId(1)).count(), 1);
    }
}
