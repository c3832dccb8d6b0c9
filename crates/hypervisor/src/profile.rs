//! The VMM Profile Tool (Section 4.5.2): observes vCPU transitions on each
//! physical core and keeps, per VM and per measurement window, its
//! virtual running time and a bank of [`INTERVAL_BINS`] usage-interval
//! counters — the values the covert-channel detector's Trust Evidence
//! Registers hold (Section 4.4.2). Both are updated as each run segment
//! closes, so a server's profile is a fixed-size row per VM however long
//! it runs unattested.
//!
//! The segments themselves are kept only by an opt-in log
//! ([`ProfileTool::set_logging`], off by default) for tests and traces.

use crate::ids::{PcpuId, VcpuId, VmId};
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
/// so closing a segment touches one row.
#[derive(Clone, Copy, Debug)]
struct VmRow {
    vm: VmId,
    cpu_time_us: u64,
    intervals: [u64; INTERVAL_BINS],
}

/// The profile tool: per-VM virtual running time and usage-interval
/// registers, plus the opt-in segment log.
#[derive(Clone, Debug, Default)]
pub struct ProfileTool {
    /// One row per live VM of the server, in ascending `VmId` order.
    rows: Vec<VmRow>,
    window_start: SimTime,
    /// The segment log; `None` while logging is off.
    log: Option<Vec<RunSegment>>,
}

impl ProfileTool {
    /// Creates an empty profile, segment log off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns the segment log on or off (off by default). While on, every
    /// recorded segment is also kept until the next
    /// [`Self::reset_window`], for [`Self::segments`] to return; the
    /// running times and interval registers are the same either way.
    /// Turning it off drops the log.
    pub fn set_logging(&mut self, on: bool) {
        self.log = on.then(|| self.log.take().unwrap_or_default());
    }

    /// Records a completed run segment of the VM in row `row` (called by
    /// the engine on every deschedule): adds its duration to the VM's
    /// running time and counts it in the interval register of its bin.
    /// A zero-length segment counts in no bin.
    pub(crate) fn record(&mut self, row: usize, segment: RunSegment) {
        let d = segment.duration_us();
        let row = &mut self.rows[row];
        debug_assert_eq!(row.vm, segment.vcpu.vm);
        row.cpu_time_us += d;
        if d > 0 {
            // (0, w] -> bin 0, (w, 2w] -> bin 1, …, longer -> the last.
            let bin = (((d - 1) / INTERVAL_BIN_WIDTH_US) as usize).min(INTERVAL_BINS - 1);
            row.intervals[bin] = row.intervals[bin].saturating_add(1);
        }
        if let Some(log) = &mut self.log {
            log_segment(log, segment);
        }
    }

    /// Appends a zeroed row for `vm`, which must outnumber every tracked
    /// VM. The engine calls this when a VM is created, so recording
    /// never grows the table.
    pub(crate) fn track(&mut self, vm: VmId) {
        debug_assert!(self.rows.last().is_none_or(|last| last.vm < vm));
        self.rows.push(VmRow {
            vm,
            cpu_time_us: 0,
            intervals: [0; INTERVAL_BINS],
        });
    }

    /// Removes row `row` (its VM terminated) and returns its window's
    /// running time and interval registers; later rows move up one.
    #[cold]
    pub(crate) fn forget(&mut self, row: usize) -> (u64, [u64; INTERVAL_BINS]) {
        let row = self.rows.remove(row);
        (row.cpu_time_us, row.intervals)
    }

    /// The VMs with a row, in ascending `VmId` order.
    pub fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.rows.iter().map(|r| r.vm)
    }

    /// `vm`'s row, if the tool tracks it.
    fn row(&self, vm: VmId) -> Option<&VmRow> {
        let row = self.rows.binary_search_by_key(&vm, |r| r.vm).ok()?;
        Some(&self.rows[row])
    }

    /// All recorded segments since the last [`Self::reset_window`].
    ///
    /// # Panics
    ///
    /// Panics if the segment log is off ([`Self::set_logging`]): an
    /// empty answer would let a check over the log pass on nothing.
    pub fn segments(&self) -> &[RunSegment] {
        self.log.as_deref().expect("segment log is off")
    }

    /// Segments belonging to one VM.
    ///
    /// # Panics
    ///
    /// Panics if the segment log is off, as [`Self::segments`].
    pub fn vm_segments(&self, vm: VmId) -> impl Iterator<Item = &RunSegment> {
        self.segments().iter().filter(move |s| s.vcpu.vm == vm)
    }

    /// Total virtual running time of `vm` in the current window
    /// (`CPU_measure` in the paper); 0 for a VM the tool does not track.
    pub fn vm_cpu_time_us(&self, vm: VmId) -> u64 {
        self.row(vm).map_or(0, |r| r.cpu_time_us)
    }

    /// `vm`'s usage-interval registers for the current window: register
    /// `i` counts the segments whose duration `d` fell in
    /// `(i·w, (i+1)·w]` for `w` = [`INTERVAL_BIN_WIDTH_US`], the last
    /// register also those longer. All zero for a VM the tool does not
    /// track.
    pub fn interval_registers(&self, vm: VmId) -> &[u64; INTERVAL_BINS] {
        self.row(vm).map_or(&[0; INTERVAL_BINS], |r| &r.intervals)
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

    /// Starts a new measurement window at `now`: zeroes every VM's
    /// running time and interval registers and clears the segment log
    /// (which keeps its capacity).
    pub fn reset_window(&mut self, now: SimTime) {
        for row in &mut self.rows {
            row.cpu_time_us = 0;
            row.intervals = [0; INTERVAL_BINS];
        }
        if let Some(log) = &mut self.log {
            log.clear();
        }
        self.window_start = now;
    }
}

/// The opt-in log's push, kept off the event path's inlined body.
#[cold]
fn log_segment(log: &mut Vec<RunSegment>, segment: RunSegment) {
    log.push(segment);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tool tracking VMs 1 and 2.
    fn tool() -> ProfileTool {
        let mut p = ProfileTool::new();
        p.track(VmId(1));
        p.track(VmId(2));
        p
    }

    /// Records `segment` in its VM's row.
    fn record(p: &mut ProfileTool, segment: RunSegment) {
        let row = p.rows.iter().position(|r| r.vm == segment.vcpu.vm);
        p.record(row.expect("tracked VM"), segment);
    }

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
        let mut p = tool();
        record(&mut p, seg(1, 0, 5_000));
        record(&mut p, seg(1, 10_000, 12_000));
        record(&mut p, seg(2, 5_000, 10_000));
        assert_eq!(p.vm_cpu_time_us(VmId(1)), 7_000);
        assert_eq!(p.vm_cpu_time_us(VmId(2)), 5_000);
        assert_eq!(p.vm_cpu_time_us(VmId(3)), 0);
    }

    #[test]
    fn relative_usage() {
        let mut p = tool();
        record(&mut p, seg(1, 0, 30_000));
        let usage = p.relative_cpu_usage(VmId(1), SimTime::from_micros(60_000));
        assert!((usage - 0.5).abs() < 1e-9);
        assert_eq!(p.relative_cpu_usage(VmId(1), SimTime::ZERO), 0.0);
    }

    #[test]
    fn window_reset() {
        let mut p = tool();
        p.set_logging(true);
        record(&mut p, seg(1, 0, 10_000));
        p.reset_window(SimTime::from_micros(10_000));
        assert_eq!(p.vm_cpu_time_us(VmId(1)), 0);
        assert_eq!(p.interval_registers(VmId(1)), &[0; INTERVAL_BINS]);
        assert!(p.segments().is_empty());
        record(&mut p, seg(1, 10_000, 40_000));
        let usage = p.relative_cpu_usage(VmId(1), SimTime::from_micros(40_000));
        assert!((usage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_binning() {
        let mut p = tool();
        record(&mut p, seg(1, 0, 4_600)); // 4.6 ms -> bin 4
        record(&mut p, seg(1, 10_000, 11_000)); // 1.0 ms -> bin 0
        record(&mut p, seg(1, 12_000, 12_001)); // 1 us -> bin 0
        record(&mut p, seg(1, 13_000, 14_001)); // 1.001 ms -> bin 1
        record(&mut p, seg(1, 20_000, 80_000)); // 60 ms -> clamped to bin 29
        record(&mut p, seg(1, 90_000, 90_000)); // zero-length: no bin
        record(&mut p, seg(2, 0, 1_000)); // other VM, excluded
        let h = p.interval_registers(VmId(1));
        assert_eq!(h[0], 2);
        assert_eq!(h[1], 1);
        assert_eq!(h[4], 1);
        assert_eq!(h[29], 1);
        assert_eq!(h.iter().sum::<u64>(), 5);
        assert_eq!(p.interval_registers(VmId(7)), &[0; INTERVAL_BINS]);
    }

    #[test]
    fn logging_is_opt_in_and_changes_no_count() {
        let mut on = tool();
        on.set_logging(true);
        let mut off = tool();
        for p in [&mut on, &mut off] {
            record(p, seg(1, 0, 1));
            record(p, seg(2, 1, 2_500));
        }
        assert_eq!(on.segments().len(), 2);
        for vm in [VmId(1), VmId(2)] {
            assert_eq!(on.vm_cpu_time_us(vm), off.vm_cpu_time_us(vm));
            assert_eq!(on.interval_registers(vm), off.interval_registers(vm));
        }
        on.set_logging(false);
        assert!(on.log.is_none());
    }

    #[test]
    fn vm_segments_filter() {
        let mut p = tool();
        p.set_logging(true);
        record(&mut p, seg(1, 0, 1));
        record(&mut p, seg(2, 1, 2));
        assert_eq!(p.vm_segments(VmId(1)).count(), 1);
    }

    #[test]
    #[should_panic(expected = "segment log is off")]
    fn reading_a_log_that_is_off_panics() {
        let mut p = tool();
        record(&mut p, seg(1, 0, 1));
        let _ = p.segments();
    }
}
