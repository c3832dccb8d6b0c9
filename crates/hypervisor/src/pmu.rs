//! The Performance Monitor Unit: per-VM hardware-style event counters.
//! The paper lists the PMU as one of the Monitor Module's measurement
//! sources (Section 3.2.4); the engine feeds it scheduling events.

use crate::ids::VmId;

/// Event counters for one VM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Times any vCPU of the VM was scheduled onto a pCPU.
    pub schedules: u64,
    /// Times any vCPU was preempted by a higher-priority vCPU.
    pub preemptions: u64,
    /// IPIs sent by the VM's vCPUs.
    pub ipis_sent: u64,
    /// Wake-ups (timer or IPI) of the VM's vCPUs.
    pub wakeups: u64,
    /// Wake-ups that were granted BOOST priority.
    pub boosts: u64,
    /// Voluntary blocks (sleeps).
    pub blocks: u64,
}

/// A bank of per-VM counters: one row per live VM of the server, in
/// ascending `VmId` order. The engine counts into a row by its index;
/// readers name the VM.
#[derive(Clone, Debug, Default)]
pub struct Pmu {
    rows: Vec<(VmId, VmCounters)>,
}

impl Pmu {
    /// Creates an empty PMU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters for `vm` (zeroes for a VM the PMU does not track: never
    /// created, or terminated).
    pub fn counters(&self, vm: VmId) -> VmCounters {
        self.rows
            .binary_search_by_key(&vm, |&(id, _)| id)
            .map_or_else(|_| VmCounters::default(), |row| self.rows[row].1)
    }

    /// The VMs with a row, in ascending `VmId` order.
    pub fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.rows.iter().map(|&(id, _)| id)
    }

    /// Appends a zeroed row for `vm`, which must outnumber every tracked
    /// VM: the engine calls this when it creates a VM, so counting never
    /// grows the table.
    pub(crate) fn track(&mut self, vm: VmId) {
        debug_assert!(self.rows.last().is_none_or(|&(last, _)| last < vm));
        self.rows.push((vm, VmCounters::default()));
    }

    /// The counters in row `row`.
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut VmCounters {
        &mut self.rows[row].1
    }

    /// Removes row `row` (its VM terminated) and returns its counters;
    /// later rows move up one.
    #[cold]
    pub(crate) fn forget(&mut self, row: usize) -> VmCounters {
        self.rows.remove(row).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_tracked_vm() {
        let mut pmu = Pmu::new();
        pmu.track(VmId(1));
        pmu.track(VmId(4));
        pmu.row_mut(0).ipis_sent += 2;
        pmu.row_mut(0).ipis_sent += 1;
        pmu.row_mut(1).blocks += 1;
        assert_eq!(pmu.counters(VmId(1)).ipis_sent, 3);
        assert_eq!(pmu.counters(VmId(2)), VmCounters::default());
        assert_eq!(pmu.forget(0).ipis_sent, 3);
        assert_eq!(pmu.counters(VmId(1)), VmCounters::default());
        assert_eq!(pmu.counters(VmId(4)).blocks, 1);
        assert_eq!(pmu.row_mut(0).blocks, 1, "the later row moved up");
    }
}
