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

/// A bank of per-VM counters, indexed by `VmId` (a dense per-server
/// counter).
#[derive(Clone, Debug, Default)]
pub struct Pmu {
    counters: Vec<VmCounters>,
}

impl Pmu {
    /// Creates an empty PMU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable counters for `vm`, created on first touch.
    pub fn counters_mut(&mut self, vm: VmId) -> &mut VmCounters {
        let row = vm.0 as usize;
        if row >= self.counters.len() {
            self.counters.resize(row + 1, VmCounters::default());
        }
        &mut self.counters[row]
    }

    /// Read-only counters for `vm` (zeroes if never touched).
    pub fn counters(&self, vm: VmId) -> VmCounters {
        self.counters
            .get(vm.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut pmu = Pmu::new();
        pmu.counters_mut(VmId(1)).ipis_sent += 2;
        pmu.counters_mut(VmId(1)).ipis_sent += 1;
        assert_eq!(pmu.counters(VmId(1)).ipis_sent, 3);
        assert_eq!(pmu.counters(VmId(2)), VmCounters::default());
    }

    #[test]
    fn reset_clears() {
        let mut pmu = Pmu::new();
        pmu.counters_mut(VmId(1)).boosts = 5;
        pmu.reset();
        assert_eq!(pmu.counters(VmId(1)).boosts, 0);
    }
}
