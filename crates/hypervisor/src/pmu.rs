//! The Performance Monitor Unit: per-VM hardware-style event counters.
//! The paper lists the PMU as one of the Monitor Module's measurement
//! sources (Section 3.2.4); the engine counts scheduling events into the
//! VM's row of [`crate::engine::ServerSim`], and
//! [`crate::engine::ServerSim::counters`] reads them.

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
