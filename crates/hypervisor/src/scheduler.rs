//! Credit-scheduler policy state, modelled on Xen's credit1 scheduler:
//! weighted proportional-share credits, 10 ms accounting ticks that debit
//! the *currently running* vCPU, 30 ms credit refills, and the BOOST
//! priority for vCPUs that wake from sleep while in credit.
//!
//! Both attacks reproduced from the paper exploit this exact mechanism
//! set: the covert channel uses boost-on-wake for fine-grained CPU
//! control, and the availability attack combines boost with tick-dodging
//! (sleeping across the sampling instants so the attacker is never the one
//! debited — the vulnerability described by Zhou et al. and exploited in
//! Section 4.5 of the paper).

use crate::ids::PcpuId;
use crate::time::SimTime;

/// Scheduler tuning parameters. Defaults match Xen's credit1 scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedParams {
    /// Accounting tick period (Xen: 10 ms). The running vCPU is debited at
    /// each tick.
    pub tick_us: u64,
    /// Maximum time slice before a running vCPU is requeued (Xen: 30 ms).
    pub slice_us: u64,
    /// Credit refill period (Xen: 30 ms).
    pub acct_period_us: u64,
    /// Credits debited from the running vCPU at each tick (Xen: 100).
    pub credits_per_tick: i64,
    /// Credits distributed per pCPU per accounting period (Xen: 300).
    pub credits_per_acct: i64,
    /// Upper clamp on a vCPU's credit balance. Prevents unbounded hoarding
    /// while letting idle vCPUs "build up credits" as the paper's covert
    /// channel sender does.
    pub credit_cap: i64,
    /// Lower clamp on a vCPU's credit balance.
    pub credit_floor: i64,
    /// Whether wake-up BOOST is enabled. Disabling it removes the covert
    /// channel's instant preemption (but not the availability attack,
    /// whose root cause is tick sampling).
    pub boost_enabled: bool,
    /// Precise credit accounting: debit each vCPU for its *actual* runtime
    /// at every deschedule instead of sampling whoever runs at the 10 ms
    /// tick. This closes the tick-dodging vulnerability that the
    /// availability attack exploits — the hardening ablation.
    pub precise_accounting: bool,
}

impl Default for SchedParams {
    fn default() -> Self {
        SchedParams {
            tick_us: 10_000,
            slice_us: 30_000,
            acct_period_us: 30_000,
            credits_per_tick: 100,
            credits_per_acct: 300,
            credit_cap: 300,
            credit_floor: -600,
            boost_enabled: true,
            precise_accounting: false,
        }
    }
}

impl SchedParams {
    /// Xen defaults with BOOST disabled (the scheduler-hardening ablation).
    pub fn without_boost() -> Self {
        SchedParams {
            boost_enabled: false,
            ..SchedParams::default()
        }
    }

    /// Xen defaults with precise (non-sampled) credit accounting — the
    /// hardening that defeats the tick-dodging availability attack.
    pub fn with_precise_accounting() -> Self {
        SchedParams {
            precise_accounting: true,
            ..SchedParams::default()
        }
    }
}

/// Effective scheduling priority, strongest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Woke from sleep while in credit; preempts UNDER and OVER.
    Boost,
    /// Credit balance is non-negative.
    Under,
    /// Credit balance is negative (over its fair share).
    Over,
}

/// Run state of a vCPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// On a pCPU since the given instant.
    Running {
        /// When this stint began.
        since: SimTime,
    },
    /// Waiting in a run queue.
    Runnable,
    /// Blocked (sleeping), possibly with a pending timer wake.
    Blocked,
    /// Suspended by the hypervisor (VM pause); not schedulable.
    Paused,
    /// Finished for good.
    Halted,
}

/// Per-vCPU scheduler bookkeeping.
#[derive(Clone, Debug)]
pub struct SchedVcpu {
    /// The pCPU this vCPU is pinned to.
    pub pcpu: PcpuId,
    /// Scheduler weight inherited from the VM.
    pub weight: u32,
    /// Current run state.
    pub state: RunState,
    /// Credit balance.
    pub credits: i64,
    /// Whether the vCPU currently holds wake-up boost.
    pub boosted: bool,
    /// Remaining on-CPU time of the driver's current `Compute` request.
    pub pending_compute_us: u64,
    /// When the current compute batch started consuming CPU (valid while
    /// running with `pending_compute_us > 0`).
    pub compute_started: SimTime,
    /// Set while the vCPU is consuming the minimal quantum a `Yield`
    /// costs; when the quantum completes, the vCPU is requeued instead of
    /// asking its driver again. (Guarantees time progress even for a
    /// driver that yields in a loop.)
    pub yield_pending: bool,
    /// Total on-CPU microseconds consumed.
    pub cpu_time_us: u64,
    /// State preserved across VM suspension (so resume restores it).
    pub state_before_pause: Option<RunStateKind>,
}

/// A `RunState` without payload, for suspension bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStateKind {
    /// Was runnable (or running).
    Runnable,
    /// Was blocked.
    Blocked,
    /// Was halted.
    Halted,
}

impl SchedVcpu {
    /// Creates a fresh runnable vCPU pinned to `pcpu`.
    pub fn new(pcpu: PcpuId, weight: u32) -> Self {
        SchedVcpu {
            pcpu,
            weight,
            state: RunState::Runnable,
            credits: 0,
            boosted: false,
            pending_compute_us: 0,
            compute_started: SimTime::ZERO,
            yield_pending: false,
            cpu_time_us: 0,
            state_before_pause: None,
        }
    }

    /// The effective priority used for queueing and preemption.
    pub fn effective_priority(&self) -> Priority {
        if self.boosted {
            Priority::Boost
        } else if self.credits >= 0 {
            Priority::Under
        } else {
            Priority::Over
        }
    }

    /// Applies a credit delta, clamping to the configured bounds.
    pub fn adjust_credits(&mut self, delta: i64, params: &SchedParams) {
        self.credits = (self.credits + delta)
            .min(params.credit_cap)
            .max(params.credit_floor);
    }

    /// True if this vCPU participates in scheduling (not halted/paused).
    pub fn is_schedulable(&self) -> bool {
        !matches!(self.state, RunState::Halted | RunState::Paused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_xen() {
        let p = SchedParams::default();
        assert_eq!(p.tick_us, 10_000);
        assert_eq!(p.slice_us, 30_000);
        assert_eq!(p.acct_period_us, 30_000);
        assert_eq!(p.credits_per_tick, 100);
        assert!(p.boost_enabled);
        assert!(!SchedParams::without_boost().boost_enabled);
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::Boost < Priority::Under);
        assert!(Priority::Under < Priority::Over);
    }

    #[test]
    fn effective_priority_transitions() {
        let mut v = SchedVcpu::new(PcpuId(0), 256);
        assert_eq!(v.effective_priority(), Priority::Under);
        v.credits = -1;
        assert_eq!(v.effective_priority(), Priority::Over);
        v.boosted = true;
        assert_eq!(v.effective_priority(), Priority::Boost);
    }

    #[test]
    fn credit_clamping() {
        let p = SchedParams::default();
        let mut v = SchedVcpu::new(PcpuId(0), 256);
        v.adjust_credits(10_000, &p);
        assert_eq!(v.credits, p.credit_cap);
        v.adjust_credits(-100_000, &p);
        assert_eq!(v.credits, p.credit_floor);
    }

    #[test]
    fn schedulability() {
        let mut v = SchedVcpu::new(PcpuId(0), 256);
        assert!(v.is_schedulable());
        v.state = RunState::Halted;
        assert!(!v.is_schedulable());
        v.state = RunState::Paused;
        assert!(!v.is_schedulable());
        v.state = RunState::Blocked;
        assert!(v.is_schedulable());
    }
}
