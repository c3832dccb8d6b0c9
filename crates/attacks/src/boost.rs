//! The CPU resource availability attack of Case Study IV (Section 4.5).
//!
//! The attacker VM launches multiple vCPUs that keep waking each other
//! with IPIs so one of them always holds the credit scheduler's BOOST
//! priority, starving a co-resident victim. The enabling vulnerability
//! (from Zhou et al., reproduced here) is *tick dodging*: the 10 ms
//! accounting tick only debits the vCPU running *at the tick instant*, so
//! an attacker that sleeps across every tick is never charged — it stays
//! UNDER (boost-eligible) forever while the victim, which runs exactly
//! when the ticks fire, pays for all of it and sinks to OVER.
//!
//! The victim is left only the small guard windows around each tick:
//! with the default parameters its CPU share drops to a few percent —
//! the paper's "degraded by more than ten times" (Figure 6).

use monatt_hypervisor::driver::{VcpuAction, VcpuView, WakeReason, WorkloadDriver};

/// Default guard before each tick during which the attacker sleeps.
pub const DEFAULT_GUARD_US: u64 = 300;
/// Default settle time after each tick before the attacker resumes.
pub const DEFAULT_SETTLE_US: u64 = 300;

/// One vCPU of the tick-dodging boost attacker. Deploy two of these (peer
/// indices pointing at each other) in one VM pinned to the victim's pCPU.
#[derive(Debug)]
pub struct BoostAttackVcpu {
    tick_us: u64,
    guard_us: u64,
    settle_us: u64,
    peer_index: usize,
    pending_handoff: bool,
}

impl BoostAttackVcpu {
    /// Creates an attacker vCPU that hands off to `peer_index` each cycle,
    /// with the default guard/settle windows against a 10 ms tick.
    pub fn new(peer_index: usize) -> Self {
        Self::with_params(peer_index, 10_000, DEFAULT_GUARD_US, DEFAULT_SETTLE_US)
    }

    /// Creates an attacker vCPU with explicit tick period and windows.
    ///
    /// # Panics
    ///
    /// Panics if `guard + settle >= tick` (no room left to compute).
    pub fn with_params(peer_index: usize, tick_us: u64, guard_us: u64, settle_us: u64) -> Self {
        assert!(
            guard_us + settle_us < tick_us,
            "guard and settle must leave compute room in the tick"
        );
        BoostAttackVcpu {
            tick_us,
            guard_us,
            settle_us,
            peer_index,
            pending_handoff: false,
        }
    }
}

impl WorkloadDriver for BoostAttackVcpu {
    fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
        let now = view.now.as_micros();
        let next_tick = (now / self.tick_us + 1) * self.tick_us;
        if self.pending_handoff {
            // Wake the peer so one of us is always boosted, then sleep
            // across the tick so the debit lands on the victim.
            self.pending_handoff = false;
            return VcpuAction::SendIpi {
                target_index: self.peer_index,
            };
        }
        if now + self.guard_us >= next_tick {
            // In the guard zone: sleep until just past the tick. The timer
            // wake re-grants BOOST (we are always in credit).
            return VcpuAction::Block {
                duration_us: Some(next_tick + self.settle_us - now),
            };
        }
        // Safe region: hog the CPU right up to the guard zone.
        self.pending_handoff = true;
        VcpuAction::Compute {
            duration_us: next_tick - self.guard_us - now,
        }
    }

    fn on_wake(&mut self, _view: &VcpuView, _reason: WakeReason) {}
}

/// Builds the two-vCPU driver set for one attacker VM.
pub fn boost_attack_drivers() -> Vec<Box<dyn WorkloadDriver>> {
    vec![
        Box::new(BoostAttackVcpu::new(1)),
        Box::new(BoostAttackVcpu::new(0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_hypervisor::engine::ServerSim;
    use monatt_hypervisor::ids::PcpuId;
    use monatt_hypervisor::scheduler::SchedParams;
    use monatt_hypervisor::time::SimTime;
    use monatt_hypervisor::vm::VmConfig;
    use monatt_workloads::programs::CpuProgram;

    fn run_attack(params: SchedParams) -> (f64, f64) {
        let mut sim = ServerSim::new(1, params);
        let victim_prog = CpuProgram::new(60_000_000, 1_000);
        let victim = sim
            .create_vm(VmConfig::new("victim", vec![Box::new(victim_prog)]).pin(vec![PcpuId(0)]));
        let attacker = sim.create_vm(
            VmConfig::new("attacker", boost_attack_drivers()).pin(vec![PcpuId(0), PcpuId(0)]),
        );
        sim.run_until(SimTime::from_secs(10));
        let vu = sim.relative_cpu_usage(victim);
        let au = sim.relative_cpu_usage(attacker);
        (vu, au)
    }

    #[test]
    fn attack_starves_the_victim() {
        let (victim_usage, attacker_usage) = run_attack(SchedParams::default());
        assert!(
            victim_usage < 0.10,
            "victim should get <10% CPU (>10x degradation), got {victim_usage}"
        );
        assert!(
            attacker_usage > 0.80,
            "attacker should hog the CPU, got {attacker_usage}"
        );
    }

    #[test]
    fn boost_off_alone_does_not_stop_the_attack() {
        // Root-cause documentation: even with BOOST disabled, tick dodging
        // keeps the attacker UNDER and the victim OVER, so attacker wakes
        // still preempt. The vulnerability is the sampled accounting.
        let (victim_usage, _) = run_attack(SchedParams::without_boost());
        assert!(
            victim_usage < 0.15,
            "tick dodging should still starve the victim, got {victim_usage}"
        );
    }

    #[test]
    fn precise_accounting_defeats_the_attack() {
        // Hardening ablation: charging actual runtime at every deschedule
        // makes the attacker pay for its ~95% usage, dropping it to OVER;
        // its wakes stop outranking the victim and fairness returns.
        let (victim_usage, _) = run_attack(SchedParams::with_precise_accounting());
        assert!(
            victim_usage > 0.30,
            "precise accounting should restore a fair share, got {victim_usage}"
        );
    }

    #[test]
    fn attacker_dodges_tick_debits() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let victim_prog = CpuProgram::new(60_000_000, 1_000);
        let _victim = sim
            .create_vm(VmConfig::new("victim", vec![Box::new(victim_prog)]).pin(vec![PcpuId(0)]));
        let attacker = sim.create_vm(
            VmConfig::new("attacker", boost_attack_drivers()).pin(vec![PcpuId(0), PcpuId(0)]),
        );
        sim.run_until(SimTime::from_secs(5));
        // The attacker keeps winning boosts throughout the run, proof that
        // its credits never go negative despite ~95% CPU usage.
        let counters = sim.counters(attacker);
        assert!(counters.boosts > 400, "boosts = {}", counters.boosts);
    }

    #[test]
    #[should_panic(expected = "guard and settle must leave compute room")]
    fn degenerate_windows_rejected() {
        let _ = BoostAttackVcpu::with_params(1, 1_000, 600, 500);
    }
}
