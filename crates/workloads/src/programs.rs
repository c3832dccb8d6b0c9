//! CPU-bound guest programs modelled on the SPEC2006 benchmarks the paper
//! runs inside the victim VM (bzip2, hmmer, astar in Figure 6).
//!
//! Each program has a fixed amount of on-CPU work; its *relative execution
//! time* under contention (wall-clock to finish ÷ solo wall-clock) is
//! exactly the metric of Figure 6.

use monatt_hypervisor::driver::{shared, Shared, VcpuAction, VcpuView, WorkloadDriver};
use monatt_hypervisor::time::SimTime;

/// Completion record exported by a [`CpuProgram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total on-CPU work the program performs, in microseconds.
    pub total_work_us: u64,
    /// When the program finished, if it has.
    pub finished_at: Option<SimTime>,
}

impl ProgramStats {
    /// Wall-clock run time if finished (the program starts at t=0 in the
    /// benchmarks).
    pub fn elapsed_us(&self) -> Option<u64> {
        self.finished_at.map(|t| t.as_micros())
    }
}

/// A CPU-bound program: computes `total_work_us` of CPU time in fixed
/// chunks, then halts and records its completion time.
///
/// Unlike `BusyLoop`, it does not commit to its work in one request,
/// although only the last answer (`Halt`) differs. Where the last chunk
/// ends is a timer, and the stamp it draws when armed decides which of
/// two timers due at the same instant fires first: a tick that debits
/// whichever vCPU is current, or another pCPU's burst end in the segment
/// log. One request would arm that deadline at a different point in the
/// stamp sequence, so coalescing the chunks is not provably the same
/// schedule (the asking contract in `monatt_hypervisor::driver`).
#[derive(Debug)]
pub struct CpuProgram {
    remaining_us: u64,
    chunk_us: u64,
    stats: Shared<ProgramStats>,
}

impl CpuProgram {
    /// Creates a program with `total_work_us` of work, computing in
    /// `chunk_us` chunks.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(total_work_us: u64, chunk_us: u64) -> Self {
        assert!(
            total_work_us > 0 && chunk_us > 0,
            "work and chunk must be positive"
        );
        CpuProgram {
            remaining_us: total_work_us,
            chunk_us,
            stats: shared(ProgramStats {
                total_work_us,
                finished_at: None,
            }),
        }
    }

    /// A handle to the completion record, valid after the simulation runs.
    pub fn stats(&self) -> Shared<ProgramStats> {
        self.stats.clone()
    }
}

impl WorkloadDriver for CpuProgram {
    fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
        if self.remaining_us == 0 {
            let mut stats = self.stats.borrow_mut();
            if stats.finished_at.is_none() {
                stats.finished_at = Some(view.now);
            }
            return VcpuAction::Halt;
        }
        let d = self.chunk_us.min(self.remaining_us);
        self.remaining_us -= d;
        VcpuAction::Compute { duration_us: d }
    }
}

/// The victim programs of Figure 6, with distinct work volumes so their
/// solo baselines differ like the SPEC programs' run times do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecProgram {
    /// bzip2 (compression, integer).
    Bzip2,
    /// hmmer (gene sequence search, integer).
    Hmmer,
    /// astar (path-finding, integer).
    Astar,
}

impl SpecProgram {
    /// All programs in Figure 6's x-axis order.
    pub const ALL: [SpecProgram; 3] = [SpecProgram::Bzip2, SpecProgram::Hmmer, SpecProgram::Astar];

    /// The display name used in the figure.
    pub fn name(&self) -> &'static str {
        match self {
            SpecProgram::Bzip2 => "bzip2",
            SpecProgram::Hmmer => "hmmer",
            SpecProgram::Astar => "astar",
        }
    }

    /// The simulated on-CPU work of the program.
    pub fn work_us(&self) -> u64 {
        match self {
            SpecProgram::Bzip2 => 3_000_000,
            SpecProgram::Hmmer => 4_000_000,
            SpecProgram::Astar => 3_500_000,
        }
    }

    /// Instantiates the program as a workload driver.
    pub fn driver(&self) -> CpuProgram {
        CpuProgram::new(self.work_us(), 1_000)
    }
}

impl std::fmt::Display for SpecProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_hypervisor::engine::ServerSim;
    use monatt_hypervisor::scheduler::SchedParams;
    use monatt_hypervisor::vm::VmConfig;

    #[test]
    fn solo_program_finishes_in_work_time() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let prog = CpuProgram::new(500_000, 1_000);
        let stats = prog.stats();
        sim.create_vm(VmConfig::new("p", vec![Box::new(prog)]));
        sim.run_until(SimTime::from_secs(2));
        let elapsed = stats.borrow().elapsed_us().expect("finished");
        assert_eq!(elapsed, 500_000);
    }

    #[test]
    fn contended_program_takes_about_twice_as_long() {
        use monatt_hypervisor::driver::BusyLoop;
        use monatt_hypervisor::ids::PcpuId;
        let mut sim = ServerSim::new(1, SchedParams::default());
        let prog = CpuProgram::new(500_000, 1_000);
        let stats = prog.stats();
        sim.create_vm(VmConfig::new("p", vec![Box::new(prog)]).pin(vec![PcpuId(0)]));
        sim.create_vm(VmConfig::new("hog", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
        sim.run_until(SimTime::from_secs(5));
        let elapsed = stats.borrow().elapsed_us().expect("finished") as f64;
        let slowdown = elapsed / 500_000.0;
        assert!((slowdown - 2.0).abs() < 0.15, "slowdown = {slowdown}");
    }

    #[test]
    fn unfinished_program_has_no_completion() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let prog = CpuProgram::new(10_000_000, 1_000);
        let stats = prog.stats();
        sim.create_vm(VmConfig::new("p", vec![Box::new(prog)]));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(stats.borrow().finished_at, None);
    }

    #[test]
    fn spec_catalog() {
        for p in SpecProgram::ALL {
            assert!(p.work_us() > 0);
            assert!(!p.name().is_empty());
        }
        assert_eq!(SpecProgram::Bzip2.to_string(), "bzip2");
        let d = SpecProgram::Hmmer.driver();
        assert_eq!(d.stats().borrow().total_work_us, 4_000_000);
    }

    #[test]
    #[should_panic(expected = "work and chunk must be positive")]
    fn zero_work_rejected() {
        let _ = CpuProgram::new(0, 1);
    }
}
