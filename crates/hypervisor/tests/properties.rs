//! Property-based tests of scheduler invariants: whatever random workload
//! mix runs, the simulator must conserve time, never overlap runs on a
//! pCPU, and stay deterministic.

use monatt_hypervisor::driver::{VcpuAction, VcpuView, WorkloadDriver};
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::PcpuId;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmConfig;
use proptest::prelude::*;

/// A random compute/block/yield workload driven by a seeded pattern.
#[derive(Debug)]
struct FuzzDriver {
    pattern: Vec<u8>,
    pos: usize,
}

impl FuzzDriver {
    fn new(pattern: Vec<u8>) -> Self {
        FuzzDriver { pattern, pos: 0 }
    }
}

impl WorkloadDriver for FuzzDriver {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        let byte = self.pattern[self.pos % self.pattern.len()];
        self.pos += 1;
        match byte % 4 {
            0 => VcpuAction::Compute {
                duration_us: 100 + (byte as u64) * 37,
            },
            1 => VcpuAction::Block {
                duration_us: Some(50 + (byte as u64) * 53),
            },
            2 => VcpuAction::Yield,
            _ => VcpuAction::Compute {
                duration_us: 500 + (byte as u64) * 11,
            },
        }
    }
}

fn arb_pattern() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Run segments on one pCPU never overlap, and total busy time per
    /// pCPU never exceeds elapsed time.
    #[test]
    fn segments_never_overlap_and_time_is_conserved(
        patterns in proptest::collection::vec(arb_pattern(), 1..6),
        pcpus in 1usize..3,
    ) {
        let mut sim = ServerSim::new(pcpus, SchedParams::default());
        sim.set_segment_logging(true);
        for (i, pattern) in patterns.iter().enumerate() {
            sim.create_vm(
                VmConfig::new(&format!("fuzz{i}"), vec![Box::new(FuzzDriver::new(pattern.clone()))])
                    .pin(vec![PcpuId(i % pcpus)]),
            );
        }
        let horizon = 2_000_000u64;
        sim.run_until(SimTime::from_micros(horizon));
        for p in 0..pcpus {
            let mut segs: Vec<(u64, u64)> = sim
                .segments()
                .iter()
                .filter(|s| s.pcpu == PcpuId(p))
                .map(|s| (s.start.as_micros(), s.end.as_micros()))
                .collect();
            segs.sort();
            let mut busy = 0u64;
            for w in segs.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
            for (start, end) in &segs {
                prop_assert!(end > start);
                prop_assert!(*end <= horizon);
                busy += end - start;
            }
            prop_assert!(busy <= horizon, "pcpu{p} busy {busy} > {horizon}");
        }
    }

    /// Per-VM CPU time equals the sum of its recorded segments plus any
    /// in-progress stint, and never exceeds wall clock × assigned pCPUs.
    #[test]
    fn cpu_time_accounting_is_consistent(pattern in arb_pattern()) {
        let mut sim = ServerSim::new(1, SchedParams::default());
        sim.set_segment_logging(true);
        let vm = sim.create_vm(VmConfig::new(
            "fuzz",
            vec![Box::new(FuzzDriver::new(pattern))],
        ));
        sim.run_until(SimTime::from_secs(1));
        let from_segments: u64 = sim
            .vm_segments(vm)
            .map(|s| s.duration_us())
            .sum();
        let reported = sim.vcpu_cpu_time_us(monatt_hypervisor::ids::VcpuId { vm, index: 0 });
        prop_assert!(reported >= from_segments);
        prop_assert!(reported - from_segments <= 30_000, "in-progress stint bounded by a slice");
        prop_assert!(reported <= 1_000_000);
    }

    /// Identical inputs give identical schedules.
    #[test]
    fn fuzzed_schedules_are_deterministic(
        patterns in proptest::collection::vec(arb_pattern(), 1..4),
    ) {
        let run = || {
            let mut sim = ServerSim::new(2, SchedParams::default());
            sim.set_segment_logging(true);
            for (i, pattern) in patterns.iter().enumerate() {
                sim.create_vm(VmConfig::new(
                    &format!("vm{i}"),
                    vec![Box::new(FuzzDriver::new(pattern.clone()))],
                ));
            }
            sim.run_until(SimTime::from_millis(500));
            (
                sim.segments().len(),
                sim.segments().last().copied(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Suspending and resuming a random workload never loses or invents
    /// CPU time.
    #[test]
    fn suspend_resume_conserves_cpu_time(pattern in arb_pattern()) {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let vm = sim.create_vm(VmConfig::new(
            "fuzz",
            vec![Box::new(FuzzDriver::new(pattern))],
        ));
        sim.run_until(SimTime::from_millis(200));
        sim.suspend_vm(vm);
        let at_suspend = sim.vcpu_cpu_time_us(monatt_hypervisor::ids::VcpuId { vm, index: 0 });
        sim.run_until(SimTime::from_millis(600));
        let during = sim.vcpu_cpu_time_us(monatt_hypervisor::ids::VcpuId { vm, index: 0 });
        prop_assert_eq!(at_suspend, during, "suspended VM consumed CPU");
        sim.resume_vm(vm);
        sim.run_until(SimTime::from_millis(900));
        let after = sim.vcpu_cpu_time_us(monatt_hypervisor::ids::VcpuId { vm, index: 0 });
        prop_assert!(after >= during);
    }
}
