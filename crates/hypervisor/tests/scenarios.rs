//! Scenario-level integration tests of the hypervisor simulator: mixes of
//! workloads whose aggregate behaviour is predictable from credit
//! scheduler semantics.

use monatt_hypervisor::driver::{BusyLoop, IdleDriver, ScriptedDriver, VcpuAction};
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::{PcpuId, VcpuId};
use monatt_hypervisor::profile::DescheduleReason;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmConfig;
use monatt_workloads::services::CloudService;

#[test]
fn three_way_contention_shares_thirds() {
    let mut sim = ServerSim::new(1, SchedParams::default());
    let vms: Vec<_> = (0..3)
        .map(|i| {
            sim.create_vm(
                VmConfig::new(&format!("vm{i}"), vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs(9));
    for vm in vms {
        let share = sim.profile().relative_cpu_usage(vm, sim.now());
        assert!((share - 1.0 / 3.0).abs() < 0.05, "share = {share}");
    }
}

#[test]
fn io_service_fits_between_cpu_hogs() {
    // An I/O-bound mail service needs ~3% CPU; with boost it gets its
    // slice even against two CPU hogs.
    let mut sim = ServerSim::new(1, SchedParams::default());
    let svc = CloudService::Mail.driver(5);
    let stats = svc.stats();
    sim.create_vm(VmConfig::new("mail", vec![Box::new(svc)]).pin(vec![PcpuId(0)]));
    for i in 0..2 {
        sim.create_vm(
            VmConfig::new(&format!("hog{i}"), vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]),
        );
    }
    sim.run_until(SimTime::from_secs(10));
    let solo = {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let svc = CloudService::Mail.driver(5);
        let stats = svc.stats();
        sim.create_vm(VmConfig::new("mail", vec![Box::new(svc)]));
        sim.run_until(SimTime::from_secs(10));
        stats.get().requests
    };
    let contended = stats.get().requests;
    assert!(
        contended as f64 > solo as f64 * 0.65,
        "mail throughput under contention {contended} vs solo {solo}"
    );
}

#[test]
fn slice_expiry_reason_is_recorded() {
    let mut sim = ServerSim::new(1, SchedParams::default());
    sim.profile_mut().set_logging(true);
    let a = sim.create_vm(VmConfig::new("a", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
    sim.create_vm(VmConfig::new("b", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
    sim.run_until(SimTime::from_secs(1));
    let reasons: Vec<DescheduleReason> = sim.profile().vm_segments(a).map(|s| s.reason).collect();
    assert!(!reasons.is_empty());
    assert!(
        reasons.iter().all(|r| matches!(
            r,
            DescheduleReason::SliceExpired | DescheduleReason::Preempted
        )),
        "{reasons:?}"
    );
}

#[test]
fn multi_vcpu_vm_uses_multiple_pcpus() {
    let mut sim = ServerSim::new(2, SchedParams::default());
    let vm = sim.create_vm(VmConfig::new(
        "wide",
        vec![Box::new(BusyLoop), Box::new(BusyLoop)],
    ));
    sim.run_until(SimTime::from_secs(1));
    let t0 = sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 });
    let t1 = sim.vcpu_cpu_time_us(VcpuId { vm, index: 1 });
    assert!(t0 > 900_000 && t1 > 900_000, "t0={t0} t1={t1}");
    // The VM's aggregate exceeds wall clock — two pCPUs.
    assert!(t0 + t1 > 1_800_000);
}

#[test]
fn halted_vm_releases_the_pcpu() {
    let mut sim = ServerSim::new(1, SchedParams::default());
    sim.create_vm(VmConfig::new(
        "short",
        vec![Box::new(ScriptedDriver::new([VcpuAction::Compute {
            duration_us: 10_000,
        }]))],
    ));
    let beneficiary = sim.create_vm(VmConfig::new("long", vec![Box::new(BusyLoop)]));
    sim.run_until(SimTime::from_secs(1));
    let share = sim.profile().relative_cpu_usage(beneficiary, sim.now());
    assert!(share > 0.95, "beneficiary should inherit the CPU: {share}");
}

#[test]
fn paused_vm_timer_does_not_fire_across_suspension() {
    // A VM sleeping on a timer is suspended past the timer's expiry; on
    // resume it must not act as if the wake fired during the pause.
    use monatt_hypervisor::driver::{shared, Shared, VcpuView, WorkloadDriver};
    struct TimedWorker {
        wakes: Shared<Vec<u64>>,
        step: usize,
    }
    impl WorkloadDriver for TimedWorker {
        fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
            self.step += 1;
            match self.step {
                1 => VcpuAction::Block {
                    duration_us: Some(50_000),
                },
                2 => {
                    self.wakes.borrow_mut().push(view.now.as_micros());
                    VcpuAction::Compute { duration_us: 1_000 }
                }
                _ => VcpuAction::Halt,
            }
        }
    }
    let mut sim = ServerSim::new(1, SchedParams::default());
    let wakes: Shared<Vec<u64>> = shared(Vec::new());
    let vm = sim.create_vm(VmConfig::new(
        "timed",
        vec![Box::new(TimedWorker {
            wakes: wakes.clone(),
            step: 0,
        })],
    ));
    sim.run_until(SimTime::from_millis(10));
    sim.suspend_vm(vm);
    sim.run_until(SimTime::from_millis(200)); // timer would fire at 50ms
    assert!(wakes.borrow().is_empty(), "woke while suspended");
    sim.resume_vm(vm);
    sim.run_until(SimTime::from_millis(300));
    // After resume, the conservative wake runs the worker.
    assert_eq!(wakes.borrow().len(), 1);
    assert!(wakes.borrow()[0] >= 200_000);
}

#[test]
fn ipi_to_missing_vcpu_is_harmless() {
    let mut sim = ServerSim::new(1, SchedParams::default());
    let vm = sim.create_vm(VmConfig::new(
        "lonely",
        vec![Box::new(ScriptedDriver::new([
            VcpuAction::SendIpi { target_index: 7 },
            VcpuAction::Compute { duration_us: 1_000 },
        ]))],
    ));
    sim.run_until(SimTime::from_millis(100));
    assert_eq!(sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 }), 1_000);
}

#[test]
fn idle_vcpus_cost_nothing() {
    let mut sim = ServerSim::new(1, SchedParams::default());
    let idle = sim.create_vm(VmConfig::new(
        "idle",
        vec![Box::new(IdleDriver), Box::new(IdleDriver)],
    ));
    let busy = sim.create_vm(VmConfig::new("busy", vec![Box::new(BusyLoop)]));
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.profile().vm_cpu_time_us(idle), 0);
    assert!(sim.profile().relative_cpu_usage(busy, sim.now()) > 0.95);
}
