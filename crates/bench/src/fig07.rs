//! **Figure 7** — Measurements of the CPU availability vulnerability:
//! relative CPU usage of attacker and victim under each attacker
//! workload, as the VMM Profile Tool reports it. The paper's shape:
//! I/O-bound attackers leave the victim ~100 % of its share; CPU-bound
//! attackers split ~50/50; the CPU_avail attack takes nearly everything.

use crate::fig06::AttackerKind;
use monatt_hypervisor::driver::BusyLoop;
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::PcpuId;
use monatt_hypervisor::scheduler::SchedParams;

/// One bar pair of Figure 7.
#[derive(Clone, Debug)]
pub struct UsageRow {
    /// The co-resident workload.
    pub attacker: AttackerKind,
    /// Attacker VM's share of the pCPU over the window (0 for baseline).
    pub attacker_usage: f64,
    /// Victim VM's share of the pCPU over the window.
    pub victim_usage: f64,
}

/// Measures attacker/victim CPU usage over a `seconds` window for each
/// attacker workload. The victim is a CPU-bound program (it would consume
/// 100 % alone).
pub fn run(seconds: u64) -> Vec<UsageRow> {
    AttackerKind::all()
        .into_iter()
        .map(|attacker| run_row(attacker, seconds))
        .collect()
}

/// Runs a single row of the figure.
pub fn run_row(attacker: AttackerKind, seconds: u64) -> UsageRow {
    let mut sim = ServerSim::new(1, SchedParams::default());
    let victim = sim.create_vm(
        monatt_hypervisor::vm::VmConfig::new("victim", vec![Box::new(BusyLoop)])
            .pin(vec![PcpuId(0)]),
    );
    let attacker_vm = match attacker {
        AttackerKind::Baseline => None,
        AttackerKind::Service(svc) => Some(
            sim.create_vm(
                monatt_hypervisor::vm::VmConfig::new("attacker", vec![Box::new(svc.driver(42))])
                    .pin(vec![PcpuId(0)]),
            ),
        ),
        AttackerKind::CpuAvail => {
            let drivers = monatt_attacks::boost::boost_attack_drivers();
            let pins = vec![PcpuId(0); drivers.len()];
            Some(sim.create_vm(monatt_hypervisor::vm::VmConfig::new("attacker", drivers).pin(pins)))
        }
    };
    // Warm up 1 s, then measure over the window.
    sim.run_for(1_000_000);
    sim.reset_window();
    sim.run_for(seconds * 1_000_000);
    let victim_usage = sim.relative_cpu_usage(victim);
    let attacker_usage = attacker_vm
        .map(|vm| sim.relative_cpu_usage(vm))
        .unwrap_or(0.0);
    UsageRow {
        attacker,
        attacker_usage,
        victim_usage,
    }
}

/// Prints the paper-style table.
pub fn print(rows: &[UsageRow]) {
    println!("Figure 7: Measurements of CPU Availability Vulnerability");
    println!("attacker\tattacker_cpu\tvictim_cpu");
    for row in rows {
        println!(
            "{}\t{}\t{}",
            row.attacker.label(),
            crate::fmt_pct(row.attacker_usage),
            crate::fmt_pct(row.victim_usage)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_workloads::services::CloudService;

    #[test]
    fn baseline_victim_gets_everything() {
        let row = run_row(AttackerKind::Baseline, 5);
        assert!(row.victim_usage > 0.95, "{row:?}");
    }

    #[test]
    fn io_bound_attacker_leaves_victim_most() {
        let row = run_row(AttackerKind::Service(CloudService::Mail), 5);
        assert!(row.victim_usage > 0.8, "{row:?}");
        assert!(row.attacker_usage < 0.2, "{row:?}");
    }

    #[test]
    fn cpu_bound_attacker_splits_fairly() {
        let row = run_row(AttackerKind::Service(CloudService::Database), 5);
        assert!((row.victim_usage - 0.5).abs() < 0.15, "{row:?}");
    }

    #[test]
    fn attack_starves_victim() {
        let row = run_row(AttackerKind::CpuAvail, 5);
        assert!(row.victim_usage < 0.10, "{row:?}");
        assert!(row.attacker_usage > 0.80, "{row:?}");
    }
}
