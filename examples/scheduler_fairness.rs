//! Extensibility demo: CloudMonatt's framework supports "an arbitrary
//! number of security properties and monitoring mechanisms" — here, a
//! CC-Hunter-inspired *scheduler fairness* property added on top of the
//! paper's four case studies. It flags the attacker VM of the boost
//! attack directly by the density of its boosted wake-ups (from the PMU
//! counters, under a signed quote).
//!
//! ```sh
//! cargo run --example scheduler_fairness
//! ```

use cloudmonatt::core::{
    CloudBuilder, Flavor, Image, ResponseAction, SecurityProperty, ServerId, VmRequest,
    WorkloadSpec,
};
use cloudmonatt::workloads::CloudService;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cloud = CloudBuilder::new().servers(2).seed(99).build();

    // A boost attacker and its victim on pCPU 0 of server 0.
    let attacker = cloud.request_vm(
        VmRequest::new(Flavor::Medium, Image::Cirros)
            .require(SecurityProperty::SchedulerFairness)
            .workload(WorkloadSpec::BoostAttack)
            .on_server(ServerId(0))
            .pin_pcpu(0),
    )?;
    let victim = cloud.request_vm(
        VmRequest::new(Flavor::Small, Image::Ubuntu)
            .workload(WorkloadSpec::Busy)
            .on_server(ServerId(0))
            .pin_pcpu(0),
    )?;
    cloud.advance(1_000_000);

    // Attest the attacker itself for scheduler fairness.
    let report = cloud.runtime_attest_current(attacker, SecurityProperty::SchedulerFairness)?;
    println!("attacker {attacker}: {:?}", report.status);
    assert!(!report.healthy());

    // The victim is not the abuser.
    let report = cloud.runtime_attest_current(victim, SecurityProperty::SchedulerFairness)?;
    println!("victim {victim}:  {:?}", report.status);

    // Benign I/O-heavy services stay below the threshold.
    for svc in [CloudService::Mail, CloudService::Database] {
        let vm = cloud.request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .workload(WorkloadSpec::Service(svc))
                .on_server(ServerId(1)),
        )?;
        let report = cloud.runtime_attest_current(vm, SecurityProperty::SchedulerFairness)?;
        println!("{svc} service: {:?}", report.status);
    }

    // Terminate the abuser (the policy for this property).
    let timing = cloud.respond(attacker, ResponseAction::Termination)?;
    println!(
        "\nterminated the abusive VM in {:.2}s; victim recovers its CPU",
        timing.response_us as f64 / 1e6
    );
    Ok(())
}
