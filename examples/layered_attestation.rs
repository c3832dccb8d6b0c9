//! Layered and multi-property attestation through the protocol IR.
//!
//! The Figure-3 exchange is compiled from a [`Protocol`] term rather
//! than hard-coded, so attestation *shapes* are data: this example runs
//! the layered program (appraise the hosting platform first, gate the
//! VM's introspection quote on that verdict) and the fan-out program
//! (one session measuring several properties through parallel
//! measurement branches), printing the per-hop network trace of each.
//!
//! ```sh
//! cargo run --example layered_attestation
//! ```

use cloudmonatt::core::{
    Cloud, CloudBuilder, Flavor, Image, SecurityProperty, VmRequest, WorkloadSpec,
};

/// Prints every record the simulated network carried since `from`,
/// one line per hop: who → whom, payload size, link latency.
fn print_trace(cloud: &mut Cloud, from: usize) {
    for (i, r) in cloud.network_mut().log()[from..].iter().enumerate() {
        println!(
            "  hop {:>2}: {:>10} -> {:<10} {:>4} B  {:>6} us  {}",
            i + 1,
            r.from,
            r.to,
            r.sent.len(),
            r.latency_us,
            if r.delivered.is_some() {
                "delivered"
            } else {
                "dropped"
            },
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Layered attestation on a healthy platform -------------------
    let mut cloud = CloudBuilder::new().servers(2).seed(5).build();
    cloud.set_network_logging(true);
    let vid = cloud.request_vm(
        VmRequest::new(Flavor::Small, Image::Cirros)
            .require(SecurityProperty::RuntimeIntegrity)
            .workload(WorkloadSpec::Busy),
    )?;
    println!("VM {vid} on {}", cloud.server_of(vid).expect("placed"));

    let mark = cloud.network_mut().log().len();
    let report = cloud.layered_attest(vid, SecurityProperty::RuntimeIntegrity)?;
    println!(
        "\nlayered attestation (platform first, then the VM): healthy={} in {:.3}s",
        report.healthy(),
        report.elapsed_us as f64 / 1e6
    );
    println!("per-hop trace — note the delegated messages-2–5 platform");
    println!("appraisal running before the VM's own msg3/msg4 measurement:");
    print_trace(&mut cloud, mark);

    // --- Layered attestation on a compromised platform ---------------
    // One server, its boot chain trojaned: the delegated platform
    // appraisal comes back unhealthy, the gate skips the VM measurement
    // entirely (no msg3/msg4 to the server in the trace), and the
    // negative verdict is still certified back through msg5/msg6.
    let mut bad = CloudBuilder::new()
        .servers(1)
        .seed(6)
        .corrupt_platform(0)
        .build();
    bad.set_network_logging(true);
    let victim = bad.request_vm(VmRequest::new(Flavor::Small, Image::Cirros))?;
    let mark = bad.network_mut().log().len();
    let report = bad.layered_attest(victim, SecurityProperty::RuntimeIntegrity)?;
    println!(
        "\ncompromised platform: healthy={} status={:?}",
        report.healthy(),
        report.status
    );
    println!("per-hop trace — the gate certifies the platform verdict");
    println!("without ever measuring the VM:");
    print_trace(&mut bad, mark);

    // --- Multi-property fan-out --------------------------------------
    let properties = [
        SecurityProperty::StartupIntegrity,
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::CovertChannelFreedom,
    ];
    let mark = cloud.network_mut().log().len();
    let report = cloud.multi_attest(vid, &properties)?;
    println!(
        "\nfan-out over {} properties in one session: healthy={} in {:.3}s",
        properties.len(),
        report.healthy(),
        report.elapsed_us as f64 / 1e6
    );
    println!("per-hop trace — one msg1/msg2 prologue, then a parallel");
    println!("msg3/msg4 measurement branch per property, one msg5/msg6 report:");
    print_trace(&mut cloud, mark);

    Ok(())
}
