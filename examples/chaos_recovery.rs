//! Node-level chaos: a cloud server crashes mid-deployment, its VMs
//! are evacuated to live servers, sessions touching the dead node fail
//! fast, and recovery re-keys every secure channel before attestation
//! resumes. An overload gate sheds a subscription burst, and a session
//! deadline bounds how long a customer waits for any verdict.
//!
//! ```sh
//! cargo run --example chaos_recovery
//! ```

use cloudmonatt::core::{
    CloudBuilder, Flavor, Image, NodeId, OutageModel, SecurityProperty, VmRequest,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(77)
        .admission_control(2, 1)
        .build();
    let vid = cloud.request_vm(
        VmRequest::new(Flavor::Small, Image::Cirros).require(SecurityProperty::RuntimeIntegrity),
    )?;
    let home = cloud.server_of(vid).expect("placed");
    println!("VM {vid} on {home}");

    // 1. Crash the VM's home server: the Response Module re-runs
    //    Policy Validation and evacuates the VM to a live server.
    cloud.crash_node(NodeId::Server(home));
    let new_home = cloud.server_of(vid).expect("evacuated");
    let outages = cloud.outage_stats();
    println!(
        "\ncrash {home}: evacuated to {new_home} (evacuations={}, crashes={})",
        outages.evacuations, outages.crashes
    );
    let report = cloud.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)?;
    println!(
        "attestation from {new_home}: healthy={} in {:.3}s",
        report.healthy(),
        report.elapsed_us as f64 / 1e6
    );

    // 2. Crash the Attestation Server itself: there is no one to
    //    verify evidence, so sessions fail fast — no retry ladder is
    //    burned against a dead node.
    cloud.crash_node(NodeId::AttestationServer(0));
    let err = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap_err();
    println!("\nattestation server down: {err}");

    // 3. Recovery re-keys every channel the node terminates; stale
    //    pre-crash session keys never resume.
    cloud.recover_node(NodeId::AttestationServer(0));
    cloud.recover_node(NodeId::Server(home));
    let outages = cloud.outage_stats();
    println!(
        "recovered: rehandshakes={} (fresh keys on every touched channel)",
        outages.rehandshakes
    );
    let report = cloud.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)?;
    println!("attestation works again: healthy={}", report.healthy());

    // 4. A scripted outage inside the event loop: the server hosting
    //    the VM dies at t+2s and returns at t+6s while a periodic
    //    monitor samples every second.
    let t0 = cloud.wall_clock_us();
    let target = cloud.server_of(vid).expect("placed");
    cloud.set_outage_model(
        OutageModel::new(7)
            .crash_at(t0 + 2_000_000, NodeId::Server(target))
            .recover_at(t0 + 6_000_000, NodeId::Server(target)),
    );
    let sub = cloud.runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 1_000_000)?;
    cloud.run(10_000_000);
    let health = cloud.subscription_health(sub)?;
    println!(
        "\nscripted outage: delivered={} missed={} — VM now on {}",
        health.delivered,
        health.missed,
        cloud.server_of(vid).expect("still managed"),
    );
    cloud.stop_attest_periodic(sub)?;

    // 5. Overload: three simultaneous subscriptions against a
    //    high-water mark of two — the burst's tail is shed, hysteresis
    //    re-admits once the gate drains.
    let mut subs = Vec::new();
    for _ in 0..3 {
        subs.push(cloud.runtime_attest_periodic(
            vid,
            SecurityProperty::RuntimeIntegrity,
            1_000_000,
        )?);
    }
    cloud.reset_protocol_stats();
    cloud.run(4_000_000);
    let stats = cloud.protocol_stats();
    println!(
        "\noverload: started={} completed={} shed={} (gate high=2, low=1)",
        stats.sessions_started, stats.sessions_completed, stats.sessions_shed
    );
    for sub in subs {
        cloud.stop_attest_periodic(sub)?;
    }

    // 6. A 5 ms session deadline against a clean 40 ms protocol round:
    //    the customer gets a bounded-time answer, not a hung call.
    cloud.set_session_deadline(Some(5_000));
    let err = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap_err();
    println!("\ntight deadline: {err}");
    cloud.set_session_deadline(None);

    let outages = cloud.outage_stats();
    println!(
        "\nfinal ledger: crashes={} recoveries={} evacuations={} rehandshakes={} \
         node-down-failures={}",
        outages.crashes,
        outages.recoveries,
        outages.evacuations,
        outages.rehandshakes,
        outages.node_down_failures
    );
    Ok(())
}
