//! **Chaos sweep** — node-level failure injection under load. Each cell
//! of the MTBF × loss × fleet grid runs a fleet of periodic
//! attestations for 30 virtual seconds while servers crash and recover
//! on a seeded renewal process, messages drop, the admission gate
//! sheds bursts and every session carries an end-to-end deadline. The
//! harness is an executable liveness proof, not a latency figure: each
//! cell audits the cloud's own ledgers (`Cloud::audit`: sessions,
//! outages, no stranded VM, resident rows, report issue times) after every
//! event it dispatches, through the attached `Audit` observer, then
//! asserts that nothing is left in flight and that the drop and VM
//! counts reconcile. A wedged queue, a leaked session or a VM stranded
//! for even one event fails the sweep loudly, naming the cell, the event
//! and the broken invariant.

use monatt_core::{
    Audit, Cloud, CloudBuilder, Flavor, Image, OutageModel, SecurityProperty, Vid, VmLifecycle,
    VmRequest,
};
use monatt_net::sim::FaultModel;

/// Control-plane churn grid: fleet sizes for the replicated
/// control-plane cells (the acceptance bar is ≥ 1k subscriptions).
pub const CP_FLEETS: [usize; 1] = [1_024];
/// (K controller instances, N AS replicas) configurations swept.
pub const CP_CONFIGS: [(u32, u32); 3] = [(2, 2), (3, 2), (4, 3)];
/// Control-plane MTBF axis (µs); MTTR is MTBF/4.
pub const CP_MTBFS: [u64; 2] = [4_000_000, 10_000_000];

/// Reduced control-plane grid for the CI smoke run.
pub const CP_SMOKE_FLEETS: [usize; 1] = [64];
/// Smoke-run (K, N) axis.
pub const CP_SMOKE_CONFIGS: [(u32, u32); 1] = [(3, 2)];
/// Smoke-run control-plane MTBF axis.
pub const CP_SMOKE_MTBFS: [u64; 1] = [4_000_000];

/// The full grid: every combination of these axes.
pub const FLEETS: [usize; 2] = [4, 16];
/// Mean time between failures per server (µs).
pub const MTBFS: [u64; 2] = [4_000_000, 10_000_000];
/// Message drop probabilities.
pub const LOSSES: [f64; 2] = [0.0, 0.10];

/// Reduced grid for the CI smoke run.
pub const SMOKE_FLEETS: [usize; 1] = [4];
/// Smoke-run MTBF axis.
pub const SMOKE_MTBFS: [u64; 1] = [4_000_000];
/// Smoke-run loss axis.
pub const SMOKE_LOSSES: [f64; 1] = [0.10];

/// Virtual time each cell runs for.
const HORIZON_US: u64 = 30_000_000;
/// The shared subscription period.
const PERIOD_US: u64 = 1_000_000;
/// Per-session deadline budget — generous against the clean path, so
/// it only fires on sessions wedged behind loss and crashes.
const DEADLINE_US: u64 = 500_000;

/// One verified cell of the chaos sweep.
#[derive(Clone, Copy, Debug)]
pub struct ChaosRow {
    /// Concurrent periodic subscriptions.
    pub fleet: usize,
    /// Per-server mean time between failures (µs).
    pub mtbf_us: u64,
    /// Message drop probability.
    pub loss: f64,
    /// Server crashes the renewal process injected.
    pub crashes: u64,
    /// Recoveries that fired within the horizon.
    pub recoveries: u64,
    /// VMs migrated off crashed servers.
    pub evacuations: u64,
    /// VMs terminated because no live server had capacity.
    pub evacuation_failures: u64,
    /// Secure channels re-keyed on recovery.
    pub rehandshakes: u64,
    /// Sessions started (admitted) over the horizon.
    pub sessions_started: u64,
    /// Sessions that finished with a verdict.
    pub sessions_completed: u64,
    /// Sessions that failed (crash fail-fast, deadline, unreachable).
    pub sessions_failed: u64,
    /// Sessions refused by the admission gate before starting.
    pub sessions_shed: u64,
    /// Sessions aborted on their deadline budget.
    pub deadlines_exceeded: u64,
    /// Sessions failed fast on a crashed node.
    pub node_down_failures: u64,
    /// Retransmissions the lossy/chaotic run needed.
    pub retries: u64,
    /// Records the fault model dropped.
    pub dropped: u64,
    /// Records the network black-holed. Always 0: a hop that needs a
    /// crashed node fails before it transmits. Kept for the committed
    /// JSON schema.
    pub blackholed: u64,
    /// VMs still running at the end (on live servers — verified).
    pub vms_alive: usize,
    /// VMs terminated (responses or failed evacuations).
    pub vms_terminated: usize,
    /// Composite-program attestations (layered + fan-out) that reached
    /// a verdict under the chaos. Struct-only: the committed JSON rows
    /// keep their schema.
    pub composite_ok: u64,
    /// Composite-program attestations that failed with a typed error
    /// (node down, deadline, shed, unreachable).
    pub composite_err: u64,
}

/// A cell's cloud: `fleet` VMs on `fleet / 4 + 3` servers, each
/// subscribed to runtime integrity every period, every session under the
/// deadline. The admission gate sheds at three quarters of a
/// simultaneous round: the burst at each shared period sheds its tail,
/// then hysteresis re-admits. The cloud is audited after every event it
/// dispatches, a failure naming `cell`.
fn subscribed_fleet(fleet: usize, cloud: CloudBuilder, cell: &str) -> (Cloud, Vec<Vid>) {
    let mut cloud = cloud
        .servers(fleet.div_ceil(4) + 3)
        .pcpus_per_server(16)
        .session_deadline(DEADLINE_US)
        .admission_control((fleet * 3 / 4).max(2), (fleet * 3 / 8).max(1))
        .build();
    cloud.set_observer(Some(Box::new(Audit::new(cell))));
    let mut vids = Vec::with_capacity(fleet);
    for _ in 0..fleet {
        let vid = cloud
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::RuntimeIntegrity),
            )
            .expect("launch on a healthy fleet");
        vids.push(vid);
    }
    for &vid in &vids {
        cloud
            .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, PERIOD_US)
            .expect("subscribe");
    }
    (cloud, vids)
}

/// Runs and verifies one cell of the grid.
fn measure(fleet: usize, mtbf_us: u64, loss: f64) -> ChaosRow {
    let seed = 0xCA05 ^ (fleet as u64) ^ mtbf_us ^ ((loss * 100.0) as u64).rotate_left(17);
    let cell = format!("cell fleet={fleet} mtbf={mtbf_us} loss={loss}");
    let (mut cloud, vids) = subscribed_fleet(fleet, CloudBuilder::new().seed(seed), &cell);
    if loss > 0.0 {
        cloud
            .network_mut()
            .set_fault_model(FaultModel::new(seed ^ 0xD1CE).drop_prob(loss));
    }
    cloud.set_outage_model(OutageModel::new(seed ^ 0x0A6E).mtbf(mtbf_us, mtbf_us / 4));
    cloud.reset_protocol_stats();
    // The composite protocol programs ride the same chaos: every few
    // virtual seconds one VM gets a layered attestation (delegated
    // platform appraisal + gate) and a two-property fan-out alongside
    // the periodic fleet. Their child sessions enter the same ledger,
    // so the reconciliation invariants below also prove fork/join never
    // leaks or double-counts a session under crashes, loss, deadlines
    // and shedding. Typed failures are expected outcomes here.
    const COMPOSITE_EVERY_US: u64 = 5_000_000;
    let mut composite_ok = 0u64;
    let mut composite_err = 0u64;
    for chunk in 0..HORIZON_US / COMPOSITE_EVERY_US {
        cloud.run(COMPOSITE_EVERY_US);
        let vid = vids[chunk as usize % vids.len()];
        if matches!(cloud.vm_state(vid), Some(VmLifecycle::Terminated) | None) {
            continue;
        }
        match cloud.layered_attest(vid, SecurityProperty::RuntimeIntegrity) {
            Ok(_) => composite_ok += 1,
            Err(_) => composite_err += 1,
        }
        match cloud.multi_attest(
            vid,
            &[
                SecurityProperty::RuntimeIntegrity,
                SecurityProperty::StartupIntegrity,
            ],
        ) {
            Ok(_) => composite_ok += 1,
            Err(_) => composite_err += 1,
        }
    }

    let stats = cloud.protocol_stats();
    let outages = cloud.outage_stats();
    let dropped = cloud
        .network_mut()
        .fault_stats()
        .map(|f| f.dropped)
        .unwrap_or(0);
    let blackholed = cloud.network_mut().blackholed();

    // Liveness: nothing wedged — every started session terminated
    // before the queue drained.
    assert_eq!(
        cloud.sessions_in_flight(),
        0,
        "stuck sessions in {cell}: {stats:?}"
    );
    // The cloud's own ledgers: sessions, outages, no VM on a crashed
    // server, shard ownership, resident rows.
    if let Err(broken) = cloud.audit() {
        panic!("{cell}: {broken}");
    }
    // Every sender-side drop is accounted for by a fault injection (or
    // a network black hole, which the cloud never uses).
    assert_eq!(
        stats.drops_seen,
        dropped + blackholed,
        "drop ledger out of balance: {stats:?} dropped={dropped} blackholed={blackholed}"
    );
    // Auto-response is off in the sweep, so the only terminations are
    // failed evacuations.
    let vms_terminated = vids
        .iter()
        .filter(|&&v| matches!(cloud.vm_state(v), Some(VmLifecycle::Terminated) | None))
        .count();
    let vms_alive = vids.len() - vms_terminated;
    assert_eq!(
        vms_terminated as u64, outages.evacuation_failures,
        "vm ledger out of balance: {outages:?}"
    );

    ChaosRow {
        fleet,
        mtbf_us,
        loss,
        crashes: outages.crashes,
        recoveries: outages.recoveries,
        evacuations: outages.evacuations,
        evacuation_failures: outages.evacuation_failures,
        rehandshakes: outages.rehandshakes,
        sessions_started: stats.sessions_started,
        sessions_completed: stats.sessions_completed,
        sessions_failed: stats.sessions_failed,
        sessions_shed: stats.sessions_shed,
        deadlines_exceeded: stats.deadlines_exceeded,
        node_down_failures: outages.node_down_failures,
        retries: stats.retries,
        dropped,
        blackholed,
        vms_alive,
        vms_terminated,
        composite_ok,
        composite_err,
    }
}

/// One verified cell of the control-plane churn sweep: a replicated
/// control plane (K controller instances, N AS replicas) under its own
/// MTBF renewal process while the server fleet stays healthy, so every
/// failure in the cell is a controller or AS-replica failure.
#[derive(Clone, Copy, Debug)]
pub struct ControlPlaneRow {
    /// Concurrent periodic subscriptions.
    pub fleet: usize,
    /// Controller instances (shard count).
    pub k: u32,
    /// AS replicas in the pool.
    pub n: u32,
    /// Control-plane mean time between failures (µs).
    pub mtbf_us: u64,
    /// Controller/AS-replica crashes injected.
    pub crashes: u64,
    /// Recoveries that fired within the horizon.
    pub recoveries: u64,
    /// Controller crashes that moved ≥ 1 owned shard to a standby.
    pub failovers: u64,
    /// Shards adopted by a standby after a controller crash.
    pub shards_adopted: u64,
    /// Shards taken back after a controller recovery.
    pub shards_reclaimed: u64,
    /// Sessions admitted against a non-preferred AS replica.
    pub as_reroutes: u64,
    /// Sessions admitted against a standby controller instance.
    pub failover_sessions: u64,
    /// Channel re-keys deferred to first use at recovery time.
    pub deferred_rekeys: u64,
    /// Re-handshakes actually performed (first post-recovery use).
    pub rehandshakes: u64,
    /// Sessions started over the horizon.
    pub sessions_started: u64,
    /// Sessions that finished with a verdict.
    pub sessions_completed: u64,
    /// Sessions that failed (fail-fast on a crashed hop, deadline).
    pub sessions_failed: u64,
    /// Sessions failed fast on a crashed node.
    pub node_down_failures: u64,
    /// Retransmissions over the control-plane retry ladders.
    pub retries: u64,
}

/// Runs and verifies one cell of the control-plane churn grid.
fn measure_control_plane(fleet: usize, k: u32, n: u32, mtbf_us: u64) -> ControlPlaneRow {
    let seed = 0xC1A0 ^ (fleet as u64) ^ mtbf_us ^ (u64::from(k) << 32) ^ (u64::from(n) << 40);
    let cell = format!("cp cell fleet={fleet} k={k} n={n} mtbf={mtbf_us}");
    let builder = CloudBuilder::new().seed(seed).control_plane(k, n);
    let (mut cloud, vids) = subscribed_fleet(fleet, builder, &cell);
    // Only the control plane churns: crashes land mid-burst on
    // controllers and AS replicas, never on servers, so the cell
    // isolates failover + rerouting from evacuation.
    cloud
        .set_outage_model(OutageModel::new(seed ^ 0x0A6E).control_plane_mtbf(mtbf_us, mtbf_us / 4));
    cloud.reset_protocol_stats();
    cloud.run(HORIZON_US);

    let stats = cloud.protocol_stats();
    let outages = cloud.outage_stats();
    let cp = cloud.control_plane_stats();

    // Liveness: nothing wedged.
    assert_eq!(
        cloud.sessions_in_flight(),
        0,
        "stuck sessions in {cell}: {stats:?}"
    );
    // The cloud's own ledgers, shard ownership among them: each shard
    // is owned by the first live instance on its ring.
    if let Err(broken) = cloud.audit() {
        panic!("{cell}: {broken}");
    }
    // No server ever crashed, so no VM moved or died — every failure in
    // this cell is a control-plane failure.
    assert_eq!(outages.evacuations, 0, "{outages:?}");
    assert!(
        vids.iter()
            .all(|&v| !matches!(cloud.vm_state(v), Some(VmLifecycle::Terminated) | None)),
        "control-plane churn terminated a VM"
    );

    ControlPlaneRow {
        fleet,
        k,
        n,
        mtbf_us,
        crashes: outages.crashes,
        recoveries: outages.recoveries,
        failovers: cp.failovers,
        shards_adopted: cp.shards_adopted,
        shards_reclaimed: cp.shards_reclaimed,
        as_reroutes: cp.as_reroutes,
        failover_sessions: cp.failover_sessions,
        deferred_rekeys: outages.deferred_rekeys,
        rehandshakes: outages.rehandshakes,
        sessions_started: stats.sessions_started,
        sessions_completed: stats.sessions_completed,
        sessions_failed: stats.sessions_failed,
        node_down_failures: outages.node_down_failures,
        retries: stats.retries,
    }
}

/// Sweeps the control-plane churn grid.
pub fn run_control_plane(
    fleets: &[usize],
    configs: &[(u32, u32)],
    mtbfs: &[u64],
) -> Vec<ControlPlaneRow> {
    let mut rows = Vec::new();
    for &fleet in fleets {
        for &(k, n) in configs {
            for &mtbf in mtbfs {
                rows.push(measure_control_plane(fleet, k, n, mtbf));
            }
        }
    }
    rows
}

/// Prints the control-plane sweep as a table.
pub fn print_control_plane(rows: &[ControlPlaneRow]) {
    println!("Control-plane churn: sharded controllers + AS replica pool under MTBF churn");
    println!("(liveness + single-live-owner invariants verified per cell)");
    println!(
        "fleet\tk\tn\tmtbf\tcrashes\trecov\tfailover\tadopted\treclaim\treroute\tfo_sess\tdeferred\trekey\tstarted\tdone\tfailed\tnodedown\tretries"
    );
    for row in rows {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.fleet,
            row.k,
            row.n,
            crate::fmt_secs(row.mtbf_us),
            row.crashes,
            row.recoveries,
            row.failovers,
            row.shards_adopted,
            row.shards_reclaimed,
            row.as_reroutes,
            row.failover_sessions,
            row.deferred_rekeys,
            row.rehandshakes,
            row.sessions_started,
            row.sessions_completed,
            row.sessions_failed,
            row.node_down_failures,
            row.retries,
        );
    }
}

/// Renders both sweeps as the committed `BENCH_chaos.json` document.
pub fn to_json_with_control_plane(rows: &[ChaosRow], cp_rows: &[ControlPlaneRow]) -> String {
    let mut out = to_json(rows);
    // Splice the control-plane grid in after the first array's closing
    // bracket (the only `]` in the document so far).
    let close = out.rfind(']').expect("chaos_sweep array close");
    out.truncate(close + 1);
    out.push_str(",\n  \"control_plane_churn\": [\n");
    for (i, row) in cp_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fleet\": {}, \"k\": {}, \"n\": {}, \"mtbf_us\": {}, \"crashes\": {}, \
             \"recoveries\": {}, \"failovers\": {}, \"shards_adopted\": {}, \
             \"shards_reclaimed\": {}, \"as_reroutes\": {}, \"failover_sessions\": {}, \
             \"deferred_rekeys\": {}, \"rehandshakes\": {}, \"sessions_started\": {}, \
             \"sessions_completed\": {}, \"sessions_failed\": {}, \"node_down_failures\": {}, \
             \"retries\": {}}}{}\n",
            row.fleet,
            row.k,
            row.n,
            row.mtbf_us,
            row.crashes,
            row.recoveries,
            row.failovers,
            row.shards_adopted,
            row.shards_reclaimed,
            row.as_reroutes,
            row.failover_sessions,
            row.deferred_rekeys,
            row.rehandshakes,
            row.sessions_started,
            row.sessions_completed,
            row.sessions_failed,
            row.node_down_failures,
            row.retries,
            if i + 1 == cp_rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Sweeps the full cross product of the given axes.
pub fn run(fleets: &[usize], mtbfs: &[u64], losses: &[f64]) -> Vec<ChaosRow> {
    let mut rows = Vec::new();
    for &fleet in fleets {
        for &mtbf in mtbfs {
            for &loss in losses {
                rows.push(measure(fleet, mtbf, loss));
            }
        }
    }
    rows
}

/// Prints the sweep as a table.
pub fn print(rows: &[ChaosRow]) {
    println!("Chaos sweep: periodic attestation fleets under crash/recovery churn");
    println!("(all liveness invariants verified per cell)");
    println!(
        "fleet\tmtbf\tloss\tcrashes\trecov\tevac\trekey\tstarted\tdone\tfailed\tshed\tdeadline\tnodedown\tretries\talive\tdead\tcomposite"
    );
    for row in rows {
        println!(
            "{}\t{}\t{:.0}%\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.fleet,
            crate::fmt_secs(row.mtbf_us),
            row.loss * 100.0,
            row.crashes,
            row.recoveries,
            row.evacuations,
            row.rehandshakes,
            row.sessions_started,
            row.sessions_completed,
            row.sessions_failed,
            row.sessions_shed,
            row.deadlines_exceeded,
            row.node_down_failures,
            row.retries,
            row.vms_alive,
            row.vms_terminated,
            row.composite_ok + row.composite_err,
        );
    }
}

/// Renders the sweep as the committed `BENCH_chaos.json` document.
pub fn to_json(rows: &[ChaosRow]) -> String {
    let mut out = String::from("{\n  \"chaos_sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fleet\": {}, \"mtbf_us\": {}, \"loss\": {:.2}, \"crashes\": {}, \
             \"recoveries\": {}, \"evacuations\": {}, \"evacuation_failures\": {}, \
             \"rehandshakes\": {}, \"sessions_started\": {}, \"sessions_completed\": {}, \
             \"sessions_failed\": {}, \"sessions_shed\": {}, \"deadlines_exceeded\": {}, \
             \"node_down_failures\": {}, \"retries\": {}, \"dropped\": {}, \
             \"blackholed\": {}, \"vms_alive\": {}, \"vms_terminated\": {}}}{}\n",
            row.fleet,
            row.mtbf_us,
            row.loss,
            row.crashes,
            row.recoveries,
            row.evacuations,
            row.evacuation_failures,
            row.rehandshakes,
            row.sessions_started,
            row.sessions_completed,
            row.sessions_failed,
            row.sessions_shed,
            row.deadlines_exceeded,
            row.node_down_failures,
            row.retries,
            row.dropped,
            row.blackholed,
            row.vms_alive,
            row.vms_terminated,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cell_injects_chaos_and_verifies_invariants() {
        // `measure` asserts every liveness invariant internally; this
        // test additionally checks the chaos actually happened.
        let rows = run(&SMOKE_FLEETS, &SMOKE_MTBFS, &SMOKE_LOSSES);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.crashes > 0, "{row:?}");
        assert!(row.rehandshakes > 0, "{row:?}");
        assert!(row.sessions_completed > 0, "{row:?}");
        assert!(row.retries > 0, "{row:?}");
        // The composite programs (layered + fan-out) rode the same
        // chaos and every call resolved to a verdict or a typed error.
        assert!(row.composite_ok + row.composite_err >= 6, "{row:?}");
        assert!(row.composite_ok > 0, "{row:?}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run(&SMOKE_FLEETS, &SMOKE_MTBFS, &SMOKE_LOSSES);
        let b = run(&SMOKE_FLEETS, &SMOKE_MTBFS, &SMOKE_LOSSES);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn control_plane_smoke_cell_churns_and_reconciles() {
        // `measure_control_plane` asserts the liveness and
        // single-live-owner invariants internally; this additionally
        // checks the churn actually exercised failover and rerouting.
        let rows = run_control_plane(&CP_SMOKE_FLEETS, &CP_SMOKE_CONFIGS, &CP_SMOKE_MTBFS);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.crashes > 0, "{row:?}");
        assert!(row.sessions_completed > 0, "{row:?}");
        // With K=3/N=2 under a 4 s MTBF, both failure classes fire.
        assert!(row.failovers > 0, "{row:?}");
        assert!(row.as_reroutes > 0, "{row:?}");
        assert!(row.deferred_rekeys > 0, "{row:?}");
    }

    #[test]
    fn control_plane_sweep_is_deterministic() {
        let a = run_control_plane(&CP_SMOKE_FLEETS, &CP_SMOKE_CONFIGS, &CP_SMOKE_MTBFS);
        let b = run_control_plane(&CP_SMOKE_FLEETS, &CP_SMOKE_CONFIGS, &CP_SMOKE_MTBFS);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
