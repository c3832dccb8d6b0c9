//! Cloud service workload models: the six benchmark services the paper
//! runs as attacker workloads in Figure 6 and as the monitored VM's
//! workload in Figure 10 — Database, File, Web, App, Stream, Mail.
//!
//! Each service alternates a CPU burst with an I/O wait. Database/Web/App
//! are CPU-bound (high duty cycle), File/Stream/Mail are I/O-bound — the
//! property that determines how much they degrade a co-resident victim.

use monatt_hypervisor::driver::{VcpuAction, VcpuView, WorkloadDriver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Throughput record exported by a [`ServiceWorkload`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Completed request cycles (one compute burst + one I/O wait).
    pub requests: u64,
}

/// The read side of a [`ServiceWorkload`]'s [`ServiceStats`], valid
/// while the driver runs — on whichever thread its server is caught up.
///
/// A service counts on every request, so unlike the lock behind
/// `monatt_hypervisor::driver::Shared` it publishes with one plain atomic
/// store: a lock per request cost a mixed `busy_window` server about a
/// tenth of its pop time. The driver is the only writer, so the count is
/// exact; a reader sees it as of the server's last catch-up.
#[derive(Clone, Debug, Default)]
pub struct ServiceStatsHandle(Arc<AtomicU64>);

impl ServiceStatsHandle {
    /// The record as published so far.
    pub fn get(&self) -> ServiceStats {
        ServiceStats {
            requests: self.0.load(Ordering::Relaxed),
        }
    }
}

/// The six cloud benchmark services of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CloudService {
    /// Database server (CPU-bound).
    Database,
    /// File server (I/O-bound).
    File,
    /// Web server (CPU-bound).
    Web,
    /// Application server (CPU-bound).
    App,
    /// Streaming server (I/O-bound).
    Stream,
    /// Mail server (I/O-bound).
    Mail,
}

impl CloudService {
    /// All services in the paper's figure order.
    pub const ALL: [CloudService; 6] = [
        CloudService::Database,
        CloudService::File,
        CloudService::Web,
        CloudService::App,
        CloudService::Stream,
        CloudService::Mail,
    ];

    /// Display name used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            CloudService::Database => "database",
            CloudService::File => "file",
            CloudService::Web => "web",
            CloudService::App => "app",
            CloudService::Stream => "stream",
            CloudService::Mail => "mail",
        }
    }

    /// `(compute_burst_us, io_wait_us)` profile of the service.
    pub fn profile(&self) -> (u64, u64) {
        match self {
            CloudService::Database => (8_000, 2_000),
            CloudService::File => (600, 12_000),
            CloudService::Web => (6_000, 2_000),
            CloudService::App => (9_000, 3_000),
            CloudService::Stream => (1_000, 10_000),
            CloudService::Mail => (400, 14_000),
        }
    }

    /// True for the CPU-bound services (Database, Web, App).
    pub fn is_cpu_bound(&self) -> bool {
        let (c, io) = self.profile();
        c > io
    }

    /// Instantiates the service as a workload driver with jitter seeded by
    /// `seed`.
    pub fn driver(&self, seed: u64) -> ServiceWorkload {
        let (compute_us, io_us) = self.profile();
        ServiceWorkload::new(compute_us, io_us, seed)
    }
}

impl std::fmt::Display for CloudService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A request-loop workload alternating CPU bursts and I/O waits, with
/// ±20 % uniform jitter on both.
#[derive(Debug)]
pub struct ServiceWorkload {
    compute_us: u64,
    io_us: u64,
    rng: StdRng,
    computing: bool,
    requests: u64,
    published: ServiceStatsHandle,
}

impl ServiceWorkload {
    /// Creates a workload with the given burst/wait profile.
    ///
    /// # Panics
    ///
    /// Panics if either duration is zero.
    pub fn new(compute_us: u64, io_us: u64, seed: u64) -> Self {
        assert!(compute_us > 0 && io_us > 0, "durations must be positive");
        ServiceWorkload {
            compute_us,
            io_us,
            rng: StdRng::seed_from_u64(seed),
            computing: false,
            requests: 0,
            published: ServiceStatsHandle::default(),
        }
    }

    /// A handle to the throughput record.
    pub fn stats(&self) -> ServiceStatsHandle {
        self.published.clone()
    }

    fn jitter(&mut self, base: u64) -> u64 {
        // ±20% uniform jitter, never zero.
        let lo = (base * 8) / 10;
        let hi = (base * 12) / 10;
        self.rng.gen_range(lo.max(1)..=hi.max(1))
    }
}

impl WorkloadDriver for ServiceWorkload {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        self.computing = !self.computing;
        if self.computing {
            let d = self.jitter(self.compute_us);
            VcpuAction::Compute { duration_us: d }
        } else {
            self.requests += 1;
            self.published.0.store(self.requests, Ordering::Relaxed);
            let d = self.jitter(self.io_us);
            VcpuAction::Block {
                duration_us: Some(d),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_hypervisor::engine::ServerSim;
    use monatt_hypervisor::ids::PcpuId;
    use monatt_hypervisor::scheduler::SchedParams;
    use monatt_hypervisor::time::SimTime;
    use monatt_hypervisor::vm::VmConfig;

    #[test]
    fn catalog_is_consistent() {
        assert_eq!(CloudService::ALL.len(), 6);
        assert!(CloudService::Database.is_cpu_bound());
        assert!(CloudService::Web.is_cpu_bound());
        assert!(CloudService::App.is_cpu_bound());
        assert!(!CloudService::File.is_cpu_bound());
        assert!(!CloudService::Stream.is_cpu_bound());
        assert!(!CloudService::Mail.is_cpu_bound());
        assert_eq!(CloudService::Mail.to_string(), "mail");
    }

    #[test]
    fn service_completes_requests() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let svc = CloudService::Web.driver(7);
        let stats = svc.stats();
        sim.create_vm(VmConfig::new("web", vec![Box::new(svc)]));
        sim.run_until(SimTime::from_secs(5));
        let requests = stats.get().requests;
        // ~8ms per cycle over 5s -> roughly 625 requests.
        assert!(requests > 400, "requests = {requests}");
    }

    #[test]
    fn cpu_bound_service_uses_most_of_the_cpu() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let svc = CloudService::Database.driver(1);
        let vm = sim.create_vm(VmConfig::new("db", vec![Box::new(svc)]).pin(vec![PcpuId(0)]));
        sim.run_until(SimTime::from_secs(5));
        let usage = sim.relative_cpu_usage(vm);
        assert!(usage > 0.6, "database usage = {usage}");
    }

    #[test]
    fn io_bound_service_uses_little_cpu() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let svc = CloudService::Mail.driver(1);
        let vm = sim.create_vm(VmConfig::new("mail", vec![Box::new(svc)]).pin(vec![PcpuId(0)]));
        sim.run_until(SimTime::from_secs(5));
        let usage = sim.relative_cpu_usage(vm);
        assert!(usage < 0.15, "mail usage = {usage}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        use monatt_hypervisor::ids::VcpuId;
        let run = |seed: u64| {
            let mut sim = ServerSim::new(1, SchedParams::default());
            let svc = CloudService::App.driver(seed);
            let vm = sim.create_vm(VmConfig::new("app", vec![Box::new(svc)]));
            sim.run_until(SimTime::from_secs(2));
            sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 })
        };
        assert_eq!(run(5), run(5));
        // Different seeds give different schedules; exact CPU time is a
        // fine-grained enough fingerprint to distinguish them.
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "durations must be positive")]
    fn zero_profile_rejected() {
        let _ = ServiceWorkload::new(0, 1, 1);
    }
}
