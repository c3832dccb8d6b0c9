//! Cloud assembly and the VM launch pipeline: [`CloudBuilder`],
//! [`VmRequest`], workload instantiation and [`Cloud::request_vm`]
//! (Section 7.1.1's Scheduling → Networking → Block-device-mapping →
//! Spawning → Attestation stages).

use super::{Appraisers, Audit, Cloud, Events, Fleet, Observer};
use crate::attestation::AttestationServer;
use crate::controller::{CloudController, ServerInfo, VmLifecycle, VmRecord};
use crate::controlplane::ControlPlaneTopology;
use crate::error::CloudError;
use crate::interpret::ReferenceDb;
use crate::latency::{LatencyParams, RetryPolicy};
use crate::links::{LinkKey, Links};
use crate::outage::{AdmissionControl, Outages};
use crate::pca::IdentityTable;
use crate::server::CloudServerNode;
use crate::session::{SessionOrigin, SessionOutcome};
use crate::types::{
    Flavor, HealthStatus, Image, NodeId, ProtocolStats, SecurityProperty, ServerId, Vid,
};
use crate::verify_ring::Offload;
use monatt_attacks::boost::{boost_attack_drivers, BoostAttackVcpu};
use monatt_attacks::covert::CovertSender;
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::{BoundKey, SigningKey};
use monatt_hypervisor::driver::{BusyLoop, IdleDriver, WorkloadDriver};
use monatt_hypervisor::scheduler::SchedParams;
use monatt_net::sim::SimNetwork;
use monatt_workloads::programs::SpecProgram;
use monatt_workloads::services::CloudService;
use std::collections::BTreeMap;

/// The guest workload to run in a requested VM. Kept as a declarative
/// spec so migration can re-instantiate it on the destination server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// All vCPUs idle.
    Idle,
    /// CPU-bound busy loop on every vCPU.
    Busy,
    /// A cloud benchmark service on vCPU 0.
    Service(CloudService),
    /// A SPEC-like CPU-bound program on vCPU 0.
    Program(SpecProgram),
    /// The covert-channel sender of Case Study III (transmits a fixed
    /// pattern).
    CovertSender,
    /// The IPI-boost availability attacker of Case Study IV.
    BoostAttack,
}

/// Observation handles exported by a workload (for throughput and
/// completion measurements in experiments).
#[derive(Clone, Debug, Default)]
pub struct WorkloadHandles {
    /// Request counter of a [`WorkloadSpec::Service`] workload.
    pub service: Option<monatt_workloads::ServiceStatsHandle>,
    /// Completion record of a [`WorkloadSpec::Program`] workload.
    pub program: Option<monatt_hypervisor::driver::Shared<monatt_workloads::ProgramStats>>,
}

impl WorkloadSpec {
    pub(crate) fn drivers(
        &self,
        vcpus: usize,
        seed: u64,
    ) -> (Vec<Box<dyn WorkloadDriver>>, WorkloadHandles) {
        let mut drivers: Vec<Box<dyn WorkloadDriver>> = Vec::with_capacity(vcpus);
        let mut handles = WorkloadHandles::default();
        // The spec's own drivers first; every remaining vCPU idles.
        match self {
            WorkloadSpec::Idle => {}
            WorkloadSpec::Busy => {
                for _ in 0..vcpus {
                    drivers.push(Box::new(BusyLoop));
                }
            }
            WorkloadSpec::Service(svc) => {
                let driver = svc.driver(seed);
                handles.service = Some(driver.stats());
                drivers.push(Box::new(driver));
            }
            WorkloadSpec::Program(prog) => {
                let driver = prog.driver();
                handles.program = Some(driver.stats());
                drivers.push(Box::new(driver));
            }
            WorkloadSpec::CovertSender => drivers.push(Box::new(CovertSender::new(b"\xA5"))),
            WorkloadSpec::BoostAttack if vcpus >= 2 => drivers.extend(boost_attack_drivers()),
            WorkloadSpec::BoostAttack => drivers.push(Box::new(BoostAttackVcpu::new(0))),
        }
        for _ in drivers.len()..vcpus {
            drivers.push(Box::new(IdleDriver));
        }
        (drivers, handles)
    }
}

/// A VM request, as submitted by the customer.
#[derive(Clone, Debug)]
pub struct VmRequest {
    /// VM size.
    pub flavor: Flavor,
    /// Boot image.
    pub image: Image,
    /// Security properties to provision monitoring for.
    pub properties: Vec<SecurityProperty>,
    /// Guest workload.
    pub workload: WorkloadSpec,
    /// Experiment hook: corrupt the image in storage before launch
    /// (Case Study I attack).
    pub tampered_image: bool,
    /// Experiment hook: force placement on a specific server.
    pub on_server: Option<ServerId>,
    /// Experiment hook: pin all vCPUs to one pCPU (co-residency).
    pub pin_pcpu: Option<usize>,
}

impl VmRequest {
    /// Creates a request with no security properties and an idle guest.
    pub fn new(flavor: Flavor, image: Image) -> Self {
        VmRequest {
            flavor,
            image,
            properties: Vec::new(),
            workload: WorkloadSpec::Idle,
            tampered_image: false,
            on_server: None,
            pin_pcpu: None,
        }
    }

    /// Adds a required security property.
    pub fn require(mut self, property: SecurityProperty) -> Self {
        self.properties.push(property);
        self
    }

    /// Sets the guest workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Corrupts the image in storage (attack experiment).
    pub fn with_tampered_image(mut self) -> Self {
        self.tampered_image = true;
        self
    }

    /// Forces placement on `server` (experiment hook).
    pub fn on_server(mut self, server: ServerId) -> Self {
        self.on_server = Some(server);
        self
    }

    /// Pins all vCPUs to pCPU `p` of the chosen server (experiment hook).
    pub fn pin_pcpu(mut self, p: usize) -> Self {
        self.pin_pcpu = Some(p);
        self
    }
}

/// Stage breakdown of one VM launch (Figure 9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaunchTiming {
    /// Scheduling stage (incl. the CloudMonatt property filter).
    pub scheduling_us: u64,
    /// Networking stage.
    pub networking_us: u64,
    /// Block-device-mapping stage.
    pub block_device_us: u64,
    /// Spawning stage.
    pub spawning_us: u64,
    /// The new Attestation stage.
    pub attestation_us: u64,
}

impl LaunchTiming {
    /// Total launch time.
    pub fn total_us(&self) -> u64 {
        self.scheduling_us
            + self.networking_us
            + self.block_device_us
            + self.spawning_us
            + self.attestation_us
    }
}

/// Builder for a [`Cloud`].
#[derive(Clone, Debug)]
pub struct CloudBuilder {
    servers: usize,
    pcpus_per_server: usize,
    seed: u64,
    retry: RetryPolicy,
    escalation_threshold: u32,
    auto_response: bool,
    corrupted_platforms: Vec<usize>,
    session_deadline_us: Option<u64>,
    admission: Option<(usize, usize)>,
    as_batch: Option<(u64, usize)>,
    evidence_ttl_us: Option<u64>,
    avk_cert_cache: bool,
    reuse_avk: bool,
    control_plane: (u32, u32),
}

impl Default for CloudBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CloudBuilder {
    /// Starts a builder with 3 servers of 4 pCPUs (the paper's testbed
    /// scale).
    pub fn new() -> Self {
        CloudBuilder {
            servers: 3,
            pcpus_per_server: 4,
            seed: 0,
            retry: RetryPolicy::default(),
            escalation_threshold: 3,
            auto_response: false,
            corrupted_platforms: Vec::new(),
            session_deadline_us: None,
            admission: None,
            as_batch: None,
            evidence_ttl_us: None,
            avk_cert_cache: false,
            reuse_avk: false,
            control_plane: (1, 1),
        }
    }

    /// Replicates the control plane: `k` controller instances (VM
    /// subscriptions, records and placement route to shards by a stable
    /// `Vid` hash, with ring failover onto standby instances) and an
    /// `n`-replica Attestation-Server pool with health-gated selection
    /// (each replica carries its own signing identity, privacy CA and
    /// caches). Values are clamped to at least 1; the default `(1, 1)`
    /// topology is dormant — byte-identical to the unreplicated cloud.
    pub fn control_plane(mut self, k: u32, n: u32) -> Self {
        self.control_plane = (k.max(1), n.max(1));
        self
    }

    /// Coalesces message-4 validation at the Attestation Server:
    /// responses arriving within `window_us` of each other (up to `max`
    /// per batch) are verified in one batched Schnorr pass instead of
    /// one-by-one. `window_us == 0` disables coalescing (the default,
    /// byte-identical to the pre-batching path); `max` is clamped to at
    /// least 1, and a batch of one charges exactly the inline latency.
    pub fn as_batch(mut self, window_us: u64, max: usize) -> Self {
        self.as_batch = Some((window_us, max.max(1)));
        self
    }

    /// Gives Attestation-Server verdicts a validity window: a repeat
    /// attestation request for the same `(Vid, property)` within
    /// `ttl_us` is served from cached evidence, skipping the
    /// measurement hops entirely. Invalidated on VM migration,
    /// termination, evacuation, node crash and channel re-key.
    /// Default: disabled.
    pub fn evidence_cache(mut self, ttl_us: u64) -> Self {
        self.evidence_ttl_us = Some(ttl_us);
        self
    }

    /// Turns on the privacy CA's certified-AVK cache: an identical
    /// certification request seen again is answered without re-verifying
    /// the identity binding, and its quote verifies through the key bound
    /// on that second sight (8 KiB per server, per AS replica). Only
    /// effective when servers also reuse their attestation key
    /// ([`Self::reuse_avk`]). Default: off.
    pub fn avk_cert_cache(mut self, on: bool) -> Self {
        self.avk_cert_cache = on;
        self
    }

    /// Makes every cloud server reuse one attestation session key across
    /// attestations (instead of the paper's fresh-AVK-per-session
    /// default), so repeat bindings can hit the pCA's certified-AVK
    /// cache. An explicit anonymity/performance trade-off; default: off.
    pub fn reuse_avk(mut self, on: bool) -> Self {
        self.reuse_avk = on;
        self
    }

    /// Accepted and ignored: the cloud has one event queue. This exists
    /// only because `benchmark/src/workloads.rs` calls `.shards(4)`, and
    /// it goes once ROADMAP item 0 (e) drops that call.
    #[doc(hidden)]
    pub fn shards(self, _k: usize) -> Self {
        self
    }

    /// Sets the number of cloud servers.
    pub fn servers(mut self, n: usize) -> Self {
        self.servers = n;
        self
    }

    /// Sets pCPUs per server.
    pub fn pcpus_per_server(mut self, n: usize) -> Self {
        self.pcpus_per_server = n;
        self
    }

    /// Seeds all randomness (key generation, nonces, workload jitter).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the per-hop retransmission policy
    /// ([`RetryPolicy::disabled`] restores fail-fast hops).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// After how many consecutive missed periodic samples a subscription
    /// escalates to the Response Module (default 3; minimum 1).
    pub fn escalation_threshold(mut self, k: u32) -> Self {
        self.escalation_threshold = k.max(1);
        self
    }

    /// Enables automatic remediation responses on failed attestations.
    pub fn auto_response(mut self, on: bool) -> Self {
        self.auto_response = on;
        self
    }

    /// Boots server `index` with a corrupted hypervisor (Case Study I
    /// platform attack).
    pub fn corrupt_platform(mut self, index: usize) -> Self {
        self.corrupted_platforms.push(index);
        self
    }

    /// Gives every attestation session an end-to-end deadline budget:
    /// a session that cannot reach a verdict within `budget_us` aborts
    /// with [`crate::CloudError::DeadlineExceeded`] — retransmission
    /// stops as soon as the remaining budget cannot cover another
    /// loss-detection timeout. Default: no deadline.
    pub fn session_deadline(mut self, budget_us: u64) -> Self {
        self.session_deadline_us = Some(budget_us);
        self
    }

    /// Bounds sessions in flight at the Attestation Server: past `high`
    /// new sessions are refused with
    /// [`crate::CloudError::Overloaded`] until in-flight drains to
    /// `low` (hysteresis). Default: unbounded.
    pub fn admission_control(mut self, high: usize, low: usize) -> Self {
        self.admission = Some((high, low));
        self
    }

    /// Builds the cloud: provisions keys, boots servers, registers them
    /// with the controller and pCA, and establishes the secure channels.
    ///
    /// Convenience wrapper over [`Self::try_build`] for tests, benches
    /// and examples.
    ///
    /// # Panics
    ///
    /// Panics if a secure-channel handshake between the freshly
    /// provisioned (honest, in-process) parties fails, which indicates a
    /// bug rather than adversarial input.
    pub fn build(self) -> Cloud {
        // Documented convenience panic; fallible callers use try_build.
        self.try_build()
            .expect("cloud assembly between honest parties") // #[allow(monatt::panic_freedom)]
    }

    /// Builds the cloud, surfacing secure-channel establishment failures
    /// as [`CloudError::ChannelEstablishment`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::ChannelEstablishment`] if any of the
    /// customer↔controller, controller↔attestation-server or
    /// attestation-server↔cloud-server handshakes fails.
    pub fn try_build(self) -> Result<Cloud, CloudError> {
        let (k, n) = self.control_plane;
        let mut rng = Drbg::from_seed(self.seed);
        let mut controller = CloudController::new(&mut rng);
        let mut attservers = vec![AttestationServer::new(&mut rng)];
        let mut links = Links::new(n);
        links.add_identity(None, SigningKey::generate(&mut rng));
        let references = ReferenceDb::new();
        let all_properties = [
            SecurityProperty::StartupIntegrity,
            SecurityProperty::RuntimeIntegrity,
            SecurityProperty::CovertChannelFreedom,
            SecurityProperty::CpuAvailability { min_share_pct: 0 },
            SecurityProperty::SchedulerFairness,
        ];
        let mut servers = BTreeMap::new();
        for i in 0..self.servers {
            let id = ServerId(i as u32);
            let corrupted = self.corrupted_platforms.contains(&i);
            let components: Vec<&str> = if corrupted {
                vec!["firmware-v2", "trojaned-xen-4.4", "dom0-linux-3.13"]
            } else {
                references.platform_components().to_vec()
            };
            let mut node = CloudServerNode::boot(
                id,
                self.pcpus_per_server,
                SchedParams::default(),
                Drbg::from_seed(self.seed ^ (0xABCD + i as u64)),
                &components,
                &all_properties,
            );
            node.set_avk_reuse(self.reuse_avk);
            controller.register_server(ServerInfo {
                id,
                free_vcpus: node.free_vcpus(),
                supported_properties: all_properties.iter().map(|p| p.label()).collect(),
            });
            servers.insert(id, node);
        }
        // Establish the SSL-like channels (session keys Kx, Ky, Kz) of
        // the paper's three-party cloud: controller 0, AS replica 0.
        links.add_identity(Some(NodeId::Controller(0)), SigningKey::generate(&mut rng));
        links.add_identity(
            Some(NodeId::AttestationServer(0)),
            SigningKey::generate(&mut rng),
        );
        links.establish(&mut rng, LinkKey::CustCtrl(0))?;
        links.establish(&mut rng, LinkKey::CtrlAs(0, 0))?;
        for id in servers.keys() {
            // In deployment the server end terminates inside the
            // Attestation Client; the channel key is Kz.
            links.add_identity(Some(NodeId::Server(*id)), SigningKey::generate(&mut rng));
            links.establish(&mut rng, LinkKey::AsServer(0, *id))?;
        }
        // --- Replicated control plane (opt-in). Every extra key and
        // channel below is provisioned strictly AFTER the complete
        // default sequence above, so the dormant topology (K=1, N=1)
        // draws a byte-identical RNG stream to the unreplicated cloud.
        for i in 1..k {
            // Its own protocol signing key (customers pin the instance
            // that served them) and its own channel identity.
            controller.add_instance(SigningKey::generate(&mut rng));
            links.add_identity(Some(NodeId::Controller(i)), SigningKey::generate(&mut rng));
        }
        for r in 1..n {
            // A fully independent appraiser — own identity, own privacy
            // CA (no shared-key shortcut), own evidence/AVK caches,
            // warmed independently.
            attservers.push(AttestationServer::new(&mut rng));
            links.add_identity(
                Some(NodeId::AttestationServer(r)),
                SigningKey::generate(&mut rng),
            );
        }
        // Each server's identity key gets one table, however many
        // replicas bind it.
        let identities: Vec<_> = servers
            .values()
            .map(|node| (node.identity_key(), IdentityTable::default()))
            .collect();
        for replica in &mut attservers {
            if self.avk_cert_cache {
                replica.enable_avk_cert_cache();
            }
            for (identity, table) in &identities {
                replica.register_cloud_server_sharing(*identity, table.clone());
            }
        }
        for i in 1..k {
            links.establish(&mut rng, LinkKey::CustCtrl(i))?;
        }
        // The controller↔AS mesh, row-major by controller instance;
        // entry (0, 0) is the default link handshaken above.
        for (i, r) in (0..k).flat_map(|i| (0..n).map(move |r| (i, r))).skip(1) {
            links.establish(&mut rng, LinkKey::CtrlAs(i, r))?;
        }
        for r in 1..n {
            for id in servers.keys() {
                links.establish(&mut rng, LinkKey::AsServer(r, *id))?;
            }
        }
        // Trust anchors, installed once every key exists (binding draws
        // nothing): each verifier holds the keys it will check reports
        // against for the life of the deployment.
        for replica in &attservers {
            controller.trust_attserver(replica.identity_key());
        }
        let customer_anchors = (0..k)
            .filter_map(|i| controller.instance_key(i))
            .map(|key| BoundKey::new(key.verifying_key()))
            .collect();
        Ok(Cloud {
            rng,
            customer_anchors,
            events: Events::new(self.session_deadline_us),
            fleet: Fleet::new(controller, servers, self.seed, self.auto_response),
            appraisers: Appraisers::new(
                attservers,
                self.admission
                    .map(|(high, low)| AdmissionControl::new(high, low)),
                self.as_batch.unwrap_or((0, 1)),
                self.evidence_ttl_us,
            ),
            outage: Outages::default(),
            topology: ControlPlaneTopology::new(k, n),
            network: SimNetwork::default(),
            links,
            latency: LatencyParams::default(),
            retry: self.retry,
            stats: ProtocolStats::default(),
            open_at_reset: 0,
            subscriptions: BTreeMap::new(),
            next_subscription: 1,
            escalation_threshold: self.escalation_threshold.max(1),
            programs: crate::protocol::ProgramRegistry::standard().map_err(CloudError::Compile)?,
            offload: Offload::default(),
            // `monatt-core`'s own test builds audit every cloud after
            // every event.
            observer: cfg!(test)
                .then(|| Box::new(Audit::new("monatt-core test build")) as Box<dyn Observer>),
            #[cfg(test)]
            failures: Vec::new(),
        })
    }
}

impl Cloud {
    /// Requests a VM (the paper's launch pipeline, Section 7.1.1):
    /// Scheduling → Networking → Block-device-mapping → Spawning →
    /// Attestation. If startup attestation finds a compromised platform,
    /// another server is tried; a compromised image rejects the launch.
    ///
    /// The management stages' time moves only the wall clock: every
    /// server, the chosen one included, shows its state as of its last
    /// touch (see [`Cloud::server`]).
    ///
    /// # Errors
    ///
    /// [`CloudError::NoQualifiedServer`] or
    /// [`CloudError::LaunchRejected`].
    pub fn request_vm(&mut self, request: VmRequest) -> Result<Vid, CloudError> {
        let vid = self.fleet.controller.allocate_vid();
        let wants_attestation = !request.properties.is_empty();
        let mut timing = LaunchTiming::default();
        // Crashed servers are never placement candidates; servers that
        // fail platform attestation join the exclusion set per attempt.
        let mut excluded = self.topology.down_servers();
        let servers = self.server_count();
        // Try servers until one passes platform attestation.
        for _attempt in 0..servers.max(1) {
            // Scheduling.
            let server_id = match request.on_server {
                Some(forced) if !excluded.contains(&forced) => forced,
                Some(forced) if self.node_is_down(NodeId::Server(forced)) => {
                    return Err(CloudError::NodeDown {
                        node: NodeId::Server(forced),
                    })
                }
                Some(_) => {
                    return Err(CloudError::LaunchRejected {
                        reason: "forced server failed platform attestation".into(),
                    })
                }
                None => self.fleet.controller.select_server_excluding(
                    request.flavor,
                    &request.properties,
                    &excluded,
                )?,
            };
            timing.scheduling_us += self.latency.scheduling_us(servers, wants_attestation);
            // Networking, block device mapping, spawning.
            timing.networking_us += self.latency.networking_us();
            timing.block_device_us += self.latency.block_device_us(request.image);
            timing.spawning_us += self.latency.spawning_us(request.image, request.flavor);
            self.fleet.controller.record_deployment(VmRecord {
                vid,
                flavor: request.flavor,
                image: request.image,
                properties: request.properties.clone(),
                server: server_id,
                state: VmLifecycle::Active,
                workload: request.workload,
                tampered: request.tampered_image,
                pin_pcpu: request.pin_pcpu,
                handles: WorkloadHandles::default(),
            });
            let placed = self.fleet.place(vid, server_id, self.events.now());
            // A forced server that does not exist leaves no row behind.
            placed.inspect_err(|_| self.fleet.controller.drop_rejected_vm(vid))?;
            // Attestation stage: a controller-internal startup-integrity
            // session (messages 2-5) against the just-placed VM, pumped
            // to completion.
            let verdict = if wants_attestation {
                self.launch_attestation(vid).map(|outcome| {
                    timing.attestation_us += outcome.elapsed_us;
                    outcome.status
                })
            } else {
                Ok(HealthStatus::Healthy)
            };
            let rejection = match verdict {
                Ok(HealthStatus::Healthy) => {
                    // The attestation stage already advanced time inside
                    // the session; charge the management stages now (the
                    // clock only — servers catch up when next touched).
                    self.events
                        .advance(timing.total_us().saturating_sub(timing.attestation_us));
                    self.fleet.last_launch = Some(timing);
                    return Ok(vid);
                }
                Ok(HealthStatus::Compromised { reason }) => Ok(reason),
                // Delivery failures surface as Err(Unreachable) from
                // the session, so a report never carries this status
                // here; reject defensively — the launch policy requires
                // a verdict.
                Ok(HealthStatus::Unreachable { .. }) => {
                    Ok("no attestation verdict: server unreachable".into())
                }
                Err(e) => Err(e),
            };
            // Anything but a healthy verdict takes the VM off the server
            // again and drops its row.
            self.fleet.unplace(vid, self.events.now());
            self.fleet.controller.drop_rejected_vm(vid);
            match rejection? {
                // Try another server for this VM.
                reason if reason.contains("platform") => excluded.insert(server_id),
                reason => {
                    self.fleet.last_launch = Some(timing);
                    return Err(CloudError::LaunchRejected { reason });
                }
            };
        }
        self.fleet.last_launch = Some(timing);
        Err(CloudError::NoQualifiedServer {
            requested: request.properties,
        })
    }

    /// The launch pipeline's Attestation stage, as an ordinary session.
    fn launch_attestation(&mut self, vid: Vid) -> SessionOutcome {
        let (property, program) = (
            SecurityProperty::StartupIntegrity,
            self.programs.fig3_internal,
        );
        let sid = self.begin_session(vid, None, property, program, SessionOrigin::Api)?;
        self.pump_session(sid)
    }
}
