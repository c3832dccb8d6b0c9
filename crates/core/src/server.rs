//! One CloudMonatt-capable cloud server: the hypervisor simulator, the
//! hardware Trust Module, the Monitor Module (monitor kernel + tools) and
//! the Attestation Client (Figure 2).

use crate::measurements::{Measurement, MeasurementSpec, TaskInfo};
use crate::types::{Image, SecurityProperty, ServerId, Vid};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::VerifyingKey;
use monatt_crypto::sha256::sha256;
use monatt_hypervisor::driver::WorkloadDriver;
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::guest::GuestOs;
use monatt_hypervisor::ids::VmId;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::vm::VmConfig;
use monatt_hypervisor::vmi::VmiTool;
use monatt_tpm::module::{CertificationRequest, TrustModule};
use monatt_tpm::quote::Quote;
use monatt_tpm::registers::RegisterLayout;
use std::collections::{BTreeMap, BTreeSet};

/// Histogram geometry of the covert-channel Trust Evidence Registers:
/// 30 bins of 1 ms (Section 4.4.2).
pub const INTERVAL_BINS: usize = 30;
/// Width of each interval bin in microseconds.
pub const INTERVAL_BIN_WIDTH_US: u64 = 1_000;

/// The signed response of the Attestation Client: measurements plus the
/// quote `Q3 = H(Vid || rM || M || N3)` signed with the session key ASKs
/// (Figure 3, message 4 content).
#[derive(Clone, Debug)]
pub struct AttestationResponse {
    /// The VM the measurements concern.
    pub vid: Vid,
    /// Echo of the measurement spec (`rM`).
    pub spec: MeasurementSpec,
    /// The measurements (`M`).
    pub measurement: Measurement,
    /// Echo of the nonce (`N3`).
    pub nonce: [u8; 32],
    /// The signed quote.
    pub quote: Quote,
    /// The session attestation key and its certification request for the
    /// privacy CA.
    pub cert_request: CertificationRequest,
}

impl From<AttestationResponse> for crate::messages::MeasureResponse {
    fn from(r: AttestationResponse) -> Self {
        crate::messages::MeasureResponse {
            vid: r.vid,
            spec: r.spec,
            measurement: r.measurement,
            nonce3: r.nonce,
            quote: r.quote,
            cert_request: r.cert_request,
        }
    }
}

/// Per-VM record on the server.
#[derive(Debug)]
struct VmSlot {
    local: VmId,
    image: Image,
    /// Image hash measured at launch time (before any runtime tampering).
    measured_image_hash: [u8; 32],
}

/// A cloud server node.
pub struct CloudServerNode {
    id: ServerId,
    trust: TrustModule,
    sim: ServerSim,
    vms: BTreeMap<Vid, VmSlot>,
    capacity_vcpus: usize,
    used_vcpus: usize,
    supported: BTreeSet<&'static str>,
    window_start_cpu: BTreeMap<Vid, u64>,
    window_start_pmu: BTreeMap<Vid, monatt_hypervisor::pmu::VmCounters>,
    quote_scratch: monatt_net::wire::EncodeScratch,
    /// Opt-in: reuse one attestation session key across attestations so
    /// the pCA's certified-AVK cache can short-circuit repeat bindings.
    /// Default off — the paper's anonymity argument wants a fresh AVK
    /// per session, so reuse is an explicit deployment trade-off.
    reuse_avk: bool,
    /// The cached attestation session when `reuse_avk` is on. Dropped on
    /// channel re-key or crash recovery (see [`Self::reset_avk_session`]).
    avk_session: Option<monatt_tpm::module::AttestationSession>,
    /// Instant until which the measurement window is owned by some
    /// session (the profiling window is server-global, so windowed
    /// sessions serialize per server; see `Cloud::step_window_open`).
    pub(crate) window_free_at: u64,
}

impl std::fmt::Debug for CloudServerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServerNode")
            .field("id", &self.id)
            .field("vms", &self.vms.len())
            .field("capacity_vcpus", &self.capacity_vcpus)
            .finish_non_exhaustive()
    }
}

impl CloudServerNode {
    /// Boots a server: provisions the Trust Module, measures the platform
    /// components into PCR 0, and starts the hypervisor simulator.
    ///
    /// `platform_components` is what is *actually* loaded — pass a
    /// corrupted list to model a compromised platform.
    pub fn boot(
        id: ServerId,
        pcpus: usize,
        sched: SchedParams,
        rng: Drbg,
        platform_components: &[&str],
        supported: &[SecurityProperty],
    ) -> Self {
        let mut trust = TrustModule::provision(rng);
        for component in platform_components {
            trust
                .pcrs_mut()
                .extend(0, sha256(component.as_bytes()), component);
        }
        CloudServerNode {
            id,
            trust,
            sim: ServerSim::new(pcpus, sched),
            vms: BTreeMap::new(),
            capacity_vcpus: pcpus * 8,
            used_vcpus: 0,
            supported: supported.iter().map(|p| p.label()).collect(),
            window_start_cpu: BTreeMap::new(),
            window_start_pmu: BTreeMap::new(),
            quote_scratch: monatt_net::wire::EncodeScratch::new(),
            reuse_avk: false,
            avk_session: None,
            window_free_at: 0,
        }
    }

    /// Turns attestation-key reuse on or off. Turning it off (or on)
    /// drops any cached session, so the next attestation starts fresh.
    pub fn set_avk_reuse(&mut self, on: bool) {
        self.reuse_avk = on;
        self.avk_session = None;
    }

    /// Drops the cached attestation session (channel re-key, crash
    /// recovery): a binding certified under the old trust context must
    /// not be presented again.
    pub fn reset_avk_session(&mut self) {
        self.avk_session = None;
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The server's public identity key (VKs), registered with the pCA.
    pub fn identity_key(&self) -> VerifyingKey {
        self.trust.identity_key()
    }

    /// Whether the server's Monitor Module supports monitoring `property`.
    pub fn supports(&self, property: SecurityProperty) -> bool {
        self.supported.contains(property.label())
    }

    /// Free vCPU slots.
    pub fn free_vcpus(&self) -> usize {
        self.capacity_vcpus - self.used_vcpus
    }

    /// Read access to the hypervisor simulator (monitor tools, tests).
    pub fn sim(&self) -> &ServerSim {
        &self.sim
    }

    /// Mutable access to the hypervisor simulator — used by attack
    /// injection in experiments.
    pub fn sim_mut(&mut self) -> &mut ServerSim {
        &mut self.sim
    }

    /// Whether this server hosts `vid`.
    pub fn hosts(&self, vid: Vid) -> bool {
        self.vms.contains_key(&vid)
    }

    /// Number of VMs on the server.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Launches a VM: boots the guest from `image_bytes` (possibly
    /// tampered), measures the image hash, and starts the vCPUs.
    ///
    /// # Panics
    ///
    /// Panics if the vid is already present or drivers are empty.
    pub fn launch_vm(
        &mut self,
        vid: Vid,
        image: Image,
        image_bytes: Vec<u8>,
        drivers: Vec<Box<dyn WorkloadDriver>>,
        weight: u32,
    ) -> VmId {
        self.launch_vm_pinned(vid, image, image_bytes, drivers, weight, None)
    }

    /// Like [`Self::launch_vm`] but optionally pinning every vCPU to one
    /// pCPU (used by co-residency experiments).
    ///
    /// # Panics
    ///
    /// Panics if the vid is already present, drivers are empty, or the
    /// pin is out of range.
    pub fn launch_vm_pinned(
        &mut self,
        vid: Vid,
        image: Image,
        image_bytes: Vec<u8>,
        drivers: Vec<Box<dyn WorkloadDriver>>,
        weight: u32,
        pin_pcpu: Option<usize>,
    ) -> VmId {
        assert!(!self.vms.contains_key(&vid), "vid already on this server");
        let vcpus = drivers.len();
        let guest = GuestOs::boot(image_bytes, image.initial_tasks());
        let measured_image_hash = guest.image_hash();
        let mut config = VmConfig::new(&format!("{vid}"), drivers)
            .weight(weight)
            .guest(guest);
        if let Some(p) = pin_pcpu {
            config = config.pin(vec![monatt_hypervisor::ids::PcpuId(p); vcpus]);
        }
        let local = self.sim.create_vm(config);
        self.used_vcpus += vcpus;
        self.vms.insert(
            vid,
            VmSlot {
                local,
                image,
                measured_image_hash,
            },
        );
        local
    }

    /// Removes a VM (terminate or migrate-away).
    pub fn remove_vm(&mut self, vid: Vid) {
        if let Some(slot) = self.vms.remove(&vid) {
            let vcpus = self.sim.vm(slot.local).map(|v| v.vcpu_count).unwrap_or(0);
            self.sim.terminate_vm(slot.local);
            self.used_vcpus = self.used_vcpus.saturating_sub(vcpus);
        }
    }

    /// Suspends a hosted VM.
    pub fn suspend_vm(&mut self, vid: Vid) {
        if let Some(slot) = self.vms.get(&vid) {
            self.sim.suspend_vm(slot.local);
        }
    }

    /// Resumes a hosted VM.
    pub fn resume_vm(&mut self, vid: Vid) {
        if let Some(slot) = self.vms.get(&vid) {
            self.sim.resume_vm(slot.local);
        }
    }

    /// The local simulator id of a hosted VM.
    pub fn local_vm(&self, vid: Vid) -> Option<VmId> {
        self.vms.get(&vid).map(|s| s.local)
    }

    /// The image a hosted VM was launched from.
    pub fn vm_image(&self, vid: Vid) -> Option<Image> {
        self.vms.get(&vid).map(|s| s.image)
    }

    /// Runs the hypervisor for `duration_us` of simulated time.
    pub fn advance(&mut self, duration_us: u64) {
        self.sim.run_for(duration_us);
    }

    /// Catches the hypervisor up to the cloud wall clock (the lazy-clock
    /// pull model: the cloud moves only its wall clock per event, and a
    /// node pays its elapsed time when next touched). Quiescent servers
    /// fast-forward in O(pending events) rather than O(elapsed ticks),
    /// which is what makes 100k-server fleets tractable.
    pub fn catch_up(&mut self, wall_us: u64) {
        self.sim
            .run_until_lazy(monatt_hypervisor::time::SimTime::from_micros(wall_us));
    }

    /// Opens a measurement window for a runtime spec: resets the VMM
    /// profile tool and programs the Trust Evidence Registers. The caller
    /// then advances the simulator by the spec's window before calling
    /// [`Self::collect`].
    pub fn begin_window(&mut self, spec: MeasurementSpec, vid: Vid) {
        if spec.window_us() == 0 {
            return;
        }
        let now = self.sim.now();
        self.sim.profile_mut().reset_window(now);
        match spec {
            MeasurementSpec::UsageIntervals { .. } => {
                self.trust.program_registers(RegisterLayout::Histogram {
                    bins: INTERVAL_BINS,
                    bin_width_us: INTERVAL_BIN_WIDTH_US,
                });
            }
            MeasurementSpec::CpuTime { .. } => {
                self.trust
                    .program_registers(RegisterLayout::Accumulators { count: 1 });
                if let Some(local) = self.vms.get(&vid).map(|s| s.local) {
                    let start = self.vm_total_cpu_us(local);
                    self.window_start_cpu.insert(vid, start);
                }
            }
            MeasurementSpec::SchedulerEvents { .. } => {
                self.trust
                    .program_registers(RegisterLayout::Accumulators { count: 3 });
                if let Some(local) = self.vms.get(&vid).map(|s| s.local) {
                    self.window_start_pmu
                        .insert(vid, self.sim.pmu().counters(local));
                }
            }
            _ => {}
        }
    }

    fn vm_total_cpu_us(&self, local: VmId) -> u64 {
        let count = self.sim.vm(local).map(|v| v.vcpu_count).unwrap_or(0);
        (0..count)
            .map(|index| {
                self.sim
                    .vcpu_cpu_time_us(monatt_hypervisor::ids::VcpuId { vm: local, index })
            })
            .sum()
    }

    /// Collects the measurements for `spec` — the Monitor Kernel writing
    /// into the Trust Evidence Registers and reading them back.
    ///
    /// Returns `None` if the VM is not hosted here.
    pub fn collect(&mut self, spec: MeasurementSpec, vid: Vid) -> Option<Measurement> {
        let slot = self.vms.get(&vid)?;
        let local = slot.local;
        match spec {
            MeasurementSpec::BootIntegrity => Some(Measurement::BootIntegrity {
                platform_pcr: self.trust.pcrs().read(0),
                image_hash: slot.measured_image_hash,
            }),
            MeasurementSpec::TaskListProbe => {
                let vmi = VmiTool::new(&self.sim);
                let to_info = |tasks: Vec<monatt_hypervisor::guest::GuestTask>| {
                    tasks
                        .into_iter()
                        .map(|t| TaskInfo {
                            pid: t.pid,
                            name: t.name,
                        })
                        .collect::<Vec<_>>()
                };
                Some(Measurement::TaskLists {
                    kernel: to_info(vmi.kernel_task_list(local).ok()?),
                    guest_visible: to_info(vmi.guest_visible_task_list(local).ok()?),
                })
            }
            MeasurementSpec::UsageIntervals { window_us } => {
                // Feed the profile tool's segments into the registers, as
                // the Monitor Kernel does, then read them out.
                let hist = self.sim.profile().interval_histogram(
                    local,
                    INTERVAL_BINS,
                    INTERVAL_BIN_WIDTH_US,
                );
                let regs = self.trust.registers_mut()?;
                let token = regs.unlock();
                regs.clear(&token);
                for (bin, count) in hist.iter().enumerate() {
                    for _ in 0..*count {
                        regs.record_interval(&token, (bin as u64) * INTERVAL_BIN_WIDTH_US + 1);
                    }
                }
                Some(Measurement::UsageIntervals {
                    bins: regs.snapshot(),
                    bin_width_us: INTERVAL_BIN_WIDTH_US,
                    window_us,
                })
            }
            MeasurementSpec::CpuTime { window_us } => {
                let start = self.window_start_cpu.get(&vid).copied().unwrap_or(0);
                let total = self.vm_total_cpu_us(local);
                let virtual_time_us = total.saturating_sub(start);
                let first_vcpu = monatt_hypervisor::ids::VcpuId {
                    vm: local,
                    index: 0,
                };
                let contending = self
                    .sim
                    .vcpu_pcpu(first_vcpu)
                    .map(|p| self.sim.schedulable_vcpus_on(p))
                    .unwrap_or(1)
                    .max(1);
                // Write CPU_measure into a Trust Evidence Register.
                if let Some(regs) = self.trust.registers_mut() {
                    let token = regs.unlock();
                    regs.clear(&token);
                    regs.accumulate(&token, 0, virtual_time_us);
                }
                Some(Measurement::CpuTime {
                    virtual_time_us,
                    window_us,
                    contending_vcpus: contending as u32,
                })
            }
            MeasurementSpec::SchedulerEvents { window_us } => {
                let baseline = self.window_start_pmu.get(&vid).copied().unwrap_or_default();
                let now = self.sim.pmu().counters(local);
                let boosts = now.boosts.saturating_sub(baseline.boosts);
                let ipis_sent = now.ipis_sent.saturating_sub(baseline.ipis_sent);
                let wakeups = now.wakeups.saturating_sub(baseline.wakeups);
                // Write the event counts into Trust Evidence Registers.
                if let Some(regs) = self.trust.registers_mut() {
                    let token = regs.unlock();
                    regs.clear(&token);
                    regs.accumulate(&token, 0, boosts);
                    regs.accumulate(&token, 1, ipis_sent);
                    regs.accumulate(&token, 2, wakeups);
                }
                Some(Measurement::SchedulerEvents {
                    boosts,
                    ipis_sent,
                    wakeups,
                    window_us,
                })
            }
        }
    }

    /// The Attestation Client flow (steps 1-8 of Figure 2): collect
    /// measurements, generate a session attestation key, quote and sign.
    ///
    /// Returns `None` if the VM is not hosted here.
    pub fn attest(
        &mut self,
        vid: Vid,
        spec: MeasurementSpec,
        nonce: [u8; 32],
    ) -> Option<AttestationResponse> {
        let measurement = self.collect(spec, vid)?;
        // Default: a fresh session key pair per attestation (anonymity).
        // Under `reuse_avk` the previous session is kept so repeat
        // attestations present the identical certification request and
        // hit the pCA's certified-AVK cache.
        let fresh;
        let session = if self.reuse_avk {
            if self.avk_session.is_none() {
                self.avk_session = Some(self.trust.begin_attestation());
            }
            self.avk_session.as_ref()?
        } else {
            fresh = self.trust.begin_attestation();
            &fresh
        };
        let vid_bytes = vid.0.to_be_bytes();
        let (spec_bytes, meas_bytes) = self.quote_scratch.encode_pair(&spec, &measurement);
        let quote = session.quote(&[&vid_bytes, spec_bytes, meas_bytes, &nonce]);
        Some(AttestationResponse {
            vid,
            spec,
            measurement,
            nonce,
            quote,
            cert_request: session.certification_request().clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::ReferenceDb;
    use monatt_hypervisor::driver::{BusyLoop, IdleDriver};

    fn node() -> CloudServerNode {
        let refs = ReferenceDb::new();
        CloudServerNode::boot(
            ServerId(0),
            2,
            SchedParams::default(),
            Drbg::from_seed(1),
            refs.platform_components(),
            &[
                SecurityProperty::StartupIntegrity,
                SecurityProperty::RuntimeIntegrity,
                SecurityProperty::CovertChannelFreedom,
                SecurityProperty::CpuAvailability { min_share_pct: 0 },
            ],
        )
    }

    #[test]
    fn platform_measurement_matches_reference() {
        let n = node();
        let refs = ReferenceDb::new();
        assert_eq!(n.sim().pcpu_count(), 2);
        assert_eq!(n.identity_key(), n.identity_key());
        // PCR 0 should equal the pristine replay.
        let m = {
            let mut n = node();
            n.launch_vm(
                Vid(1),
                Image::Cirros,
                Image::Cirros.pristine_bytes(),
                vec![Box::new(IdleDriver)],
                256,
            );
            n.collect(MeasurementSpec::BootIntegrity, Vid(1)).unwrap()
        };
        let Measurement::BootIntegrity {
            platform_pcr,
            image_hash,
        } = m
        else {
            panic!("wrong measurement");
        };
        assert_eq!(platform_pcr, refs.expected_platform_pcr());
        assert_eq!(image_hash, refs.expected_image_hash(Image::Cirros));
    }

    #[test]
    fn corrupted_platform_yields_different_pcr() {
        let refs = ReferenceDb::new();
        let n = CloudServerNode::boot(
            ServerId(1),
            1,
            SchedParams::default(),
            Drbg::from_seed(2),
            &["firmware-v2", "evil-hypervisor", "dom0-linux-3.13"],
            &[],
        );
        assert_ne!(n.trust.pcrs().read(0), refs.expected_platform_pcr());
    }

    #[test]
    fn capacity_tracking() {
        let mut n = node();
        assert_eq!(n.free_vcpus(), 16);
        n.launch_vm(
            Vid(1),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(IdleDriver), Box::new(IdleDriver)],
            256,
        );
        assert_eq!(n.free_vcpus(), 14);
        n.remove_vm(Vid(1));
        assert_eq!(n.free_vcpus(), 16);
        assert!(!n.hosts(Vid(1)));
    }

    #[test]
    fn cpu_time_window_measures_usage() {
        let mut n = node();
        n.launch_vm(
            Vid(1),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(BusyLoop::default())],
            256,
        );
        let spec = MeasurementSpec::CpuTime {
            window_us: 1_000_000,
        };
        n.begin_window(spec, Vid(1));
        n.advance(1_000_000);
        let Measurement::CpuTime {
            virtual_time_us,
            window_us,
            contending_vcpus,
        } = n.collect(spec, Vid(1)).unwrap()
        else {
            panic!("wrong measurement");
        };
        assert!(virtual_time_us > 900_000, "usage = {virtual_time_us}");
        assert_eq!(window_us, 1_000_000);
        assert_eq!(contending_vcpus, 1);
    }

    #[test]
    fn attest_produces_verifiable_quote() {
        let mut n = node();
        n.launch_vm(
            Vid(7),
            Image::Ubuntu,
            Image::Ubuntu.pristine_bytes(),
            vec![Box::new(IdleDriver)],
            256,
        );
        let resp = n
            .attest(Vid(7), MeasurementSpec::BootIntegrity, [9u8; 32])
            .unwrap();
        assert!(resp.cert_request.verify());
        let vid_bytes = 7u64.to_be_bytes();
        let spec_bytes = monatt_net::wire::Wire::to_wire(&resp.spec);
        let meas_bytes = monatt_net::wire::Wire::to_wire(&resp.measurement);
        assert!(resp
            .quote
            .verify(
                &resp.cert_request.attestation_key,
                &[&vid_bytes, &spec_bytes, &meas_bytes, &resp.nonce]
            )
            .is_ok());
        // Each attestation uses a fresh session key.
        let resp2 = n
            .attest(Vid(7), MeasurementSpec::BootIntegrity, [9u8; 32])
            .unwrap();
        assert_ne!(
            resp.cert_request.attestation_key,
            resp2.cert_request.attestation_key
        );
    }

    #[test]
    fn avk_reuse_presents_identical_binding_until_reset() {
        let mut n = node();
        n.launch_vm(
            Vid(7),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(IdleDriver)],
            256,
        );
        n.set_avk_reuse(true);
        let a = n
            .attest(Vid(7), MeasurementSpec::BootIntegrity, [1u8; 32])
            .unwrap();
        let b = n
            .attest(Vid(7), MeasurementSpec::BootIntegrity, [2u8; 32])
            .unwrap();
        // Same AVK, same identity signature: byte-identical binding.
        assert_eq!(
            a.cert_request.attestation_key,
            b.cert_request.attestation_key
        );
        assert_eq!(
            a.cert_request.identity_signature,
            b.cert_request.identity_signature
        );
        // A re-key/crash reset forces a fresh session key.
        n.reset_avk_session();
        let c = n
            .attest(Vid(7), MeasurementSpec::BootIntegrity, [3u8; 32])
            .unwrap();
        assert_ne!(
            a.cert_request.attestation_key,
            c.cert_request.attestation_key
        );
    }

    #[test]
    fn attest_unknown_vm_is_none() {
        let mut n = node();
        assert!(n
            .attest(Vid(99), MeasurementSpec::BootIntegrity, [0u8; 32])
            .is_none());
    }

    #[test]
    fn supports_check() {
        let n = node();
        assert!(n.supports(SecurityProperty::RuntimeIntegrity));
        assert!(n.supports(SecurityProperty::CpuAvailability { min_share_pct: 50 }));
        let bare = CloudServerNode::boot(
            ServerId(9),
            1,
            SchedParams::default(),
            Drbg::from_seed(3),
            &[],
            &[],
        );
        assert!(!bare.supports(SecurityProperty::StartupIntegrity));
    }
}
