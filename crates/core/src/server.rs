//! One CloudMonatt-capable cloud server: the hypervisor simulator, the
//! hardware Trust Module, the Monitor Module (monitor kernel + tools) and
//! the Attestation Client (Figure 2).

use crate::measurements::{Measurement, MeasurementSpec, TaskInfo};
use crate::messages::{q3_fields, MeasureResponse};
use crate::types::{Image, SecurityProperty, ServerId, Vid};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::VerifyingKey;
use monatt_crypto::sha256::sha256;
use monatt_hypervisor::driver::WorkloadDriver;
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::guest::GuestOs;
use monatt_hypervisor::ids::VmId;
use monatt_hypervisor::pmu::VmCounters;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmConfig;
use monatt_hypervisor::vmi::VmiTool;
use monatt_tpm::module::TrustModule;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Histogram geometry of the covert-channel Trust Evidence Registers,
/// 30 bins of 1 ms (Section 4.4.2): the VMM profile tool's interval bank.
pub use monatt_hypervisor::profile::{INTERVAL_BINS, INTERVAL_BIN_WIDTH_US};

/// vCPU slots a server offers per pCPU.
const VCPUS_PER_PCPU: usize = 8;

/// Per-VM record on the server.
#[derive(Debug)]
struct VmSlot {
    local: VmId,
    /// Image hash measured at launch time (before any runtime tampering).
    measured_image_hash: [u8; 32],
    /// The VM's total vCPU time when its last `CpuTime` window opened;
    /// 0 until one opens.
    cpu_baseline_us: u64,
    /// Its PMU counters when its last `SchedulerEvents` window opened;
    /// zeroes until one opens.
    pmu_baseline: VmCounters,
}

/// A cloud server node.
pub struct CloudServerNode {
    id: ServerId,
    trust: TrustModule,
    sim: ServerSim,
    vms: BTreeMap<Vid, VmSlot>,
    supported: BTreeSet<&'static str>,
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
    /// A window opened at `.0` that the simulator has not reached yet:
    /// the next [`Self::catch_up`] past that instant applies it there.
    pending_window: Option<(u64, MeasurementSpec, Vid)>,
}

impl std::fmt::Debug for CloudServerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServerNode")
            .field("id", &self.id)
            .field("vms", &self.vms.len())
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
            supported: supported.iter().map(|p| p.label()).collect(),
            quote_scratch: monatt_net::wire::EncodeScratch::new(),
            reuse_avk: false,
            avk_session: None,
            window_free_at: 0,
            pending_window: None,
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

    /// Read access to the hypervisor simulator (monitor tools, tests).
    pub fn sim(&self) -> &ServerSim {
        &self.sim
    }

    /// Mutable access to the hypervisor simulator — used by attack
    /// injection in experiments.
    pub fn sim_mut(&mut self) -> &mut ServerSim {
        &mut self.sim
    }

    /// Number of VMs on the server.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The vCPU slots still free: `VCPUS_PER_PCPU` per pCPU less the
    /// hosted VMs' vCPUs, and none below zero (a placement forced onto
    /// the server may overcommit it).
    pub(crate) fn free_vcpus(&self) -> usize {
        let slots = self.sim.pcpu_count() * VCPUS_PER_PCPU;
        slots.saturating_sub(self.sim.vcpu_count())
    }

    /// Launches a VM: boots the guest from `image_bytes` (possibly
    /// tampered; a `&'static` image such as [`Image::pristine`] is
    /// borrowed, not copied), measures the image hash, and starts the
    /// vCPUs.
    ///
    /// # Panics
    ///
    /// Panics if the vid is already present or drivers are empty.
    pub fn launch_vm(
        &mut self,
        vid: Vid,
        image: Image,
        image_bytes: impl Into<Cow<'static, [u8]>>,
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
        image_bytes: impl Into<Cow<'static, [u8]>>,
        drivers: Vec<Box<dyn WorkloadDriver>>,
        weight: u32,
        pin_pcpu: Option<usize>,
    ) -> VmId {
        assert!(!self.vms.contains_key(&vid), "vid already on this server");
        let vcpus = drivers.len();
        let guest = GuestOs::boot(image_bytes, image.initial_tasks());
        let measured_image_hash = guest.image_hash();
        let local = self.sim.create_vm(VmConfig {
            name: vid.to_string(),
            weight,
            drivers,
            pinning: pin_pcpu.map(|p| vec![monatt_hypervisor::ids::PcpuId(p); vcpus]),
            guest,
        });
        self.vms.insert(
            vid,
            VmSlot {
                local,
                measured_image_hash,
                cpu_baseline_us: 0,
                pmu_baseline: VmCounters::default(),
            },
        );
        local
    }

    /// Removes a VM (terminate or migrate-away), with its window
    /// baselines.
    pub fn remove_vm(&mut self, vid: Vid) {
        if let Some(slot) = self.vms.remove(&vid) {
            self.sim.terminate_vm(slot.local);
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

    /// Each hosted VM with its local simulator id, in vid order: the
    /// one record of what this server hosts.
    pub(crate) fn residents(&self) -> impl Iterator<Item = (Vid, VmId)> + '_ {
        self.vms.iter().map(|(&vid, slot)| (vid, slot.local))
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
    ///
    /// A window the cloud opened (`open_window`) at or before `wall_us`
    /// is applied on the way, at its own instant: catching up to that
    /// instant and then on to `wall_us` is the schedule of catching up
    /// once, so the window costs no catch-up of its own.
    pub fn catch_up(&mut self, wall_us: u64) {
        if let Some((at_us, spec, vid)) = self.pending_window.take_if(|w| w.0 <= wall_us) {
            self.sim.run_until_lazy(SimTime::from_micros(at_us));
            self.begin_window(spec, vid);
        }
        self.sim.run_until_lazy(SimTime::from_micros(wall_us));
    }

    /// Opens `spec`'s window for `vid` at wall-clock instant `at_us` and
    /// reserves the window until it closes (`window_free_at`), leaving
    /// the simulator where it is: the node's next [`Self::catch_up`]
    /// past `at_us` applies [`Self::begin_window`] there. A window opened
    /// while another is pending, or at an instant the simulator has
    /// already reached, is applied at once, after catching up to `at_us`.
    pub(crate) fn open_window(&mut self, at_us: u64, spec: MeasurementSpec, vid: Vid) {
        self.window_free_at = at_us + spec.window_us();
        if self.pending_window.is_some() || self.sim.now() >= SimTime::from_micros(at_us) {
            self.catch_up(at_us);
            self.begin_window(spec, vid);
        } else {
            self.pending_window = Some((at_us, spec, vid));
        }
    }

    /// Whether a window waits for a catch-up past its instant.
    #[cfg(test)]
    pub(crate) fn window_pending(&self) -> bool {
        self.pending_window.is_some()
    }

    /// Opens a measurement window for a runtime spec: resets the VMM
    /// profile tool's windows (running time and the Trust Evidence
    /// Registers) and takes the VM's CPU-time or PMU baseline. The caller
    /// then advances the simulator by the spec's window before calling
    /// [`Self::collect`].
    pub fn begin_window(&mut self, spec: MeasurementSpec, vid: Vid) {
        if spec.window_us() == 0 {
            return;
        }
        self.sim.reset_window();
        let Some(slot) = self.vms.get_mut(&vid) else {
            return;
        };
        match spec {
            MeasurementSpec::CpuTime { .. } => {
                slot.cpu_baseline_us = total_cpu_us(&self.sim, slot.local);
            }
            MeasurementSpec::SchedulerEvents { .. } => {
                slot.pmu_baseline = self.sim.counters(slot.local);
            }
            _ => {}
        }
    }

    /// Collects the measurements for `spec` — the Monitor Kernel reading
    /// the VM's PCR, task lists, Trust Evidence Registers or counters.
    ///
    /// Returns `None` if the VM is not hosted here.
    pub fn collect(&self, spec: MeasurementSpec, vid: Vid) -> Option<Measurement> {
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
            MeasurementSpec::UsageIntervals { window_us } => Some(Measurement::UsageIntervals {
                bins: self.sim.interval_registers(local).to_vec(),
                bin_width_us: INTERVAL_BIN_WIDTH_US,
                window_us,
            }),
            MeasurementSpec::CpuTime { window_us } => {
                let total = total_cpu_us(&self.sim, local);
                let virtual_time_us = total.saturating_sub(slot.cpu_baseline_us);
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
                Some(Measurement::CpuTime {
                    virtual_time_us,
                    window_us,
                    contending_vcpus: contending as u32,
                })
            }
            MeasurementSpec::SchedulerEvents { window_us } => {
                let baseline = slot.pmu_baseline;
                let now = self.sim.counters(local);
                let boosts = now.boosts.saturating_sub(baseline.boosts);
                let ipis_sent = now.ipis_sent.saturating_sub(baseline.ipis_sent);
                let wakeups = now.wakeups.saturating_sub(baseline.wakeups);
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
    /// The result is message 4: the measurements under quote
    /// `Q3 = H(Vid || rM || M || N3)` signed with the session key ASKs,
    /// and the key's certification request for the privacy CA.
    ///
    /// Returns `None` if the VM is not hosted here.
    pub fn attest(
        &mut self,
        vid: Vid,
        spec: MeasurementSpec,
        nonce: [u8; 32],
    ) -> Option<MeasureResponse> {
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
        let scratch = &mut self.quote_scratch;
        let quote = q3_fields(scratch, vid, &spec, &measurement, &nonce, |f| {
            session.quote(f)
        });
        Some(MeasureResponse {
            vid,
            spec,
            measurement,
            nonce3: nonce,
            quote,
            cert_request: session.certification_request().clone(),
        })
    }
}

/// `local`'s total vCPU time on `sim`.
fn total_cpu_us(sim: &ServerSim, local: VmId) -> u64 {
    let count = sim.vm(local).map_or(0, |v| v.vcpu_count);
    (0..count)
        .map(|index| sim.vcpu_cpu_time_us(monatt_hypervisor::ids::VcpuId { vm: local, index }))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::WorkloadSpec;
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
    fn usage_intervals_are_the_interval_bank() {
        let mut n = node();
        n.launch_vm_pinned(
            Vid(1),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(BusyLoop)],
            256,
            Some(0),
        );
        n.launch_vm_pinned(
            Vid(2),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(BusyLoop)],
            256,
            Some(0),
        );
        let spec = MeasurementSpec::UsageIntervals {
            window_us: 1_000_000,
        };
        n.begin_window(spec, Vid(1));
        n.advance(1_000_000);
        let local = n.local_vm(Vid(1)).unwrap();
        let bank = *n.sim().interval_registers(local);
        let Measurement::UsageIntervals { bins, .. } = n.collect(spec, Vid(1)).unwrap() else {
            panic!("wrong measurement");
        };
        assert_eq!(bins, bank);
        // Two busy loops on one pCPU run out 30 ms slices.
        assert!(bins[INTERVAL_BINS - 1] > 10, "{bins:?}");
    }

    #[test]
    fn cpu_time_window_measures_usage() {
        let mut n = node();
        n.launch_vm(
            Vid(1),
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(BusyLoop)],
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

    /// Launches one single-vCPU `guest` as `vid`.
    fn launch(n: &mut CloudServerNode, vid: Vid, guest: WorkloadSpec) {
        let (drivers, _) = guest.drivers(1, vid.0);
        n.launch_vm(vid, Image::Cirros, Image::Cirros.pristine(), drivers, 256);
    }

    /// What happens on the node between a window's open and its close.
    #[derive(Clone, Copy, Debug)]
    enum Between {
        Nothing,
        Suspend,
        Launch,
        Remove,
        /// A second window, on another VM.
        Window(MeasurementSpec),
    }

    #[test]
    fn a_deferred_window_measures_what_an_applied_one_does() {
        use monatt_workloads::{CloudService, SpecProgram};
        use WorkloadSpec::{Busy, Program, Service};
        let (t0, tm, window_us) = (200_000, 450_000, 500_000);
        let t1 = t0 + window_us;
        let specs = [
            MeasurementSpec::UsageIntervals { window_us },
            MeasurementSpec::CpuTime { window_us },
            MeasurementSpec::SchedulerEvents { window_us },
        ];
        // Five single-vCPU guests on two pCPUs, caught up to 100 ms.
        let busy_node = || {
            let mut n = node();
            let guests = [
                Busy,
                Service(CloudService::Web),
                Service(CloudService::Mail),
                Program(SpecProgram::Bzip2),
                Busy,
            ];
            for (vid, guest) in (1..).zip(guests) {
                launch(&mut n, Vid(vid), guest);
            }
            n.catch_up(100_000);
            n
        };
        // What happens at `tm`: on the lazy path a second window is
        // opened as the cloud opens it; anything else catches up first,
        // as the fleet's `touch` does.
        let act = |n: &mut CloudServerNode, between: Between, lazy: bool| match between {
            Between::Nothing if lazy => {}
            Between::Window(second) if lazy => n.open_window(tm, second, Vid(2)),
            _ => {
                n.catch_up(tm);
                match between {
                    Between::Nothing => {}
                    Between::Suspend => n.suspend_vm(Vid(2)),
                    Between::Launch => launch(n, Vid(6), Busy),
                    Between::Remove => n.remove_vm(Vid(3)),
                    Between::Window(second) => n.begin_window(second, Vid(2)),
                }
            }
        };
        // Every windowed measurement of every VM, and the clock.
        let seen = |n: &CloudServerNode| {
            let all = specs
                .iter()
                .flat_map(|&s| (1..=6).map(move |v| (s, Vid(v))));
            let measurements: Vec<_> = all.map(|(s, vid)| n.collect(s, vid)).collect();
            (measurements, n.sim().now())
        };
        let betweens = [
            Between::Nothing,
            Between::Suspend,
            Between::Launch,
            Between::Remove,
        ];
        let seconds = specs.map(Between::Window);
        for spec in specs {
            for between in betweens.into_iter().chain(seconds) {
                // The applied order, in public calls only.
                let mut applied = busy_node();
                applied.catch_up(t0);
                applied.begin_window(spec, Vid(1));
                act(&mut applied, between, false);
                applied.catch_up(t1);
                // The deferred open, then one catch-up.
                let mut deferred = busy_node();
                deferred.open_window(t0, spec, Vid(1));
                assert!(deferred.window_pending());
                assert_eq!(deferred.window_free_at, t1);
                act(&mut deferred, between, true);
                deferred.catch_up(t1);
                assert!(!deferred.window_pending());
                assert_eq!(seen(&deferred), seen(&applied), "{spec:?}, {between:?}");
            }
        }
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
                &[&vid_bytes, &spec_bytes, &meas_bytes, &resp.nonce3]
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
