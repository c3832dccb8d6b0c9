//! Shared by the `trace_pins` suites of this crate and of
//! `monatt-workloads` and by `busy_commitment`: folds everything a
//! caller can observe about a [`ServerSim`] into one FNV-1a digest, so a
//! rewrite of the engine's insides either reproduces the schedule exactly
//! or fails by name (a terminated VM is folded from what it showed as it
//! terminated, [`Retired`]); the seeded pattern drivers and deadlines the
//! scenarios draw; `ChunkedBusy`, the oracle for `BusyLoop`; and
//! `histogram_of`, the oracle for the profile tool's interval registers.

// Each suite uses its own subset.
#![allow(dead_code)]

use monatt_hypervisor::driver::{VcpuAction, VcpuView, WakeReason, WorkloadDriver};
use monatt_hypervisor::engine::{RetiredVm, ServerSim};
use monatt_hypervisor::ids::{PcpuId, VcpuId, VmId};
use monatt_hypervisor::pmu::VmCounters;
use monatt_hypervisor::profile::{
    DescheduleReason, RunSegment, INTERVAL_BINS, INTERVAL_BIN_WIDTH_US,
};
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmState;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

/// A scripted pattern, cyclic or one-shot (then `Halt`), whose
/// durations also depend on what the engine shows the driver — a wrong
/// `VcpuView` or a missed `on_wake` moves the trace.
pub struct PatternDriver {
    actions: Vec<VcpuAction>,
    pos: usize,
    cyclic: bool,
    salt: u64,
}

impl WorkloadDriver for PatternDriver {
    fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
        if self.pos == self.actions.len() {
            if !self.cyclic {
                return VcpuAction::Halt;
            }
            self.pos = 0;
        }
        let action = self.actions[self.pos];
        self.pos += 1;
        let wobble = (view.cpu_time_us + view.now.as_micros()).wrapping_add(self.salt);
        match action {
            VcpuAction::Compute { duration_us } if duration_us > 0 => VcpuAction::Compute {
                duration_us: duration_us + wobble % 97,
            },
            VcpuAction::Block {
                duration_us: Some(d),
            } => VcpuAction::Block {
                duration_us: Some(d + wobble % 13),
            },
            other => other,
        }
    }

    fn on_wake(&mut self, view: &VcpuView, reason: WakeReason) {
        let r = match reason {
            WakeReason::Timer => 1,
            WakeReason::Ipi => 2,
        };
        self.salt = self
            .salt
            .wrapping_mul(31)
            .wrapping_add(r + view.now.as_micros() % 7);
    }
}

/// A pattern for one vCPU of a `vcpus`-vCPU VM. Scenario-wide tempo:
/// `sleepy` scenarios block long and compute short, so the server goes
/// quiescent and `run_until_lazy` leaps.
pub fn pattern(rng: &mut TestRng, vcpus: usize, sleepy: bool) -> PatternDriver {
    let len = rng.range(1, 10) as usize;
    let (compute_hi, block_lo, block_hi) = if sleepy {
        (600, 15_000, 250_000)
    } else {
        (9_000, 50, 12_000)
    };
    // The first action always consumes time, so no cyclic pattern can
    // exhaust the engine's zero-time action budget.
    let mut actions = vec![VcpuAction::Compute {
        duration_us: rng.range(50, compute_hi),
    }];
    while actions.len() < len {
        let action = match rng.below(16) {
            0..=5 => VcpuAction::Compute {
                duration_us: rng.range(50, compute_hi),
            },
            6..=9 => VcpuAction::Block {
                duration_us: Some(rng.range(block_lo, block_hi)),
            },
            10 => VcpuAction::Block { duration_us: None },
            // One past the end: an IPI to a vCPU that does not exist.
            11..=13 => VcpuAction::SendIpi {
                target_index: rng.below(vcpus as u64 + 1) as usize,
            },
            14 => VcpuAction::Yield,
            _ => VcpuAction::Compute { duration_us: 0 },
        };
        actions.push(action);
        // A woken vCPU always computes before it gives the pCPU up
        // again. The engine the hypervisor's pins were generated on
        // panicked ("driver exists") when an IPI's target took the
        // sender's pCPU and handed it straight back;
        // `ipi_bounce_resumes_the_sender` in the engine's unit tests
        // covers that path instead.
        if matches!(action, VcpuAction::Block { .. }) {
            actions.push(VcpuAction::Compute {
                duration_us: rng.range(50, compute_hi),
            });
        }
    }
    PatternDriver {
        actions,
        pos: 0,
        cyclic: rng.below(4) != 0,
        salt: rng.next_u64(),
    }
}

/// A deadline for the next run, at most `reach` µs ahead: random,
/// tick-aligned (equal to the due time of the tick timer, and of the
/// accounting timer every third tick), exactly `now`, or in the past.
pub fn deadline(sim: &ServerSim, rng: &mut TestRng, reach: u64) -> SimTime {
    let now = sim.now().as_micros();
    let tick = sim.params().tick_us;
    SimTime::from_micros(match rng.below(8) {
        0 | 1 => (now / tick + rng.range(1, 4)) * tick,
        2 => now,
        3 => now.saturating_sub(rng.below(5_000)),
        _ => now + rng.below(reach),
    })
}

/// The busy loop before it committed: the same `Compute { chunk }`
/// answered again every `chunk` µs of CPU, each answer an event. The
/// oracle `busy_commitment` holds `BusyLoop` to.
pub struct ChunkedBusy {
    pub chunk: u64,
}

impl WorkloadDriver for ChunkedBusy {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        VcpuAction::Compute {
            duration_us: self.chunk,
        }
    }
}

/// FNV-1a over a stream of `u64`s.
pub struct Fold(u64);

impl Fold {
    pub fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn reason_code(reason: DescheduleReason) -> u64 {
    match reason {
        DescheduleReason::Blocked => 0,
        DescheduleReason::Preempted => 1,
        DescheduleReason::SliceExpired => 2,
        DescheduleReason::Yielded => 3,
        DescheduleReason::Halted => 4,
        DescheduleReason::Stopped => 5,
    }
}

pub fn fold_segment(f: &mut Fold, seg: &RunSegment) {
    f.u64(u64::from(seg.vcpu.vm.0));
    f.u64(seg.vcpu.index as u64);
    f.u64(seg.pcpu.0 as u64);
    f.u64(seg.start.as_micros());
    f.u64(seg.end.as_micros());
    f.u64(reason_code(seg.reason));
}

/// One byte per segment, independent of every other segment: the first
/// index at which two fingerprint strings differ is the first segment
/// that differs.
pub fn segment_fingerprint(seg: &RunSegment) -> u8 {
    let mut f = Fold::new();
    fold_segment(&mut f, seg);
    (f.finish() >> 56) as u8
}

/// The VMs a scenario terminated, each as it stood when it terminated.
/// The simulator keeps nothing of them; the folds take them from here,
/// in the place the engine the pins were generated on kept their rows.
#[derive(Default)]
pub struct Retired(BTreeMap<VmId, RetiredVm>);

impl Retired {
    /// Terminates `vm` on `sim`, keeping what it showed.
    pub fn terminate(&mut self, sim: &mut ServerSim, vm: VmId) {
        if let Some(retired) = sim.retire_vm(vm) {
            self.0.insert(vm, retired);
        }
    }

    /// A new profile window starts: the terminated VMs' window readings
    /// are zeroed with everyone's.
    pub fn reset_window(&mut self) {
        for retired in self.0.values_mut() {
            retired.window_cpu_time_us = 0;
            retired.interval_registers = [0; INTERVAL_BINS];
        }
    }
}

/// Every VM `sim` has created, in creation order: live, or terminated
/// and kept in `retired`.
fn every_vm<'a>(
    sim: &ServerSim,
    retired: &'a Retired,
) -> impl Iterator<Item = (VmId, Option<&'a RetiredVm>)> {
    let mut all: Vec<(VmId, Option<&RetiredVm>)> =
        sim.vm_ids().into_iter().map(|vm| (vm, None)).collect();
    all.extend(retired.0.iter().map(|(&vm, r)| (vm, Some(r))));
    all.sort_by_key(|&(vm, _)| vm);
    all.into_iter()
}

/// `vm`'s interval registers, live or retired.
fn registers<'a>(
    sim: &'a ServerSim,
    vm: VmId,
    retired: Option<&'a RetiredVm>,
) -> &'a [u64; INTERVAL_BINS] {
    retired.map_or_else(|| sim.interval_registers(vm), |r| &r.interval_registers)
}

/// Clock, per-VM state / PMU counters / window CPU time, per-vCPU
/// placement / CPU time / credit balance, per-pCPU contention.
pub fn fold_state(f: &mut Fold, sim: &ServerSim, retired: &Retired) {
    f.u64(sim.now().as_micros());
    for (vm, gone) in every_vm(sim, retired) {
        if let Some(r) = gone {
            f.u64(2);
            fold_counters(f, r.counters);
            f.u64(r.window_cpu_time_us);
            for vcpu in &r.vcpus {
                f.u64(vcpu.pcpu.0 as u64);
                f.u64(vcpu.cpu_time_us);
                f.u64(vcpu.credits as u64);
            }
            continue;
        }
        let v = sim.vm(vm).expect("listed VM exists");
        f.u64(match v.state {
            VmState::Running => 0,
            VmState::Suspended => 1,
        });
        fold_counters(f, sim.counters(vm));
        f.u64(sim.window_cpu_time_us(vm));
        for index in 0..v.vcpu_count {
            let id = VcpuId { vm, index };
            f.u64(sim.vcpu_pcpu(id).expect("listed vCPU exists").0 as u64);
            f.u64(sim.vcpu_cpu_time_us(id));
            f.u64(sim.vcpu_credits(id).expect("listed vCPU exists") as u64);
        }
    }
    for p in 0..sim.pcpu_count() {
        f.u64(sim.schedulable_vcpus_on(PcpuId(p)) as u64);
    }
}

fn fold_counters(f: &mut Fold, c: VmCounters) {
    for x in [
        c.schedules,
        c.preemptions,
        c.ipis_sent,
        c.wakeups,
        c.boosts,
        c.blocks,
    ] {
        f.u64(x);
    }
}

/// The usage-interval histogram the profile tool used to rebuild from its
/// segment log at window close (`interval_histogram(vm, 30, 1 ms)`):
/// `(d − 1) / 1 ms`, clamped to the last bin, zero-length skipped.
pub fn histogram_of<'a>(segments: impl Iterator<Item = &'a RunSegment>) -> [u64; INTERVAL_BINS] {
    let mut hist = [0; INTERVAL_BINS];
    for seg in segments {
        let d = seg.duration_us();
        if d > 0 {
            hist[(((d - 1) / INTERVAL_BIN_WIDTH_US) as usize).min(INTERVAL_BINS - 1)] += 1;
        }
    }
    hist
}

/// Holds every VM's interval registers, a terminated VM's included, to
/// [`histogram_of`] its logged segments. Both cover the window since the
/// last `reset_window`.
pub fn check_registers_against_log(sim: &ServerSim, retired: &Retired, context: &str) {
    for (vm, gone) in every_vm(sim, retired) {
        let want = histogram_of(sim.vm_segments(vm));
        assert_eq!(
            registers(sim, vm, gone),
            &want,
            "{context}: {vm}'s interval registers differ from its segment log"
        );
    }
}

/// Clock and state as [`fold_state`], plus every VM's interval
/// registers: all a run without the segment log can observe.
pub fn fold_observable(sim: &ServerSim, retired: &Retired) -> u64 {
    let mut f = Fold::new();
    fold_state(&mut f, sim, retired);
    for (vm, gone) in every_vm(sim, retired) {
        for &n in registers(sim, vm, gone) {
            f.u64(n);
        }
    }
    f.finish()
}
