//! Shared by the `trace_pins` suites of this crate and of
//! `monatt-workloads`: folds everything a caller can observe about a
//! [`ServerSim`] into one FNV-1a digest, so a rewrite of the engine's
//! insides either reproduces the schedule exactly or fails by name.

// Each suite uses its own subset.
#![allow(dead_code)]

use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::{PcpuId, VcpuId};
use monatt_hypervisor::profile::{DescheduleReason, RunSegment};
use monatt_hypervisor::vm::VmState;

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

/// Clock, per-VM state / PMU counters / window CPU time, per-vCPU
/// placement / CPU time / credit balance, per-pCPU contention.
pub fn fold_state(f: &mut Fold, sim: &ServerSim) {
    f.u64(sim.now().as_micros());
    for vm in sim.vm_ids() {
        let v = sim.vm(vm).expect("listed VM exists");
        f.u64(match v.state {
            VmState::Running => 0,
            VmState::Suspended => 1,
            VmState::Terminated => 2,
        });
        let c = sim.pmu().counters(vm);
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
        f.u64(sim.profile().vm_cpu_time_us(vm));
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
