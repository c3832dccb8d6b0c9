//! The discrete-event simulation engine: a simulated cloud server with
//! physical CPUs, a Xen-style credit scheduler, VMs with driver-modelled
//! guest workloads, and the monitoring the Monitor Module reads: each
//! VM's PMU counters ([`crate::pmu`]) and profile window
//! ([`crate::profile`]).
//!
//! A [`ServerSim`] is single-threaded, fully deterministic and `Send`:
//! identical inputs produce identical schedules, which keeps the paper's
//! figures reproducible run-to-run. It is a closed value — its drivers,
//! their RNGs, its timers and its VM rows — so one server may be caught
//! up on another thread while a second server runs on this one, and the
//! schedule of each is what it would have been alone.
//!
//! State is dense and holds only what is alive. The live VMs are rows of
//! one table in creation order, each holding the VM, its PMU counters
//! and its profile window; their vCPUs are rows of another, grouped by
//! VM. A terminated VM's rows go, and the later rows move up, keeping
//! their order. The event path names a vCPU and its VM by row and never
//! looks an id up; a [`VmId`] (a per-server counter, never reused) or
//! [`VcpuId`] is translated once, at the public surface. Timers are
//! `TimerSlots`: every timer the server can have is a slot that is
//! re-armed in place and disarmed the moment it stops meaning anything,
//! so no handler ever has to ask whether the timer it was handed is
//! stale.

use crate::driver::{VcpuAction, VcpuView, WakeReason, WorkloadDriver};
use crate::ids::{PcpuId, VcpuId, VmId};
use crate::pmu::VmCounters;
use crate::profile::{DescheduleReason, RunSegment, WindowRegisters, INTERVAL_BINS};
use crate::scheduler::{RunState, RunStateKind, SchedParams, SchedVcpu};
use crate::time::SimTime;
use crate::timers::TimerSlots;
use crate::vm::{Vm, VmConfig, VmState};
use std::collections::VecDeque;

/// Maximum zero-time driver actions (IPIs, zero computes) per interaction
/// before the engine declares a livelock.
const DRIVER_ACTION_BUDGET: usize = 64;

/// What a timer slot means; pCPUs and vCPUs are named by table row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Timer {
    /// One for the whole server: per-pCPU ticks would share a due time
    /// and consecutive stamps for ever, so they would pop back to back
    /// in pCPU order anyway.
    Tick,
    Accounting,
    /// Armed only while the pCPU runs a vCPU with a finite compute
    /// pending.
    ComputeDone(usize),
    /// Armed only while the pCPU runs a vCPU.
    SliceExpired(usize),
    /// Armed only while the vCPU is `Blocked` on a timed sleep.
    Wake(usize),
}

#[derive(Debug)]
struct Pcpu {
    current: Option<usize>,
    queue: VecDeque<usize>,
    /// The vCPUs pinned here whose VM has not terminated: what
    /// accounting, the leap and the contention count walk.
    members: Vec<usize>,
    compute: usize,
    slice: usize,
}

struct Vcpu {
    id: VcpuId,
    /// Its VM's row in `ServerSim::vms`.
    vm_row: usize,
    sched: SchedVcpu,
    /// Away while the driver is being asked (it may re-enter the engine
    /// through an IPI), and while its VM terminates.
    driver: Option<Box<dyn WorkloadDriver>>,
    /// Timer slot of the timed-sleep wake; released at termination.
    wake: usize,
}

/// One live VM, with everything the server measures of it.
struct VmRow {
    id: VmId,
    /// Its vCPU 0's row in `ServerSim::vcpus`; the rest follow in index
    /// order.
    first_vcpu: usize,
    vm: Vm,
    counters: VmCounters,
    window: WindowRegisters,
}

impl VmRow {
    fn vcpu_rows(&self) -> std::ops::Range<usize> {
        self.first_vcpu..self.first_vcpu + self.vm.vcpu_count
    }
}

/// What a terminated VM showed at the instant it terminated, handed back
/// by [`ServerSim::retire_vm`]: the server itself keeps nothing of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetiredVm {
    /// Its PMU counters.
    pub counters: VmCounters,
    /// Its virtual running time in the current measurement window.
    pub window_cpu_time_us: u64,
    /// Its usage-interval registers for the current window.
    pub interval_registers: [u64; INTERVAL_BINS],
    /// Its vCPUs, in index order.
    pub vcpus: Vec<RetiredVcpu>,
}

/// One vCPU of a [`RetiredVm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetiredVcpu {
    /// The pCPU it was pinned to.
    pub pcpu: PcpuId,
    /// Its total on-CPU time.
    pub cpu_time_us: u64,
    /// Its credit balance.
    pub credits: i64,
}

impl Vcpu {
    fn cpu_time_us(&self, now: SimTime) -> u64 {
        match self.sched.state {
            RunState::Running { since } => {
                self.sched.cpu_time_us + now.saturating_duration_since(since)
            }
            _ => self.sched.cpu_time_us,
        }
    }
}

/// A simulated cloud server: pCPUs, scheduler, VMs, and monitoring.
///
/// # Examples
///
/// ```
/// use monatt_hypervisor::driver::BusyLoop;
/// use monatt_hypervisor::engine::ServerSim;
/// use monatt_hypervisor::scheduler::SchedParams;
/// use monatt_hypervisor::time::SimTime;
/// use monatt_hypervisor::vm::VmConfig;
///
/// let mut sim = ServerSim::new(1, SchedParams::default());
/// let vm = sim.create_vm(VmConfig::new("busy", vec![Box::new(BusyLoop)]));
/// sim.run_until(SimTime::from_millis(300));
/// let usage = sim.relative_cpu_usage(vm);
/// assert!(usage > 0.99);
/// ```
pub struct ServerSim {
    params: SchedParams,
    now: SimTime,
    timers: TimerSlots<Timer>,
    tick: usize,
    accounting: usize,
    pcpus: Vec<Pcpu>,
    /// The live VMs in creation order, which is ascending `VmId` order:
    /// a `VmId` finds its row by binary search. A terminated VM's row is
    /// removed.
    vms: Vec<VmRow>,
    /// The live VMs' vCPUs, grouped by VM in `vms` order.
    vcpus: Vec<Vcpu>,
    /// When the current measurement window began.
    window_start: SimTime,
    /// The opt-in run-segment log of the current window; `None` while
    /// logging is off.
    segment_log: Option<Vec<RunSegment>>,
    /// The next `VmId`: ids are never reused.
    next_vm: u32,
    next_pin: usize,
}

// The cloud catches busy servers up on scoped helper threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ServerSim>();
    assert_send::<Box<dyn WorkloadDriver>>();
};

impl std::fmt::Debug for ServerSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerSim")
            .field("now", &self.now)
            .field("pcpus", &self.pcpus.len())
            .field("vms", &self.vms.len())
            .field("live_timers", &self.timers.live())
            .finish_non_exhaustive()
    }
}

impl ServerSim {
    /// Creates a server with `pcpu_count` physical CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `pcpu_count` is zero.
    pub fn new(pcpu_count: usize, params: SchedParams) -> Self {
        assert!(pcpu_count > 0, "need at least one pCPU");
        let mut timers = TimerSlots::new();
        let tick = timers.add(Timer::Tick);
        timers.arm(tick, SimTime::from_micros(params.tick_us));
        let accounting = timers.add(Timer::Accounting);
        timers.arm(accounting, SimTime::from_micros(params.acct_period_us));
        let pcpus = (0..pcpu_count)
            .map(|p| Pcpu {
                current: None,
                queue: VecDeque::new(),
                members: Vec::new(),
                compute: timers.add(Timer::ComputeDone(p)),
                slice: timers.add(Timer::SliceExpired(p)),
            })
            .collect();
        ServerSim {
            params,
            now: SimTime::ZERO,
            timers,
            tick,
            accounting,
            pcpus,
            vms: Vec::new(),
            vcpus: Vec::new(),
            window_start: SimTime::ZERO,
            segment_log: None,
            next_vm: 0,
            next_pin: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Scheduler parameters in effect.
    pub fn params(&self) -> &SchedParams {
        &self.params
    }

    /// Number of physical CPUs.
    pub fn pcpu_count(&self) -> usize {
        self.pcpus.len()
    }

    /// `vm`'s PMU counters (zeroes for a VM not on the server: never
    /// created, or terminated).
    pub fn counters(&self, vm: VmId) -> VmCounters {
        self.row_of(vm)
            .map_or_else(VmCounters::default, |row| self.vms[row].counters)
    }

    /// Total virtual running time of `vm` in the current window
    /// (`CPU_measure` in the paper), counting closed run segments only;
    /// 0 for a VM not on the server.
    pub fn window_cpu_time_us(&self, vm: VmId) -> u64 {
        self.row_of(vm)
            .map_or(0, |row| self.vms[row].window.cpu_time_us)
    }

    /// `vm`'s usage-interval registers for the current window: register
    /// `i` counts the segments whose duration `d` fell in
    /// `(i·w, (i+1)·w]` for `w` =
    /// [`crate::profile::INTERVAL_BIN_WIDTH_US`], the last register also
    /// those longer. All zero for a VM not on the server.
    pub fn interval_registers(&self, vm: VmId) -> &[u64; INTERVAL_BINS] {
        self.row_of(vm)
            .map_or(&[0; INTERVAL_BINS], |row| &self.vms[row].window.intervals)
    }

    /// Relative CPU usage of `vm`: its window running time divided by
    /// the window's length so far (Section 4.5.3). 0 for an empty window.
    pub fn relative_cpu_usage(&self, vm: VmId) -> f64 {
        let window = self.now.saturating_duration_since(self.window_start);
        if window == 0 {
            return 0.0;
        }
        self.window_cpu_time_us(vm) as f64 / window as f64
    }

    /// Starts a new measurement window now: zeroes every VM's running
    /// time and interval registers and clears the segment log (which
    /// keeps its capacity).
    pub fn reset_window(&mut self) {
        for row in &mut self.vms {
            row.window = WindowRegisters::default();
        }
        if let Some(log) = &mut self.segment_log {
            log.clear();
        }
        self.window_start = self.now;
    }

    /// Turns the run-segment log on or off (off by default). While on,
    /// every closed segment is also kept until the next
    /// [`Self::reset_window`], for [`Self::segments`] to return; the
    /// counters and window registers are the same either way. Turning it
    /// off drops the log.
    pub fn set_segment_logging(&mut self, on: bool) {
        self.segment_log = on.then(|| self.segment_log.take().unwrap_or_default());
    }

    /// All run segments closed since the last [`Self::reset_window`].
    ///
    /// # Panics
    ///
    /// Panics if the segment log is off ([`Self::set_segment_logging`]):
    /// an empty answer would let a check over the log pass on nothing.
    pub fn segments(&self) -> &[RunSegment] {
        self.segment_log.as_deref().expect("segment log is off")
    }

    /// The logged segments of one VM.
    ///
    /// # Panics
    ///
    /// Panics if the segment log is off, as [`Self::segments`].
    pub fn vm_segments(&self, vm: VmId) -> impl Iterator<Item = &RunSegment> {
        self.segments().iter().filter(move |s| s.vcpu.vm == vm)
    }

    /// Looks up a live VM.
    pub fn vm(&self, vm: VmId) -> Option<&Vm> {
        Some(&self.vms[self.row_of(vm)?].vm)
    }

    /// Mutable VM access (e.g. for guest OS manipulation by attacks).
    pub fn vm_mut(&mut self, vm: VmId) -> Option<&mut Vm> {
        let row = self.row_of(vm)?;
        Some(&mut self.vms[row].vm)
    }

    /// The live VMs' ids, in creation order.
    #[cold]
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.iter().map(|row| row.id).collect()
    }

    /// Total on-CPU time a vCPU has consumed.
    pub fn vcpu_cpu_time_us(&self, vcpu: VcpuId) -> u64 {
        self.vcpu(vcpu).map_or(0, |vc| vc.cpu_time_us(self.now))
    }

    /// A vCPU's credit balance (what `xl sched-credit` would show), if the
    /// vCPU exists.
    pub fn vcpu_credits(&self, vcpu: VcpuId) -> Option<i64> {
        self.vcpu(vcpu).map(|vc| vc.sched.credits)
    }

    /// The pCPU a vCPU is pinned to, if the vCPU exists.
    pub fn vcpu_pcpu(&self, vcpu: VcpuId) -> Option<PcpuId> {
        self.vcpu(vcpu).map(|vc| vc.sched.pcpu)
    }

    /// Number of schedulable (not halted/paused) vCPUs pinned to `p` —
    /// the contention the VMM profile tool reports alongside CPU-time
    /// measurements.
    pub fn schedulable_vcpus_on(&self, p: PcpuId) -> usize {
        self.pcpus.get(p.0).map_or(0, |pc| {
            pc.members
                .iter()
                .filter(|&&v| self.vcpus[v].sched.is_schedulable())
                .count()
        })
    }

    /// Creates a VM and makes its vCPUs runnable immediately.
    ///
    /// # Panics
    ///
    /// Panics if the config has no drivers, or the pinning length does not
    /// match the driver count, or a pin is out of range.
    #[cold]
    pub fn create_vm(&mut self, config: VmConfig) -> VmId {
        assert!(!config.drivers.is_empty(), "VM needs at least one vCPU");
        if let Some(pins) = &config.pinning {
            assert_eq!(
                pins.len(),
                config.drivers.len(),
                "pinning length must match vCPU count"
            );
            for pin in pins {
                assert!(pin.0 < self.pcpus.len(), "pin out of range");
            }
        }
        let vm_id = VmId(self.next_vm);
        self.next_vm += 1;
        let vm_row = self.vms.len();
        let rows = self.vcpus.len()..self.vcpus.len() + config.drivers.len();
        self.vms.push(VmRow {
            id: vm_id,
            first_vcpu: rows.start,
            vm: Vm {
                name: config.name,
                weight: config.weight,
                state: VmState::Running,
                guest: config.guest,
                vcpu_count: rows.len(),
            },
            counters: VmCounters::default(),
            window: WindowRegisters::default(),
        });
        for (index, driver) in config.drivers.into_iter().enumerate() {
            let pcpu = match &config.pinning {
                Some(pins) => pins[index],
                None => {
                    let p = PcpuId(self.next_pin % self.pcpus.len());
                    self.next_pin += 1;
                    p
                }
            };
            let v = self.vcpus.len();
            self.vcpus.push(Vcpu {
                id: VcpuId { vm: vm_id, index },
                vm_row,
                sched: SchedVcpu::new(pcpu, config.weight),
                driver: Some(driver),
                wake: self.timers.add(Timer::Wake(v)),
            });
            self.pcpus[pcpu.0].members.push(v);
            self.enqueue(v);
        }
        // One check per vCPU, in index order, duplicates included: a set
        // of touched pCPUs would stamp their timers in another order.
        for v in rows {
            self.preempt_check(self.vcpus[v].sched.pcpu.0);
        }
        vm_id
    }

    /// Suspends a VM: its vCPUs stop being scheduled until
    /// [`Self::resume_vm`]. No-op for unknown or terminated VMs.
    pub fn suspend_vm(&mut self, vm: VmId) {
        let Some(row) = self.row_of(vm) else {
            return;
        };
        if self.vms[row].vm.state != VmState::Running {
            return;
        }
        self.vms[row].vm.state = VmState::Suspended;
        for v in self.vms[row].vcpu_rows() {
            let before = match self.vcpus[v].sched.state {
                RunState::Running { .. } => {
                    let p = self.vcpus[v].sched.pcpu.0;
                    self.deschedule(v, DescheduleReason::Stopped, RunState::Paused);
                    self.dispatch(p);
                    RunStateKind::Runnable
                }
                RunState::Runnable => {
                    self.remove_from_queue(v);
                    RunStateKind::Runnable
                }
                RunState::Blocked => {
                    self.timers.disarm(self.vcpus[v].wake);
                    RunStateKind::Blocked
                }
                RunState::Paused | RunState::Halted => continue,
            };
            let vs = &mut self.vcpus[v].sched;
            vs.state = RunState::Paused;
            vs.state_before_pause = Some(before);
        }
    }

    /// Resumes a suspended VM. Previously blocked vCPUs are woken
    /// conservatively (their sleep timers were cancelled by suspension).
    /// No-op unless the VM is suspended.
    pub fn resume_vm(&mut self, vm: VmId) {
        let Some(row) = self.row_of(vm) else {
            return;
        };
        if self.vms[row].vm.state != VmState::Suspended {
            return;
        }
        self.vms[row].vm.state = VmState::Running;
        let rows = self.vms[row].vcpu_rows();
        for v in rows.clone() {
            if self.vcpus[v].sched.state == RunState::Paused {
                self.vcpus[v].sched.state = RunState::Runnable;
                self.enqueue(v);
            }
        }
        // Then one check per resumed vCPU, as in `create_vm`. The first
        // check may already run (even halt) a later sibling, so "was
        // paused" is read from the suspension record, not the run state.
        for v in rows {
            if self.vcpus[v].sched.state_before_pause.take().is_some() {
                self.preempt_check(self.vcpus[v].sched.pcpu.0);
            }
        }
    }

    /// Terminates a VM permanently: all vCPUs halt and never run again,
    /// and the server forgets it (see [`Self::retire_vm`]). No-op for an
    /// unknown or terminated VM.
    #[cold]
    pub fn terminate_vm(&mut self, vm: VmId) {
        self.retire_vm(vm);
    }

    /// [`Self::terminate_vm`], handing back what the VM showed as it
    /// terminated; `None` for an unknown or terminated VM. Its running
    /// vCPUs are descheduled first, as the hypervisor stops them. Then
    /// its drivers, guest, timers and rows go, and every later VM and
    /// vCPU row moves up one place in order: the event path walks what is
    /// alive, in the order it was created. Its `VmId` is never issued
    /// again.
    #[cold]
    pub fn retire_vm(&mut self, vm: VmId) -> Option<RetiredVm> {
        let row = self.row_of(vm)?;
        let rows = self.vms[row].vcpu_rows();
        for v in rows.clone() {
            let p = self.vcpus[v].sched.pcpu.0;
            match self.vcpus[v].sched.state {
                RunState::Running { .. } => {
                    self.deschedule(v, DescheduleReason::Stopped, RunState::Halted);
                    self.dispatch(p);
                }
                RunState::Runnable => self.remove_from_queue(v),
                RunState::Blocked | RunState::Paused | RunState::Halted => {}
            }
            let vc = &mut self.vcpus[v];
            vc.sched.state = RunState::Halted;
            vc.driver = None;
            self.timers
                .release(std::mem::replace(&mut vc.wake, usize::MAX));
            self.pcpus[p].members.retain(|&m| m != v);
        }
        let vcpus = self.vcpus[rows.clone()]
            .iter()
            .map(|vc| RetiredVcpu {
                pcpu: vc.sched.pcpu,
                cpu_time_us: vc.sched.cpu_time_us,
                credits: vc.sched.credits,
            })
            .collect();
        let VmRow {
            counters, window, ..
        } = self.vms.remove(row);
        let retired = RetiredVm {
            counters,
            window_cpu_time_us: window.cpu_time_us,
            interval_registers: window.intervals,
            vcpus,
        };
        self.vcpus.drain(rows.clone());
        self.close_gap(row, rows);
        Some(retired)
    }

    /// Renumbers every reference to a row past the removed VM row `row`
    /// and vCPU rows `gone`: each moves up by what was removed before
    /// it, so every list keeps its order and every timer its stamp.
    #[cold]
    fn close_gap(&mut self, row: usize, gone: std::ops::Range<usize>) {
        let shift = |v: &mut usize| {
            if *v >= gone.end {
                *v -= gone.len();
            }
        };
        for later in &mut self.vms[row..] {
            later.first_vcpu -= gone.len();
        }
        for vc in &mut self.vcpus[gone.start..] {
            vc.vm_row -= 1;
        }
        for pc in &mut self.pcpus {
            if let Some(v) = &mut pc.current {
                shift(v);
            }
            pc.queue.iter_mut().for_each(shift);
            pc.members.iter_mut().for_each(shift);
        }
        self.timers.retag(|timer| {
            if let Timer::Wake(v) = timer {
                shift(v);
            }
        });
    }

    /// Runs the simulation until `deadline`, processing all events due by
    /// then. Time never moves backwards; a past deadline is a no-op.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((time, timer)) = self.timers.pop_due(deadline) {
            debug_assert!(time >= self.now, "event from the past");
            self.now = time;
            match timer {
                Timer::Tick => self.on_tick(),
                Timer::Accounting => self.on_accounting(),
                Timer::ComputeDone(p) => self.on_compute_done(p),
                Timer::SliceExpired(p) => self.on_slice_expired(p),
                Timer::Wake(v) => self.wake_vcpu(v, WakeReason::Timer),
            }
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Runs the simulation for `duration_us` more microseconds.
    pub fn run_for(&mut self, duration_us: u64) {
        let deadline = self.now + duration_us;
        self.run_until(deadline);
    }

    /// Like [`Self::run_until`], but a *quiescent* server — nothing
    /// running, nothing runnable, and no timer wake due within the
    /// window — is fast-forwarded in O(pCPUs + live vCPUs) instead of
    /// O(elapsed ticks). The fast path is exactly equivalent to eager
    /// processing: periodic tick/accounting events are no-ops on an idle
    /// machine except for the credit refill of blocked vCPUs, which is
    /// applied in closed form (the per-period share is constant while no
    /// state changes, so `n` clamped refills equal one
    /// `min(cap, credits + n·share)`).
    ///
    /// Falls back to [`Self::run_until`] whenever the preconditions do not
    /// hold, so callers may use this unconditionally.
    pub fn run_until_lazy(&mut self, deadline: SimTime) {
        if deadline > self.now && self.try_leap(deadline) {
            return;
        }
        self.run_until(deadline);
    }

    /// Whether some pCPU runs or queues a vCPU: a busy server cannot leap
    /// (see [`Self::run_until_lazy`]), so catching it up costs every pop
    /// in between.
    pub fn is_busy(&self) -> bool {
        self.pcpus
            .iter()
            .any(|pc| pc.current.is_some() || !pc.queue.is_empty())
    }

    /// Attempts the quiescent fast-forward to `deadline`. Returns `false`
    /// (with all state untouched) when the server is not provably idle for
    /// the whole window.
    ///
    /// Slot liveness makes the precondition cheap: with nothing running,
    /// no compute or slice timer is armed, and a wake slot is armed only
    /// while its vCPU is `Blocked` (an IPI, suspension or termination
    /// disarms it), so the only timers a leap can meet are the periodic
    /// ones and wakes that would really fire.
    ///
    /// Event-order preservation: timers the window does not reach are
    /// not touched and keep their stamp — under eager processing they
    /// were all armed before the window. A periodic timer that would
    /// have fired inside the window is moved to its *last* firing there,
    /// stamp kept, and those last firings are then replayed as what they
    /// are on an idle machine, bare re-arms: earliest last firing first,
    /// ties in pop order (timers of one period that tie share one due
    /// time, so their stamps are their pop order). That is the order in
    /// which eager processing would have re-armed them.
    fn try_leap(&mut self, deadline: SimTime) -> bool {
        let params = self.params;
        if params.tick_us == 0 || params.acct_period_us == 0 || params.credits_per_acct < 0 {
            return false;
        }
        if self.is_busy() {
            return false;
        }
        let wake_in_window = |&v: &usize| {
            self.timers
                .due(self.vcpus[v].wake)
                .is_some_and(|due| due <= deadline)
        };
        if self
            .pcpus
            .iter()
            .any(|pc| pc.members.iter().any(wake_in_window))
        {
            return false;
        }
        // Moves a periodic timer to its last firing inside the window and
        // returns how many firings the window holds.
        let mut skip_to_last = |slot: usize, period: u64| -> u64 {
            let Some(due) = self.timers.due(slot).filter(|&due| due <= deadline) else {
                return 0;
            };
            let skipped = deadline.duration_since(due) / period;
            self.timers.postpone(slot, due + skipped * period);
            skipped + 1
        };
        skip_to_last(self.tick, params.tick_us);
        let acct_firings = skip_to_last(self.accounting, params.acct_period_us);
        while let Some((fired, timer)) = self.timers.pop_due(deadline) {
            match timer {
                Timer::Tick => self.timers.arm(self.tick, fired + params.tick_us),
                Timer::Accounting => self
                    .timers
                    .arm(self.accounting, fired + params.acct_period_us),
                _ => unreachable!("{timer:?} armed on a quiescent server"),
            }
        }
        // Closed-form credit refill for the skipped accounting firings.
        // Schedulable here means Blocked (preconditions exclude the rest),
        // and blocked vCPUs do receive refills under eager processing.
        if acct_firings > 0 {
            let firings = i64::try_from(acct_firings).unwrap_or(i64::MAX);
            for pc in &self.pcpus {
                for_each_share(pc, &mut self.vcpus, &params, |vs, share| {
                    // share >= 0, so the floor clamp can never bind and n
                    // clamped steps collapse to a single min().
                    vs.credits = vs
                        .credits
                        .saturating_add(share.saturating_mul(firings))
                        .min(params.credit_cap);
                });
            }
        }
        self.now = deadline;
        true
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The row of the live VM `vm`.
    fn row_of(&self, vm: VmId) -> Option<usize> {
        self.vms.binary_search_by_key(&vm, |row| row.id).ok()
    }

    fn vcpu(&self, id: VcpuId) -> Option<&Vcpu> {
        let rows = self.vms[self.row_of(id.vm)?].vcpu_rows();
        (id.index < rows.len()).then(|| &self.vcpus[rows.start + id.index])
    }

    fn view(&self, v: usize) -> VcpuView {
        let vc = &self.vcpus[v];
        VcpuView {
            id: vc.id,
            now: self.now,
            cpu_time_us: vc.cpu_time_us(self.now),
        }
    }

    fn on_tick(&mut self) {
        let params = self.params;
        for cur in self.pcpus.iter().filter_map(|pc| pc.current) {
            let vs = &mut self.vcpus[cur].sched;
            // Sampled debiting (the exploitable Xen behaviour) unless
            // precise accounting charges actual runtime at deschedule.
            if !params.precise_accounting {
                vs.adjust_credits(-params.credits_per_tick, &params);
            }
            // Boost lasts at most until the next tick catches the vCPU.
            vs.boosted = false;
        }
        // Xen's tick only burns credits; it does not trigger a reschedule.
        // Preemption happens on wake tickling, blocking, or slice expiry —
        // this is what gives benign CPU-bound VMs their 30 ms usage
        // intervals (the paper's single benign histogram peak).
        self.timers.arm(self.tick, self.now + params.tick_us);
    }

    fn on_accounting(&mut self) {
        let params = self.params;
        for pc in &mut self.pcpus {
            // Weight-proportional refill over the schedulable vCPUs
            // pinned here, then the run queue re-sorted by the (possibly
            // changed) priorities, stably and in place.
            for_each_share(pc, &mut self.vcpus, &params, |vs, share| {
                vs.adjust_credits(share, &params)
            });
            let vcpus = &self.vcpus;
            pc.queue
                .make_contiguous()
                .sort_by_key(|&v| vcpus[v].sched.effective_priority());
        }
        // Like the tick, accounting does not force a reschedule; the new
        // priorities take effect at the next natural scheduling point.
        self.timers
            .arm(self.accounting, self.now + params.acct_period_us);
        // A pCPU left idle with newly runnable work should still dispatch.
        for p in 0..self.pcpus.len() {
            self.dispatch(p);
        }
    }

    fn on_compute_done(&mut self, p: usize) {
        let v = self.pcpus[p]
            .current
            .expect("compute timer on an idle pCPU");
        let vs = &mut self.vcpus[v].sched;
        vs.pending_compute_us = 0;
        if vs.yield_pending {
            // The yield quantum elapsed: requeue at the back of the class.
            vs.yield_pending = false;
            self.deschedule(v, DescheduleReason::Yielded, RunState::Runnable);
            self.enqueue(v);
            self.dispatch(p);
        } else if self.ask_driver(v) {
            self.arm_compute(p, v);
        } else {
            self.dispatch(p);
        }
    }

    fn on_slice_expired(&mut self, p: usize) {
        let v = self.pcpus[p].current.expect("slice timer on an idle pCPU");
        self.deschedule(v, DescheduleReason::SliceExpired, RunState::Runnable);
        self.enqueue(v);
        self.dispatch(p);
    }

    /// Removes a runnable vCPU from its pCPU queue.
    fn remove_from_queue(&mut self, v: usize) {
        let p = self.vcpus[v].sched.pcpu.0;
        self.pcpus[p].queue.retain(|&o| o != v);
    }

    /// Inserts a runnable vCPU into its queue, FIFO within priority class.
    fn enqueue(&mut self, v: usize) {
        let vs = &self.vcpus[v].sched;
        let prio = vs.effective_priority();
        let queue = &mut self.pcpus[vs.pcpu.0].queue;
        let pos = queue
            .iter()
            .position(|&o| self.vcpus[o].sched.effective_priority() > prio)
            .unwrap_or(queue.len());
        queue.insert(pos, v);
    }

    /// If the queue head outranks the running vCPU (or the pCPU is idle),
    /// switch.
    fn preempt_check(&mut self, p: usize) {
        let pc = &self.pcpus[p];
        if let (Some(cur), Some(&head)) = (pc.current, pc.queue.front()) {
            let prio = |v: usize| self.vcpus[v].sched.effective_priority();
            if prio(head) >= prio(cur) {
                return;
            }
            self.deschedule(cur, DescheduleReason::Preempted, RunState::Runnable);
            self.vms[self.vcpus[cur].vm_row].counters.preemptions += 1;
            self.enqueue(cur);
        }
        self.dispatch(p);
    }

    /// Fills an idle pCPU from its run queue.
    fn dispatch(&mut self, p: usize) {
        while self.pcpus[p].current.is_none() {
            let Some(next) = self.pcpus[p].queue.pop_front() else {
                return;
            };
            self.schedule_in(p, next);
        }
    }

    fn schedule_in(&mut self, p: usize, v: usize) {
        debug_assert!(self.pcpus[p].current.is_none());
        let now = self.now;
        let vc = &mut self.vcpus[v];
        debug_assert_eq!(vc.sched.state, RunState::Runnable);
        vc.sched.state = RunState::Running { since: now };
        vc.sched.compute_started = now;
        self.pcpus[p].current = Some(v);
        self.vms[vc.vm_row].counters.schedules += 1;
        if vc.sched.pending_compute_us == 0 {
            if vc.driver.is_none() {
                // `v` is inside its own `ask_driver` further up the stack:
                // it sent an IPI, the woken sibling took this pCPU and gave
                // it straight back. That interaction carries on and arms
                // the compute timer; the new stint only needs its slice.
                self.timers
                    .arm(self.pcpus[p].slice, now + self.params.slice_us);
                return;
            }
            if !self.ask_driver(v) {
                // The driver immediately gave up the CPU; the caller's
                // dispatch loop will pick the next vCPU.
                return;
            }
        }
        self.arm_compute(p, v);
        self.timers
            .arm(self.pcpus[p].slice, now + self.params.slice_us);
    }

    /// Arms `p`'s compute deadline for the request `v` runs. A request
    /// that outlasts the clock — `Compute { duration_us: u64::MAX }`, a
    /// commitment to compute until descheduled, for ever — arms nothing:
    /// it can never complete, so its driver is never asked again.
    /// `deschedule` only ever subtracts run time from it, so neither can
    /// the remainder it resumes with.
    fn arm_compute(&mut self, p: usize, v: usize) {
        let pending = self.vcpus[v].sched.pending_compute_us;
        if let Some(due) = self
            .now
            .as_micros()
            .checked_add(pending)
            .filter(|&due| due < u64::MAX)
        {
            self.timers
                .arm(self.pcpus[p].compute, SimTime::from_micros(due));
        }
    }

    /// Interacts with the vCPU's driver until it commits to an action that
    /// consumes time. Returns `true` if the vCPU is still running with
    /// `pending_compute_us > 0`.
    fn ask_driver(&mut self, v: usize) -> bool {
        let mut driver = self.vcpus[v].driver.take().expect("driver is home");
        let (id, vm_row) = (self.vcpus[v].id, self.vcpus[v].vm_row);
        let mut still_running = false;
        let mut budget = DRIVER_ACTION_BUDGET;
        loop {
            if budget == 0 {
                self.vcpus[v].driver = Some(driver);
                panic!("driver livelock: {id} issued too many zero-time actions");
            }
            budget -= 1;
            let view = self.view(v);
            match driver.next_action(&view) {
                VcpuAction::Compute { duration_us } => {
                    if duration_us == 0 {
                        continue;
                    }
                    let vs = &mut self.vcpus[v].sched;
                    vs.pending_compute_us = duration_us;
                    vs.compute_started = self.now;
                    still_running = true;
                    break;
                }
                VcpuAction::SendIpi { target_index } => {
                    self.vms[vm_row].counters.ipis_sent += 1;
                    let siblings = self.vms[vm_row].vcpu_rows();
                    if target_index != id.index && target_index < siblings.len() {
                        self.wake_vcpu(siblings.start + target_index, WakeReason::Ipi);
                    }
                    // The wake may have preempted us.
                    if !matches!(self.vcpus[v].sched.state, RunState::Running { .. }) {
                        break;
                    }
                }
                VcpuAction::Block { duration_us } => {
                    self.deschedule(v, DescheduleReason::Blocked, RunState::Blocked);
                    self.vms[vm_row].counters.blocks += 1;
                    if let Some(d) = duration_us {
                        self.timers.arm(self.vcpus[v].wake, self.now + d);
                    }
                    break;
                }
                VcpuAction::Yield => {
                    // A yield costs a minimal quantum (1 us): even a
                    // driver that yields in a tight loop makes time
                    // progress instead of livelocking the dispatcher.
                    let vs = &mut self.vcpus[v].sched;
                    vs.pending_compute_us = 1;
                    vs.compute_started = self.now;
                    vs.yield_pending = true;
                    still_running = true;
                    break;
                }
                VcpuAction::Halt => {
                    self.deschedule(v, DescheduleReason::Halted, RunState::Halted);
                    break;
                }
            }
        }
        self.vcpus[v].driver = Some(driver);
        still_running
    }

    /// Takes the running vCPU off its pCPU, records the run segment,
    /// moves it to `new_state` and disarms the pCPU's two run timers.
    fn deschedule(&mut self, v: usize, reason: DescheduleReason, new_state: RunState) {
        let (now, params) = (self.now, self.params);
        let vc = &mut self.vcpus[v];
        let vs = &mut vc.sched;
        let RunState::Running { since } = vs.state else {
            panic!("deschedule of non-running vcpu {}", vc.id);
        };
        let ran = now.duration_since(since);
        vs.cpu_time_us += ran;
        if params.precise_accounting {
            let debit =
                (ran as i128 * params.credits_per_tick as i128 / params.tick_us as i128) as i64;
            vs.adjust_credits(-debit, &params);
        }
        if vs.pending_compute_us > 0 {
            let batch_ran = now.duration_since(vs.compute_started);
            vs.pending_compute_us = vs.pending_compute_us.saturating_sub(batch_ran);
        }
        vs.state = new_state;
        // Boost survives preemption/suspension; any voluntary or
        // scheduler-forced deschedule clears it.
        if !matches!(
            reason,
            DescheduleReason::Preempted | DescheduleReason::Stopped
        ) {
            vs.boosted = false;
        }
        if ran > 0 {
            self.vms[vc.vm_row].window.record(ran);
            if let Some(log) = &mut self.segment_log {
                log_segment(
                    log,
                    RunSegment {
                        vcpu: vc.id,
                        pcpu: vs.pcpu,
                        start: since,
                        end: now,
                        reason,
                    },
                );
            }
        }
        let pc = &mut self.pcpus[vs.pcpu.0];
        debug_assert_eq!(pc.current, Some(v));
        pc.current = None;
        self.timers.disarm(pc.compute);
        self.timers.disarm(pc.slice);
    }

    /// Wakes a blocked vCPU, applying the BOOST rule, and preempts if it
    /// now outranks the running vCPU on its pCPU.
    fn wake_vcpu(&mut self, v: usize, reason: WakeReason) {
        let vc = &mut self.vcpus[v];
        if vc.sched.state != RunState::Blocked {
            return;
        }
        // An IPI beat the sleep timer to it (a no-op for the timer itself).
        self.timers.disarm(vc.wake);
        vc.sched.state = RunState::Runnable;
        vc.sched.boosted = self.params.boost_enabled && vc.sched.credits >= 0;
        let counters = &mut self.vms[vc.vm_row].counters;
        counters.wakeups += 1;
        if vc.sched.boosted {
            counters.boosts += 1;
        }
        // Notify the driver (its next_action will be asked when scheduled).
        let view = self.view(v);
        if let Some(mut driver) = self.vcpus[v].driver.take() {
            driver.on_wake(&view, reason);
            self.vcpus[v].driver = Some(driver);
        }
        self.enqueue(v);
        self.preempt_check(self.vcpus[v].sched.pcpu.0);
    }
}

/// The opt-in log's push, kept off the event path's inlined body.
#[cold]
fn log_segment(log: &mut Vec<RunSegment>, segment: RunSegment) {
    log.push(segment);
}

/// Calls `credit(vcpu, share)` for every schedulable vCPU pinned to `pc`
/// with its weight-proportional share of one accounting period's credits.
fn for_each_share(
    pc: &Pcpu,
    vcpus: &mut [Vcpu],
    params: &SchedParams,
    mut credit: impl FnMut(&mut SchedVcpu, i64),
) {
    let schedulable = |vcpus: &[Vcpu], v: usize| vcpus[v].sched.is_schedulable();
    let total_weight: u64 = pc
        .members
        .iter()
        .filter(|&&v| schedulable(vcpus, v))
        .map(|&v| vcpus[v].sched.weight as u64)
        .sum();
    if total_weight == 0 {
        return;
    }
    for &v in &pc.members {
        if schedulable(vcpus, v) {
            let vs = &mut vcpus[v].sched;
            let share =
                (params.credits_per_acct as i128 * vs.weight as i128 / total_weight as i128) as i64;
            credit(vs, share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{shared, BusyLoop, IdleDriver, ScriptedDriver, Shared};
    use crate::time::{MS, SEC};

    fn busy_vm(sim: &mut ServerSim, name: &str, pcpu: usize) -> VmId {
        sim.create_vm(VmConfig::new(name, vec![Box::new(BusyLoop)]).pin(vec![PcpuId(pcpu)]))
    }

    #[test]
    fn solo_busy_vm_gets_full_cpu() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let vm = busy_vm(&mut sim, "solo", 0);
        assert_eq!(sim.relative_cpu_usage(vm), 0.0, "an empty window");
        sim.run_until(SimTime::from_secs(1));
        // The in-progress run segment (up to 30 ms) is not yet recorded,
        // so allow a small shortfall.
        let usage = sim.relative_cpu_usage(vm);
        assert!(usage > 0.95, "usage = {usage}");
    }

    #[test]
    fn two_busy_vms_share_fairly() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let a = busy_vm(&mut sim, "a", 0);
        let b = busy_vm(&mut sim, "b", 0);
        sim.run_until(SimTime::from_secs(3));
        let ua = sim.relative_cpu_usage(a);
        let ub = sim.relative_cpu_usage(b);
        assert!((ua - 0.5).abs() < 0.05, "a = {ua}");
        assert!((ub - 0.5).abs() < 0.05, "b = {ub}");
    }

    #[test]
    fn weights_bias_the_share() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let heavy = sim.create_vm(
            VmConfig::new("heavy", vec![Box::new(BusyLoop)])
                .weight(512)
                .pin(vec![PcpuId(0)]),
        );
        let light = sim.create_vm(
            VmConfig::new("light", vec![Box::new(BusyLoop)])
                .weight(256)
                .pin(vec![PcpuId(0)]),
        );
        sim.run_until(SimTime::from_secs(5));
        let uh = sim.relative_cpu_usage(heavy);
        let ul = sim.relative_cpu_usage(light);
        assert!(uh > ul, "heavy {uh} should beat light {ul}");
        assert!((uh / ul - 2.0).abs() < 0.5, "ratio = {}", uh / ul);
    }

    #[test]
    fn benign_busy_vm_runs_full_slices() {
        // Under contention, a CPU-bound VM's usage intervals cluster at
        // the 30 ms slice length — the paper's benign single peak.
        let mut sim = ServerSim::new(1, SchedParams::default());
        let a = busy_vm(&mut sim, "a", 0);
        let _b = busy_vm(&mut sim, "b", 0);
        sim.run_until(SimTime::from_secs(5));
        let hist = sim.interval_registers(a);
        let total: u64 = hist.iter().sum();
        assert!(total > 0);
        assert!(
            hist[29] as f64 / total as f64 > 0.8,
            "expected dominant 30ms bin, got {hist:?}"
        );
    }

    #[test]
    fn window_reset_zeroes_the_registers_and_the_log() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        sim.set_segment_logging(true);
        let a = busy_vm(&mut sim, "a", 0);
        let _b = busy_vm(&mut sim, "b", 0);
        sim.run_until(SimTime::from_millis(100));
        assert!(sim.window_cpu_time_us(a) > 0);
        let counters = sim.counters(a);
        sim.reset_window();
        assert_eq!(sim.window_cpu_time_us(a), 0);
        assert_eq!(sim.interval_registers(a), &[0; INTERVAL_BINS]);
        assert!(sim.segments().is_empty());
        assert_eq!(sim.counters(a), counters, "the PMU is not windowed");
        sim.run_until(SimTime::from_millis(400));
        let usage = sim.relative_cpu_usage(a);
        assert!((usage - 0.5).abs() < 0.1, "usage = {usage}");
    }

    #[test]
    fn segment_log_is_opt_in_and_changes_no_count() {
        let run = |logging: bool| {
            let mut sim = ServerSim::new(1, SchedParams::default());
            sim.set_segment_logging(logging);
            let vms = [busy_vm(&mut sim, "a", 0), busy_vm(&mut sim, "b", 0)];
            sim.run_until(SimTime::from_millis(300));
            let logged = logging.then(|| sim.vm_segments(vms[0]).count());
            let seen = vms.map(|vm| {
                let registers = *sim.interval_registers(vm);
                (sim.window_cpu_time_us(vm), registers, sim.counters(vm))
            });
            (sim, logged, seen)
        };
        let (mut on, logged, seen_on) = run(true);
        let (_, _, seen_off) = run(false);
        assert_eq!(seen_on, seen_off);
        let registers = seen_on[0].1.iter().sum::<u64>() as usize;
        assert_eq!(logged, Some(registers), "one logged segment per count");
        on.set_segment_logging(false);
        assert!(on.segment_log.is_none());
    }

    #[test]
    #[should_panic(expected = "segment log is off")]
    fn reading_a_segment_log_that_is_off_panics() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        busy_vm(&mut sim, "a", 0);
        sim.run_until(SimTime::from_millis(100));
        let _ = sim.segments();
    }

    #[test]
    fn timer_block_wakes_on_time() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let log: Shared<Vec<u64>> = shared(Vec::new());

        struct Sleeper {
            log: Shared<Vec<u64>>,
            rounds: usize,
        }
        impl WorkloadDriver for Sleeper {
            fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
                self.log.borrow_mut().push(view.now.as_micros());
                if self.rounds == 0 {
                    return VcpuAction::Halt;
                }
                self.rounds -= 1;
                VcpuAction::Block {
                    duration_us: Some(5 * MS),
                }
            }
        }
        sim.create_vm(VmConfig::new(
            "sleeper",
            vec![Box::new(Sleeper {
                log: log.clone(),
                rounds: 3,
            })],
        ));
        sim.run_until(SimTime::from_millis(100));
        let times = log.borrow().clone();
        assert_eq!(times, vec![0, 5_000, 10_000, 15_000]);
    }

    #[test]
    fn boost_wake_preempts_busy_vm() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let busy = busy_vm(&mut sim, "busy", 0);
        let waker_log: Shared<Vec<u64>> = shared(Vec::new());

        struct PeriodicWaker {
            log: Shared<Vec<u64>>,
            compute_next: bool,
        }
        impl WorkloadDriver for PeriodicWaker {
            fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
                // Run 1ms immediately after each wake, then sleep 7ms.
                self.compute_next = !self.compute_next;
                if self.compute_next {
                    VcpuAction::Compute { duration_us: 1_000 }
                } else {
                    self.log.borrow_mut().push(view.now.as_micros());
                    VcpuAction::Block {
                        duration_us: Some(7 * MS),
                    }
                }
            }
        }
        let waker = sim.create_vm(
            VmConfig::new(
                "waker",
                vec![Box::new(PeriodicWaker {
                    log: waker_log,
                    compute_next: false,
                })],
            )
            .pin(vec![PcpuId(0)]),
        );
        sim.run_until(SimTime::from_secs(2));
        // The waker wakes every ~8ms and must run promptly thanks to
        // boost: its share is ~1/8 even though the busy VM never yields.
        let uw = sim.relative_cpu_usage(waker);
        assert!(uw > 0.10, "waker usage = {uw}");
        assert!(sim.counters(waker).boosts > 100);
        let ub = sim.relative_cpu_usage(busy);
        assert!(ub > 0.8, "busy usage = {ub}");
    }

    #[test]
    fn boost_shortens_wake_latency() {
        // A vCPU that blocks at t=0 and wakes at t=5ms while an equally
        // in-credit busy VM holds the CPU: with BOOST it preempts at 5ms;
        // without, the wake tickle compares UNDER vs UNDER and does not
        // preempt, so the waker waits for the busy VM's full 30ms slice.
        // Deterministic timestamps make the difference exact.
        let first_compute_at = |params: SchedParams| -> u64 {
            let mut sim = ServerSim::new(1, params);
            let log: Shared<Vec<u64>> = shared(Vec::new());
            struct Waker {
                log: Shared<Vec<u64>>,
                step: usize,
            }
            impl WorkloadDriver for Waker {
                fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
                    self.step += 1;
                    match self.step {
                        1 => VcpuAction::Block {
                            duration_us: Some(5 * MS),
                        },
                        2 => {
                            self.log.borrow_mut().push(view.now.as_micros());
                            VcpuAction::Compute { duration_us: 1_000 }
                        }
                        _ => VcpuAction::Halt,
                    }
                }
            }
            // Waker first so it owns the pCPU at t=0 and can block.
            sim.create_vm(
                VmConfig::new(
                    "waker",
                    vec![Box::new(Waker {
                        log: log.clone(),
                        step: 0,
                    })],
                )
                .pin(vec![PcpuId(0)]),
            );
            busy_vm(&mut sim, "busy", 0);
            sim.run_until(SimTime::from_millis(100));
            let times = log.borrow().clone();
            times[0]
        };
        assert_eq!(first_compute_at(SchedParams::default()), 5_000);
        assert_eq!(first_compute_at(SchedParams::without_boost()), 30_000);
    }

    #[test]
    fn ipi_wakes_sibling_vcpu() {
        let mut sim = ServerSim::new(2, SchedParams::default());
        let woken: Shared<Vec<u64>> = shared(Vec::new());

        struct IpiReceiver {
            woken: Shared<Vec<u64>>,
        }
        impl WorkloadDriver for IpiReceiver {
            fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
                VcpuAction::Block { duration_us: None }
            }
            fn on_wake(&mut self, view: &VcpuView, reason: WakeReason) {
                assert_eq!(reason, WakeReason::Ipi);
                self.woken.borrow_mut().push(view.now.as_micros());
            }
        }
        sim.create_vm(
            VmConfig::new(
                "pair",
                vec![
                    Box::new(ScriptedDriver::new([
                        VcpuAction::Compute { duration_us: 3_000 },
                        VcpuAction::SendIpi { target_index: 1 },
                    ])),
                    Box::new(IpiReceiver {
                        woken: woken.clone(),
                    }),
                ],
            )
            .pin(vec![PcpuId(0), PcpuId(1)]),
        );
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(woken.borrow().clone(), vec![3_000]);
    }

    #[test]
    fn ipi_after_sender_continues() {
        // The sender keeps running after the IPI because it out-prioritizes
        // nothing on its own pCPU.
        let mut sim = ServerSim::new(2, SchedParams::default());
        let vm = sim.create_vm(
            VmConfig::new(
                "pair",
                vec![
                    Box::new(ScriptedDriver::new([
                        VcpuAction::Compute { duration_us: 1_000 },
                        VcpuAction::SendIpi { target_index: 1 },
                        VcpuAction::Compute { duration_us: 1_000 },
                    ])),
                    Box::new(IdleDriver),
                ],
            )
            .pin(vec![PcpuId(0), PcpuId(1)]),
        );
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(
            sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 }),
            2_000,
            "sender should finish both compute batches"
        );
        assert_eq!(sim.counters(vm).ipis_sent, 1);
    }

    #[test]
    fn ipi_bounce_resumes_the_sender() {
        // Regression: the sender is preempted inside its own driver
        // interaction by the sibling its IPI woke, and the sibling hands
        // the pCPU straight back. The sender must carry on with its next
        // action (this used to panic with "driver exists").
        let mut sim = ServerSim::new(1, SchedParams::default());
        let vm = sim.create_vm(
            VmConfig::new(
                "pair",
                vec![
                    // The sleep lets the receiver block first; the long
                    // compute crosses a tick, which debits the sender
                    // into OVER so that the boosted receiver outranks it.
                    Box::new(ScriptedDriver::new([
                        VcpuAction::Block {
                            duration_us: Some(100),
                        },
                        VcpuAction::Compute {
                            duration_us: 15_000,
                        },
                        VcpuAction::SendIpi { target_index: 1 },
                        VcpuAction::Compute { duration_us: 1_000 },
                    ])),
                    Box::new(IdleDriver),
                ],
            )
            .pin(vec![PcpuId(0), PcpuId(0)]),
        );
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 }), 16_000);
        let counters = sim.counters(vm);
        assert_eq!(counters.ipis_sent, 1);
        assert_eq!(counters.preemptions, 1);
        assert_eq!(counters.boosts, 2, "the sender's wake, then the receiver's");
    }

    #[test]
    fn terminated_vm_leaves_nothing_behind() {
        struct Sleeper(Shared<u64>);
        impl WorkloadDriver for Sleeper {
            fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
                *self.0.borrow_mut() += 1;
                VcpuAction::Block {
                    duration_us: Some(5 * MS),
                }
            }
        }
        let mut sim = ServerSim::new(1, SchedParams::default());
        let asked = shared(0);
        let vm = sim.create_vm(VmConfig::new(
            "sleeper",
            vec![Box::new(Sleeper(asked.clone()))],
        ));
        let id = VcpuId { vm, index: 0 };
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.schedulable_vcpus_on(PcpuId(0)), 1);
        assert!(format!("{sim:?}").contains("live_timers: 3"), "{sim:?}");

        let retired = sim.retire_vm(vm).expect("a live VM");
        // The driver is dropped, the wake is disarmed, contention no
        // longer counts the vCPU, and the server is quiescent.
        assert_eq!(Shared::strong_count(&asked), 1);
        assert!(format!("{sim:?}").contains("live_timers: 2"), "{sim:?}");
        assert_eq!(sim.schedulable_vcpus_on(PcpuId(0)), 0);
        assert!(sim.try_leap(SimTime::from_secs(1)));
        assert_eq!(*asked.borrow(), 1);
        // What it showed is handed back, and no row answers for it.
        assert_eq!(retired.counters.blocks, 1);
        assert_eq!(
            retired.vcpus,
            vec![RetiredVcpu {
                pcpu: PcpuId(0),
                cpu_time_us: 0,
                credits: 0,
            }]
        );
        assert!(sim.vm(vm).is_none());
        assert!(sim.vm_ids().is_empty());
        assert!(sim.vms.is_empty() && sim.vcpus.is_empty());
        assert_eq!(sim.window_cpu_time_us(vm), 0);
        assert_eq!(sim.counters(vm), VmCounters::default());
        assert_eq!(sim.interval_registers(vm), &[0; INTERVAL_BINS]);
        assert_eq!(sim.vcpu_pcpu(id), None);
        assert!(sim.pcpus.iter().all(|pc| pc.members.is_empty()));
        assert_eq!(sim.retire_vm(vm), None, "terminating twice is a no-op");

        // A later VM takes a fresh id and reuses the released wake slot:
        // the tables are as long as what is alive, not as the server's
        // history.
        let next = sim.create_vm(VmConfig::new("next", vec![Box::new(IdleDriver)]));
        assert_eq!(next, VmId(1));
        assert_eq!(
            sim.vcpus[0].wake, 4,
            "tick, accounting, compute, slice, wake"
        );
        assert_eq!(sim.vm_ids(), vec![next]);
    }

    #[test]
    fn later_rows_move_up_in_order() {
        // Three two-vCPU VMs on two pCPUs; the middle one terminates
        // while the others run, sleep and queue. The survivors' rows move
        // up, and every reference to them with it: they run on exactly
        // as they would have beside a VM that merely stopped.
        let run = |terminate: bool| {
            let mut sim = ServerSim::new(2, SchedParams::default());
            let sleeper = || -> Box<dyn WorkloadDriver> {
                Box::new(ScriptedDriver::new([
                    VcpuAction::Compute { duration_us: 3_000 },
                    VcpuAction::Block {
                        duration_us: Some(4_000),
                    },
                    VcpuAction::SendIpi { target_index: 1 },
                    VcpuAction::Compute { duration_us: 2_000 },
                    VcpuAction::Block {
                        duration_us: Some(9_000),
                    },
                    VcpuAction::Compute { duration_us: 5_000 },
                ]))
            };
            let vms: Vec<VmId> = (0..3)
                .map(|i| {
                    sim.create_vm(VmConfig::new(
                        &format!("vm-{i}"),
                        vec![Box::new(BusyLoop), sleeper()],
                    ))
                })
                .collect();
            sim.run_until(SimTime::from_millis(7));
            if terminate {
                sim.terminate_vm(vms[1]);
            } else {
                sim.suspend_vm(vms[1]);
            }
            sim.run_until(SimTime::from_millis(200));
            [vms[0], vms[2]].map(|vm| {
                let c = sim.counters(vm);
                let cpu = |index| sim.vcpu_cpu_time_us(VcpuId { vm, index });
                (cpu(0), cpu(1), c.schedules, c.wakeups, c.ipis_sent)
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn halt_stops_consuming() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let vm = sim.create_vm(VmConfig::new(
            "short",
            vec![Box::new(ScriptedDriver::new([VcpuAction::Compute {
                duration_us: 5_000,
            }]))],
        ));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 }), 5_000);
    }

    #[test]
    fn suspend_resume_roundtrip() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let vm = busy_vm(&mut sim, "v", 0);
        sim.run_until(SimTime::from_millis(100));
        sim.suspend_vm(vm);
        let t_suspend = sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 });
        sim.run_until(SimTime::from_millis(300));
        assert_eq!(
            sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 }),
            t_suspend,
            "suspended VM must not consume CPU"
        );
        sim.resume_vm(vm);
        sim.run_until(SimTime::from_millis(400));
        assert!(sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 }) > t_suspend);
        assert_eq!(sim.vm(vm).unwrap().state, VmState::Running);
    }

    #[test]
    fn terminate_is_permanent() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let vm = busy_vm(&mut sim, "v", 0);
        sim.run_until(SimTime::from_millis(50));
        let retired = sim.retire_vm(vm).expect("a live VM");
        assert_eq!(retired.vcpus[0].cpu_time_us, 50_000);
        sim.resume_vm(vm); // must be a no-op
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.vm(vm).is_none());
        assert_eq!(sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 }), 0);
        assert!(!sim.is_busy());
    }

    #[test]
    fn yield_loop_cannot_livelock() {
        // Regression: a driver that yields forever must not freeze the
        // dispatcher at one instant — each yield costs a minimal quantum.
        struct YieldForever;
        impl WorkloadDriver for YieldForever {
            fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
                VcpuAction::Yield
            }
        }
        let mut sim = ServerSim::new(1, SchedParams::default());
        let spinner = sim
            .create_vm(VmConfig::new("spinner", vec![Box::new(YieldForever)]).pin(vec![PcpuId(0)]));
        let coworker = busy_vm(&mut sim, "coworker", 0);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.now(), SimTime::from_millis(100));
        // The yielding VM consumed its 1us quanta; the busy VM got real
        // time too.
        assert!(
            sim.vcpu_cpu_time_us(VcpuId {
                vm: spinner,
                index: 0
            }) > 0
        );
        assert!(
            sim.vcpu_cpu_time_us(VcpuId {
                vm: coworker,
                index: 0
            }) > 10_000
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = ServerSim::new(2, SchedParams::default());
            sim.set_segment_logging(true);
            let a = busy_vm(&mut sim, "a", 0);
            let _b = busy_vm(&mut sim, "b", 0);
            let _c = busy_vm(&mut sim, "c", 1);
            sim.run_until(SimTime::from_secs(2));
            (
                sim.vcpu_cpu_time_us(VcpuId { vm: a, index: 0 }),
                sim.segments().len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_is_monotonic() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        sim.run_until(SimTime::from_millis(10));
        sim.run_until(SimTime::from_millis(5)); // past deadline: no-op
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.run_for(5 * MS);
        assert_eq!(sim.now(), SimTime::from_millis(15));
    }

    #[test]
    fn multi_pcpu_isolation() {
        let mut sim = ServerSim::new(2, SchedParams::default());
        let a = busy_vm(&mut sim, "a", 0);
        let b = busy_vm(&mut sim, "b", 1);
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.relative_cpu_usage(a) > 0.95);
        assert!(sim.relative_cpu_usage(b) > 0.95);
    }

    #[test]
    #[should_panic(expected = "need at least one pCPU")]
    fn zero_pcpus_rejected() {
        let _ = ServerSim::new(0, SchedParams::default());
    }

    #[test]
    #[should_panic(expected = "pin out of range")]
    fn bad_pin_rejected() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let _ = sim.create_vm(VmConfig::new("x", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(5)]));
    }

    #[test]
    fn cpu_time_of_unknown_vcpu_is_zero() {
        let sim = ServerSim::new(1, SchedParams::default());
        assert_eq!(
            sim.vcpu_cpu_time_us(VcpuId {
                vm: VmId(99),
                index: 0
            }),
            0
        );
    }

    #[test]
    fn lazy_leap_matches_eager_credit_refill() {
        // Two blocked vCPUs with unequal weights under a high credit cap:
        // the leap's closed-form refill must equal three eager accounting
        // firings exactly.
        let params = SchedParams {
            credit_cap: 10_000,
            ..SchedParams::default()
        };
        let build = |eager: bool| {
            let mut sim = ServerSim::new(1, params);
            let a = sim.create_vm(
                VmConfig::new("a", vec![Box::new(IdleDriver)])
                    .weight(512)
                    .pin(vec![PcpuId(0)]),
            );
            let b = sim.create_vm(
                VmConfig::new("b", vec![Box::new(IdleDriver)])
                    .weight(256)
                    .pin(vec![PcpuId(0)]),
            );
            // Short eager prefix: both vCPUs block immediately at t=0.
            sim.run_until(SimTime::from_millis(1));
            if eager {
                sim.run_until(SimTime::from_millis(100));
            } else {
                sim.run_until_lazy(SimTime::from_millis(100));
            }
            let credits = |vm| sim.vcpu_credits(VcpuId { vm, index: 0 }).unwrap();
            (credits(a), credits(b), sim.now(), sim.timers.live())
        };
        let eager = build(true);
        let lazy = build(false);
        assert_eq!(eager, lazy);
        // 3 firings (30/60/90ms) of shares 200 and 100.
        assert_eq!(lazy.0, 600);
        assert_eq!(lazy.1, 300);
    }

    #[test]
    fn lazy_leap_keeps_future_wakes_on_time() {
        // A wake due after the leap window must survive the leap and fire
        // at exactly the eager instant.
        let run = |lazy: bool| {
            let mut sim = ServerSim::new(1, SchedParams::default());
            let log: Shared<Vec<u64>> = shared(Vec::new());
            struct LongSleeper {
                log: Shared<Vec<u64>>,
                rounds: usize,
            }
            impl WorkloadDriver for LongSleeper {
                fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
                    self.log.borrow_mut().push(view.now.as_micros());
                    if self.rounds == 0 {
                        return VcpuAction::Halt;
                    }
                    self.rounds -= 1;
                    VcpuAction::Block {
                        duration_us: Some(50 * MS),
                    }
                }
            }
            sim.create_vm(VmConfig::new(
                "sleeper",
                vec![Box::new(LongSleeper {
                    log: log.clone(),
                    rounds: 2,
                })],
            ));
            sim.run_until(SimTime::from_millis(1));
            if lazy {
                // Wake due at 50ms > 20ms: the leap may proceed but must
                // keep the wake.
                sim.run_until_lazy(SimTime::from_millis(20));
                assert_eq!(sim.now(), SimTime::from_millis(20));
            }
            sim.run_until(SimTime::from_millis(200));
            let wakes = log.borrow().clone();
            wakes
        };
        let eager = run(false);
        assert_eq!(eager, vec![0, 50_000, 100_000]);
        assert_eq!(run(true), eager);
    }

    #[test]
    fn lazy_leap_aborts_for_wake_inside_window() {
        // A wake due inside the window forces the eager path: the sleeper
        // wake schedule is unchanged.
        let mut sim = ServerSim::new(1, SchedParams::default());
        let log: Shared<Vec<u64>> = shared(Vec::new());
        struct Sleeper {
            log: Shared<Vec<u64>>,
            rounds: usize,
        }
        impl WorkloadDriver for Sleeper {
            fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
                self.log.borrow_mut().push(view.now.as_micros());
                if self.rounds == 0 {
                    return VcpuAction::Halt;
                }
                self.rounds -= 1;
                VcpuAction::Block {
                    duration_us: Some(5 * MS),
                }
            }
        }
        sim.create_vm(VmConfig::new(
            "sleeper",
            vec![Box::new(Sleeper {
                log: log.clone(),
                rounds: 3,
            })],
        ));
        sim.run_until_lazy(SimTime::from_millis(100));
        assert_eq!(log.borrow().clone(), vec![0, 5_000, 10_000, 15_000]);
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn lazy_leap_falls_back_when_busy() {
        // Lazy chunked driving of a busy server must match one eager run.
        let run = |lazy: bool| {
            let mut sim = ServerSim::new(1, SchedParams::default());
            sim.set_segment_logging(true);
            let a = busy_vm(&mut sim, "a", 0);
            let _b = busy_vm(&mut sim, "b", 0);
            if lazy {
                for i in 1..=20 {
                    sim.run_until_lazy(SimTime::from_millis(100 * i));
                }
            } else {
                sim.run_until(SimTime::from_secs(2));
            }
            (
                sim.vcpu_cpu_time_us(VcpuId { vm: a, index: 0 }),
                sim.segments().len(),
                sim.now(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn lazy_leap_on_empty_server_stays_live() {
        // An empty server leaps over an hour, then hosts a VM normally —
        // the rebased tick/accounting events keep the scheduler working.
        let mut sim = ServerSim::new(2, SchedParams::default());
        sim.run_until_lazy(SimTime::from_secs(3600));
        assert_eq!(sim.now(), SimTime::from_secs(3600));
        let vm = busy_vm(&mut sim, "late", 0);
        sim.run_until(SimTime::from_secs(3601));
        let ran = sim.vcpu_cpu_time_us(VcpuId { vm, index: 0 });
        assert!(ran > 950_000, "ran only {ran}us of the post-leap second");
    }

    #[test]
    fn long_simulation_is_stable() {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let a = busy_vm(&mut sim, "a", 0);
        let _b = busy_vm(&mut sim, "b", 0);
        sim.run_until(SimTime::from_secs(30));
        let ua = sim.relative_cpu_usage(a);
        assert!((ua - 0.5).abs() < 0.02, "long-run share drifted: {ua}");
        assert_eq!(sim.now(), SimTime::from_secs(30));
        let _ = SEC; // keep the import used
    }
}
