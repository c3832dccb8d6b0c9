//! The workload driver interface: how guest code is modelled.
//!
//! Each vCPU is driven by a [`WorkloadDriver`]. Whenever the vCPU has
//! exhausted its previously requested compute time, the engine asks the
//! driver for its [`VcpuAction`]. Drivers observe only what real guest
//! code could observe: the current (wall-clock) simulation time and their
//! own accumulated CPU time — which is exactly what the paper's covert
//! channel receiver exploits to infer co-resident activity.
//!
//! ## The asking contract
//!
//! Every ask is an event: a `Compute` that completes is a timer the
//! engine pops, and the driver's next answer is decided there. So a
//! driver asks only as often as its answer can change.
//!
//! - A driver whose answer can never change asks once: [`BusyLoop`]
//!   answers `Compute { duration_us: u64::MAX }` at first schedule, the
//!   engine arms no deadline for it, and nothing re-asks it until the VM
//!   dies. Chunking such a driver would only add pops: a completed chunk
//!   answered by the same chunk again changes no run state, credit, boost,
//!   counter, segment or other timer, so the schedule is bit-identical
//!   either way (DESIGN §12.1).
//! - A compute that ends in an observable action (`Halt`, `Block`) keeps
//!   its chunking. The stamp drawn when its last chunk is armed decides
//!   which of two timers due at the same instant fires first — a tick
//!   debiting whichever vCPU is current, or another pCPU's burst end in
//!   the segment log — so coalescing the chunks is not provably exact
//!   (see `CpuProgram` in `monatt-workloads`).
//!
//! ## Threads
//!
//! A driver is `Send`, and so is the `ServerSim` that owns it: the cloud
//! may catch a busy server up on a scoped helper thread. A driver that
//! exports observations does so through a [`Shared`] handle, a lock the
//! owner and the driver never hold at once. One that publishes on every
//! ask, like a service's request count, uses a single-writer atomic
//! instead, because a lock per ask shows in the pop cost.

use crate::ids::VcpuId;
use crate::time::SimTime;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What a vCPU does next, as decided by its workload driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcpuAction {
    /// Occupy the CPU for this much *virtual* (on-CPU) time, then ask the
    /// driver again. Preemption transparently pauses and resumes the work.
    ///
    /// `u64::MAX` is a commitment: compute until descheduled, for ever.
    /// The engine arms no deadline for it and never asks the driver
    /// again. Answer it when no later answer could differ; a finite
    /// request is an event when it completes (see the module docs).
    Compute {
        /// On-CPU microseconds to consume; `u64::MAX` for ever.
        duration_us: u64,
    },
    /// Block (sleep). `Some(d)` sets a timer wake after `d` microseconds;
    /// `None` blocks indefinitely until an IPI arrives.
    Block {
        /// Timer duration, or `None` to wait for an IPI.
        duration_us: Option<u64>,
    },
    /// Send an inter-processor interrupt to the `target_index`-th vCPU of
    /// the same VM, then immediately ask the driver again. IPIs wake
    /// blocked vCPUs and trigger the credit scheduler's BOOST mechanism.
    SendIpi {
        /// Target vCPU index within this VM.
        target_index: usize,
    },
    /// Voluntarily yield the CPU (go to the back of the run queue) while
    /// remaining runnable.
    Yield,
    /// Stop executing permanently (the guest program finished).
    Halt,
}

/// Why a blocked vCPU woke up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeReason {
    /// A timer set by `Block { duration_us: Some(_) }` expired.
    Timer,
    /// Another vCPU sent an IPI.
    Ipi,
}

/// Read-only view the engine exposes to drivers — the information real
/// guest code could legitimately obtain.
#[derive(Clone, Copy, Debug)]
pub struct VcpuView {
    /// This vCPU's identity.
    pub id: VcpuId,
    /// Current simulation (wall-clock) time.
    pub now: SimTime,
    /// Total on-CPU time this vCPU has consumed, in microseconds.
    pub cpu_time_us: u64,
}

/// A guest workload. Implementations decide the compute/block/IPI pattern
/// of one vCPU. `Send`, because its server may be caught up on a helper
/// thread (see the module docs).
pub trait WorkloadDriver: Send {
    /// Called whenever the vCPU needs a new action: at first schedule, and
    /// after each completed `Compute`, `Block` wake, `Yield` re-schedule or
    /// `SendIpi`.
    fn next_action(&mut self, view: &VcpuView) -> VcpuAction;

    /// Notification that the vCPU woke from a `Block` (before the next
    /// `next_action` call).
    fn on_wake(&mut self, _view: &VcpuView, _reason: WakeReason) {}
}

/// A driver that computes for ever — the busiest possible guest. A
/// benign CPU-bound VM under the credit scheduler shows the paper's
/// single 30 ms peak in its usage-interval histogram.
///
/// It commits once: its first answer is `Compute { duration_us:
/// u64::MAX }`, and the engine never asks it again.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusyLoop;

impl WorkloadDriver for BusyLoop {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        VcpuAction::Compute {
            duration_us: u64::MAX,
        }
    }
}

/// A driver that never runs: blocks indefinitely immediately.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdleDriver;

impl WorkloadDriver for IdleDriver {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        VcpuAction::Block { duration_us: None }
    }
}

/// A driver that halts at first schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct HaltDriver;

impl WorkloadDriver for HaltDriver {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        VcpuAction::Halt
    }
}

/// A driver scripted with a fixed sequence of actions, then halting.
/// Useful for deterministic scheduler tests.
#[derive(Clone, Debug)]
pub struct ScriptedDriver {
    actions: std::collections::VecDeque<VcpuAction>,
}

impl ScriptedDriver {
    /// Creates a driver that performs `actions` in order, then halts.
    pub fn new<I: IntoIterator<Item = VcpuAction>>(actions: I) -> Self {
        ScriptedDriver {
            actions: actions.into_iter().collect(),
        }
    }
}

impl WorkloadDriver for ScriptedDriver {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        self.actions.pop_front().unwrap_or(VcpuAction::Halt)
    }
}

/// Shared handle used by drivers that need to export observations
/// (e.g. completion times, gap measurements) to the test, benchmark or
/// VM row that owns the simulation.
///
/// A server's simulator may be caught up on another thread than the one
/// that reads its drivers' observations, so the handle is an
/// `Arc<Mutex<T>>`, which keeps a driver, and so a `ServerSim`, `Send`.
/// The two sides never hold it at once (the owner reads between
/// catch-ups), so the lock is uncontended. A panic while it was held does
/// not hide the value: every writer leaves it whole at each step, so the
/// poison is recovered.
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Shared<T> {
    /// Read access. The guard must be dropped before the next borrow of
    /// the same handle on this thread.
    pub fn borrow(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access; the same guard as [`Self::borrow`].
    pub fn borrow_mut(&self) -> MutexGuard<'_, T> {
        self.borrow()
    }

    /// How many handles to this value exist.
    pub fn strong_count(this: &Self) -> usize {
        Arc::strong_count(&this.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Shared").field(&*self.borrow()).finish()
    }
}

/// Convenience constructor for [`Shared`] state. Setup only: it
/// allocates, so a driver calls it when it is built, never when asked.
#[cold]
pub fn shared<T>(value: T) -> Shared<T> {
    Shared(Arc::new(Mutex::new(value)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VmId;

    fn view() -> VcpuView {
        VcpuView {
            id: VcpuId {
                vm: VmId(0),
                index: 0,
            },
            now: SimTime::ZERO,
            cpu_time_us: 0,
        }
    }

    #[test]
    fn busy_loop_commits_for_ever() {
        assert_eq!(
            BusyLoop.next_action(&view()),
            VcpuAction::Compute {
                duration_us: u64::MAX
            }
        );
    }

    #[test]
    fn idle_blocks_forever() {
        let mut d = IdleDriver;
        assert_eq!(
            d.next_action(&view()),
            VcpuAction::Block { duration_us: None }
        );
    }

    #[test]
    fn scripted_sequence_then_halt() {
        let mut d =
            ScriptedDriver::new([VcpuAction::Compute { duration_us: 10 }, VcpuAction::Yield]);
        assert_eq!(
            d.next_action(&view()),
            VcpuAction::Compute { duration_us: 10 }
        );
        assert_eq!(d.next_action(&view()), VcpuAction::Yield);
        assert_eq!(d.next_action(&view()), VcpuAction::Halt);
        assert_eq!(d.next_action(&view()), VcpuAction::Halt);
    }

    #[test]
    fn shared_state_roundtrip() {
        let s = shared(vec![1, 2]);
        s.borrow_mut().push(3);
        assert_eq!(*s.borrow(), vec![1, 2, 3]);
    }
}
