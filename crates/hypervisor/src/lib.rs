//! # monatt-hypervisor
//!
//! A discrete-event simulator of a Xen-style virtualized cloud server, the
//! substrate under the CloudMonatt reproduction's runtime case studies.
//!
//! The paper's two novel attacks (the CPU covert channel of Case Study III
//! and the CPU availability attack of Case Study IV) and their detectors
//! are all artifacts of Xen's credit scheduler. This crate reimplements
//! that scheduler faithfully enough that the attacks *work* and the
//! monitors *see* them:
//!
//! * [`scheduler`] — credit accounting (weight-proportional 30 ms refills,
//!   10 ms ticks debiting the running vCPU), UNDER/OVER priorities and the
//!   wake-up BOOST.
//! * [`engine`] — the deterministic event loop: [`engine::ServerSim`] with
//!   pCPUs, run queues, preemption, slices, timers and IPIs.
//! * [`driver`] — the guest-workload interface ([`driver::WorkloadDriver`]).
//! * [`guest`] — simulated guest OS state: kernel vs. guest-visible task
//!   lists (rootkits hide tasks), VM images.
//! * [`profile`] — the VMM Profile Tool's window: per-VM virtual running
//!   time and 30 × 1 ms usage-interval registers, updated as each run
//!   segment closes, plus an opt-in run-segment log (off by default).
//! * [`pmu`] — per-VM performance counters.
//! * [`vmi`] — the VM introspection tool reading kernel state from outside
//!   the VM.
//!
//! The profile window and the PMU counters live in the VM's row of
//! [`engine::ServerSim`], which reads them out: `counters`,
//! `window_cpu_time_us`, `interval_registers`, `relative_cpu_usage`.
//!
//! ## Example: fair sharing under the credit scheduler
//!
//! ```
//! use monatt_hypervisor::driver::BusyLoop;
//! use monatt_hypervisor::engine::ServerSim;
//! use monatt_hypervisor::ids::PcpuId;
//! use monatt_hypervisor::scheduler::SchedParams;
//! use monatt_hypervisor::time::SimTime;
//! use monatt_hypervisor::vm::VmConfig;
//!
//! let mut sim = ServerSim::new(1, SchedParams::default());
//! let a = sim.create_vm(VmConfig::new("a", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
//! let b = sim.create_vm(VmConfig::new("b", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
//! sim.run_until(SimTime::from_secs(3));
//! let share_a = sim.relative_cpu_usage(a);
//! assert!((share_a - 0.5).abs() < 0.05);
//! # let _ = b;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod engine;
pub mod guest;
pub mod ids;
pub mod pmu;
pub mod profile;
pub mod queue;
pub mod scheduler;
pub mod time;
mod timers;
pub mod vm;
pub mod vmi;
pub mod wheel;

pub use driver::{VcpuAction, VcpuView, WakeReason, WorkloadDriver};
pub use engine::ServerSim;
pub use guest::{GuestOs, GuestTask};
pub use ids::{PcpuId, VcpuId, VmId};
pub use profile::{DescheduleReason, RunSegment};
pub use scheduler::{Priority, SchedParams};
pub use time::SimTime;
pub use vm::{Vm, VmConfig, VmState};
pub use vmi::{VmiError, VmiTool};
