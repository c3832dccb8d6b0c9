//! # monatt-workloads
//!
//! Synthetic guest workloads for the CloudMonatt reproduction:
//!
//! * [`programs`] — CPU-bound SPEC2006-like programs (bzip2, hmmer, astar)
//!   used as the victim workload in Figure 6.
//! * [`services`] — the six cloud benchmark services (database, file, web,
//!   app, stream, mail) used as attacker workloads in Figure 6 and as the
//!   monitored workload in Figure 10.
//!
//! The paper ran the real programs on real hardware; here each workload is
//! reduced to its CPU-burst/I-O-wait structure, which is the only property
//! the scheduler-level experiments depend on (see DESIGN.md's substitution
//! table).
//!
//! ## Example
//!
//! ```
//! use monatt_hypervisor::engine::ServerSim;
//! use monatt_hypervisor::scheduler::SchedParams;
//! use monatt_hypervisor::time::SimTime;
//! use monatt_hypervisor::vm::VmConfig;
//! use monatt_workloads::programs::SpecProgram;
//!
//! let mut sim = ServerSim::new(1, SchedParams::default());
//! let prog = SpecProgram::Bzip2.driver();
//! let stats = prog.stats();
//! sim.create_vm(VmConfig::new("victim", vec![Box::new(prog)]));
//! sim.run_until(SimTime::from_secs(10));
//! assert!(stats.borrow().finished_at.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod programs;
pub mod services;

pub use programs::{CpuProgram, ProgramStats, SpecProgram};
pub use services::{CloudService, ServiceStats, ServiceStatsHandle, ServiceWorkload};
