//! # monatt-attacks
//!
//! The cloud attacks evaluated in the CloudMonatt paper, implemented
//! against the hypervisor simulator:
//!
//! * [`covert`] — the new CPU-timing cross-VM covert channel of Case Study
//!   III: sender, receiver and the bit codec (Figures 4 and 5, ~200 bps).
//! * [`boost`] — the new CPU availability attack of Case Study IV:
//!   IPI-driven BOOST abuse with tick dodging, starving a co-resident
//!   victim by >10× (Figures 6 and 7).
//! * [`rootkit`] — hidden in-VM malware for the runtime-integrity case
//!   study (Case Study II).
//! * [`image`] — VM-image tampering for the startup-integrity case study
//!   (Case Study I).
//!
//! ## Example: run the covert channel
//!
//! ```
//! use monatt_attacks::covert::{CovertReceiver, CovertSender};
//! use monatt_hypervisor::engine::ServerSim;
//! use monatt_hypervisor::ids::PcpuId;
//! use monatt_hypervisor::scheduler::SchedParams;
//! use monatt_hypervisor::time::SimTime;
//! use monatt_hypervisor::vm::VmConfig;
//!
//! let mut sim = ServerSim::new(1, SchedParams::default());
//! let sender = CovertSender::new(b"secret");
//! let receiver = CovertReceiver::new();
//! let log = receiver.log();
//! sim.create_vm(VmConfig::new("sender", vec![Box::new(sender)]).pin(vec![PcpuId(0)]));
//! sim.create_vm(VmConfig::new("receiver", vec![Box::new(receiver)]).pin(vec![PcpuId(0)]));
//! sim.run_until(SimTime::from_secs(1));
//! assert!(!log.borrow().gaps.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boost;
pub mod covert;
pub mod image;
pub mod rootkit;

pub use boost::{boost_attack_drivers, BoostAttackVcpu};
pub use covert::{
    bits_to_message, message_to_bits, CovertReceiver, CovertSender, GapSample, ReceiverLog,
};
pub use image::{implant_payload, tamper_image};
pub use rootkit::{infect_visible, infect_with_rootkit, remove_malware};
