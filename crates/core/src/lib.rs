//! # monatt-core
//!
//! The CloudMonatt architecture (Zhang & Lee, ISCA 2015): an end-to-end
//! system for monitoring and attesting the security health of VMs in an
//! IaaS cloud.
//!
//! ## Components (Figure 1 of the paper)
//!
//! * [`controller`] — the Cloud Controller: nova database, Policy
//!   Validation Module (`property_filter`), Deployment Module and
//!   Response Module.
//! * [`attestation`] — the Attestation Server: Property Interpretation
//!   Module, Property Certification Module and the [`pca`] privacy CA.
//! * [`controlplane`] — the replicated control-plane topology: `K`
//!   sharded controller instances with deterministic failover and an
//!   `N`-replica Attestation-Server pool with health-gated selection.
//! * [`server`] — CloudMonatt-secure cloud servers: hypervisor simulator,
//!   Monitor Module and hardware Trust Module (Figure 2).
//! * [`messages`] — the six attestation protocol messages of Figure 3.
//! * [`protocol`] — the attestation-protocol IR: Figure 3 (and layered
//!   / fan-out variants) as compiled programs the session layer
//!   interprets.
//! * [`interpret`] — the property ↔ measurement semantic bridge,
//!   including the covert-channel two-peak detector and the CPU
//!   availability check (Section 4).
//! * [`latency`] — the management-plane cost model behind Figures 9-11.
//! * [`outage`] — whole-node crash/recovery schedules and the
//!   Attestation Server's admission gate.
//! * [`cloud`] — the [`Cloud`] facade tying everything together: an
//!   interpreter over a few owned planes (event side, fleet side,
//!   appraiser pool, outage side, secure links — DESIGN.md §10), with
//!   the Table 1 APIs: [`Cloud::startup_attest_current`],
//!   [`Cloud::runtime_attest_current`],
//!   [`Cloud::runtime_attest_periodic`] and
//!   [`Cloud::stop_attest_periodic`].
//!
//! ## Quickstart
//!
//! ```
//! use monatt_core::{CloudBuilder, Flavor, Image, SecurityProperty, VmRequest};
//!
//! # fn main() -> Result<(), monatt_core::CloudError> {
//! let mut cloud = CloudBuilder::new().servers(3).seed(1).build();
//! let vid = cloud.request_vm(
//!     VmRequest::new(Flavor::Small, Image::Cirros)
//!         .require(SecurityProperty::StartupIntegrity),
//! )?;
//! let report = cloud.startup_attest_current(vid, SecurityProperty::StartupIntegrity)?;
//! assert!(report.healthy());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod arena;
pub mod attestation;
pub mod cloud;
pub mod controller;
pub mod controlplane;
pub mod error;
pub mod interpret;
pub mod latency;
pub(crate) mod links;
pub mod measurements;
pub mod messages;
pub mod outage;
pub mod pca;
pub mod protocol;
pub mod server;
pub(crate) mod session;
pub mod types;
pub(crate) mod verify_ring;

pub use attestation::AttestationServer;
pub use cloud::{
    AttestationReport, Cloud, CloudBuilder, Frequency, LaunchTiming, ResponseTiming,
    SubscriptionHealth, VmRequest, WorkloadSpec,
};
pub use controller::{CloudController, ResponseAction, ServerInfo, VmLifecycle, VmRecord};
pub use controlplane::{ControlPlaneStats, ControlPlaneTopology, RouteTag};
pub use error::CloudError;
pub use interpret::{analyze_intervals, IntervalAnalysis, ReferenceDb, DEFAULT_WINDOW_US};
pub use latency::{LatencyParams, RetryPolicy};
pub use measurements::{Measurement, MeasurementSpec, TaskInfo};
pub use outage::{AdmissionControl, OutageModel, OutageStats};
pub use pca::{AvkCertificate, PrivacyCa};
pub use protocol::{Branch, CompileError, MsgKind, NonceSlot, ProgramId, Protocol, QuoteKind};
pub use server::{AttestationResponse, CloudServerNode};
pub use types::{
    Flavor, HealthStatus, Image, NodeId, Nonce, ProtocolStats, SecurityProperty, ServerId, Vid,
};
