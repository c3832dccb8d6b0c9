//! Virtual machine configuration and state within the simulated server.

use crate::driver::WorkloadDriver;
use crate::guest::GuestOs;
use crate::ids::PcpuId;

/// The default credit-scheduler weight (Xen's default is 256).
pub const DEFAULT_WEIGHT: u32 = 256;

/// Lifecycle state of a live VM on a server (a terminated VM is not on
/// it at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmState {
    /// Running normally (vCPUs participate in scheduling).
    Running,
    /// Suspended by the controller; vCPUs do not run.
    Suspended,
}

/// Configuration for creating a VM on a simulated server.
pub struct VmConfig {
    /// Human-readable name.
    pub name: String,
    /// Credit-scheduler weight (CPU share relative to other VMs).
    pub weight: u32,
    /// One workload driver per vCPU.
    pub drivers: Vec<Box<dyn WorkloadDriver>>,
    /// Optional explicit pCPU pinning, one entry per vCPU. `None` assigns
    /// vCPUs round-robin.
    pub pinning: Option<Vec<PcpuId>>,
    /// The guest operating system (image + task list).
    pub guest: GuestOs,
}

impl std::fmt::Debug for VmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmConfig")
            .field("name", &self.name)
            .field("weight", &self.weight)
            .field("vcpus", &self.drivers.len())
            .field("pinning", &self.pinning)
            .finish_non_exhaustive()
    }
}

impl VmConfig {
    /// Creates a config with default weight and a trivial guest OS.
    pub fn new(name: &str, drivers: Vec<Box<dyn WorkloadDriver>>) -> Self {
        VmConfig {
            name: name.to_owned(),
            weight: DEFAULT_WEIGHT,
            drivers,
            pinning: None,
            guest: GuestOs::boot(format!("image-{name}").into_bytes(), &["init"]),
        }
    }

    /// Sets the scheduler weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Pins each vCPU to the given pCPU (one entry per vCPU).
    pub fn pin(mut self, pinning: Vec<PcpuId>) -> Self {
        self.pinning = Some(pinning);
        self
    }

    /// Replaces the guest OS.
    pub fn guest(mut self, guest: GuestOs) -> Self {
        self.guest = guest;
        self
    }
}

/// A VM instantiated on a server.
pub struct Vm {
    /// Human-readable name.
    pub name: String,
    /// Scheduler weight.
    pub weight: u32,
    /// Lifecycle state.
    pub state: VmState,
    /// The guest OS (task lists, image).
    pub guest: GuestOs,
    /// Number of vCPUs.
    pub vcpu_count: usize,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("name", &self.name)
            .field("state", &self.state)
            .field("vcpus", &self.vcpu_count)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BusyLoop;

    #[test]
    fn config_builder() {
        let cfg = VmConfig::new("victim", vec![Box::new(BusyLoop)])
            .weight(512)
            .pin(vec![PcpuId(0)]);
        assert_eq!(cfg.name, "victim");
        assert_eq!(cfg.weight, 512);
        assert_eq!(cfg.drivers.len(), 1);
        assert_eq!(cfg.pinning, Some(vec![PcpuId(0)]));
    }

    #[test]
    fn debug_shows_summary() {
        let cfg = VmConfig::new("x", vec![Box::new(BusyLoop)]);
        let repr = format!("{:?}", cfg);
        assert!(repr.contains("\"x\""));
        assert!(repr.contains("vcpus: 1"));
    }
}
