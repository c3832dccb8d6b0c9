//! Security measurements: what the Monitor Module collects and the Trust
//! Module signs — the `M` of the attestation protocol.

use monatt_hypervisor::profile::INTERVAL_BINS;
use monatt_net::wire::{Reader, Wire, WireError, Writer};

/// The most tasks one task list may carry on the wire.
const MAX_TASKS: usize = 1_000_000;

/// A measurement request specification (the protocol's `rM`): which
/// measurements the Attestation Server wants from the target server. This
/// is the Attestation Server's property→measurement mapping output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasurementSpec {
    /// Boot-time hash chain + VM image hash (Case Study I).
    BootIntegrity,
    /// Kernel vs guest-visible task lists via VMI (Case Study II).
    TaskListProbe,
    /// CPU usage-interval histogram over a window (Case Study III).
    UsageIntervals {
        /// Observation window, microseconds.
        window_us: u64,
    },
    /// The VM's virtual running time over a window (Case Study IV).
    CpuTime {
        /// Observation window, microseconds.
        window_us: u64,
    },
    /// Per-VM scheduler event counters over a window (the extension
    /// property's CC-Hunter-style boost-density measurement).
    SchedulerEvents {
        /// Observation window, microseconds.
        window_us: u64,
    },
}

impl MeasurementSpec {
    /// The runtime observation window this spec requires (zero for
    /// boot-time specs).
    pub fn window_us(&self) -> u64 {
        match self {
            MeasurementSpec::BootIntegrity | MeasurementSpec::TaskListProbe => 0,
            MeasurementSpec::UsageIntervals { window_us }
            | MeasurementSpec::CpuTime { window_us }
            | MeasurementSpec::SchedulerEvents { window_us } => *window_us,
        }
    }
}

impl Wire for MeasurementSpec {
    fn encode(&self, w: &mut Writer) {
        match self {
            MeasurementSpec::BootIntegrity => w.put_u8(0),
            MeasurementSpec::TaskListProbe => w.put_u8(1),
            MeasurementSpec::UsageIntervals { window_us } => {
                w.put_u8(2);
                w.put_u64(*window_us);
            }
            MeasurementSpec::CpuTime { window_us } => {
                w.put_u8(3);
                w.put_u64(*window_us);
            }
            MeasurementSpec::SchedulerEvents { window_us } => {
                w.put_u8(4);
                w.put_u64(*window_us);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(MeasurementSpec::BootIntegrity),
            1 => Ok(MeasurementSpec::TaskListProbe),
            2 => Ok(MeasurementSpec::UsageIntervals {
                window_us: r.get_u64()?,
            }),
            3 => Ok(MeasurementSpec::CpuTime {
                window_us: r.get_u64()?,
            }),
            4 => Ok(MeasurementSpec::SchedulerEvents {
                window_us: r.get_u64()?,
            }),
            d => Err(WireError::InvalidDiscriminant(d)),
        }
    }
}

/// A task entry as reported in measurements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskInfo {
    /// Process id.
    pub pid: u32,
    /// Process name.
    pub name: String,
}

impl Wire for TaskInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.pid);
        w.put_str(&self.name);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TaskInfo {
            pid: r.get_u32()?,
            name: r.get_str()?,
        })
    }
}

/// The collected measurements (the protocol's `M`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Measurement {
    /// PCR-style boot measurements.
    BootIntegrity {
        /// The accumulated platform PCR value (hypervisor + host OS).
        platform_pcr: [u8; 32],
        /// Hash of the VM image as measured before launch.
        image_hash: [u8; 32],
    },
    /// Task lists from VMI and from the guest itself.
    TaskLists {
        /// The kernel task list read by introspection.
        kernel: Vec<TaskInfo>,
        /// What the (possibly compromised) guest reports.
        guest_visible: Vec<TaskInfo>,
    },
    /// The 30 Trust Evidence Register counters of Case Study III.
    UsageIntervals {
        /// Histogram counters: at most [`INTERVAL_BINS`] on the wire.
        bins: Vec<u64>,
        /// Bin width in microseconds.
        bin_width_us: u64,
        /// Observation window length.
        window_us: u64,
    },
    /// Virtual running time of Case Study IV.
    CpuTime {
        /// The VM's virtual running time in the window (`CPU_measure`).
        virtual_time_us: u64,
        /// Window length (real time).
        window_us: u64,
        /// Number of runnable co-resident vCPUs sharing the pCPU during
        /// the window (for entitlement computation).
        contending_vcpus: u32,
    },
    /// PMU scheduler event counters over a window (extension property).
    SchedulerEvents {
        /// Wake-ups granted BOOST priority.
        boosts: u64,
        /// IPIs sent by the VM.
        ipis_sent: u64,
        /// Total wake-ups.
        wakeups: u64,
        /// Window length.
        window_us: u64,
    },
}

fn put_tasks(w: &mut Writer, tasks: &[TaskInfo]) {
    w.put_u32(tasks.len() as u32);
    for t in tasks {
        t.encode(w);
    }
}

fn get_tasks(r: &mut Reader<'_>) -> Result<Vec<TaskInfo>, WireError> {
    let n = r.get_u32()? as usize;
    if n > MAX_TASKS {
        return Err(WireError::LengthOverflow);
    }
    (0..n).map(|_| TaskInfo::decode(r)).collect()
}

impl Wire for Measurement {
    fn encode(&self, w: &mut Writer) {
        match self {
            Measurement::BootIntegrity {
                platform_pcr,
                image_hash,
            } => {
                w.put_u8(0);
                w.put_fixed(platform_pcr);
                w.put_fixed(image_hash);
            }
            Measurement::TaskLists {
                kernel,
                guest_visible,
            } => {
                w.put_u8(1);
                put_tasks(w, kernel);
                put_tasks(w, guest_visible);
            }
            Measurement::UsageIntervals {
                bins,
                bin_width_us,
                window_us,
            } => {
                w.put_u8(2);
                w.put_u32(bins.len() as u32);
                for b in bins {
                    w.put_u64(*b);
                }
                w.put_u64(*bin_width_us);
                w.put_u64(*window_us);
            }
            Measurement::CpuTime {
                virtual_time_us,
                window_us,
                contending_vcpus,
            } => {
                w.put_u8(3);
                w.put_u64(*virtual_time_us);
                w.put_u64(*window_us);
                w.put_u32(*contending_vcpus);
            }
            Measurement::SchedulerEvents {
                boosts,
                ipis_sent,
                wakeups,
                window_us,
            } => {
                w.put_u8(4);
                w.put_u64(*boosts);
                w.put_u64(*ipis_sent);
                w.put_u64(*wakeups);
                w.put_u64(*window_us);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Measurement::BootIntegrity {
                platform_pcr: r.get_fixed()?,
                image_hash: r.get_fixed()?,
            }),
            1 => Ok(Measurement::TaskLists {
                kernel: get_tasks(r)?,
                guest_visible: get_tasks(r)?,
            }),
            2 => {
                let n = r.get_u32()? as usize;
                if n > INTERVAL_BINS {
                    return Err(WireError::LengthOverflow);
                }
                let mut bins = Vec::with_capacity(n);
                for _ in 0..n {
                    bins.push(r.get_u64()?);
                }
                Ok(Measurement::UsageIntervals {
                    bins,
                    bin_width_us: r.get_u64()?,
                    window_us: r.get_u64()?,
                })
            }
            3 => Ok(Measurement::CpuTime {
                virtual_time_us: r.get_u64()?,
                window_us: r.get_u64()?,
                contending_vcpus: r.get_u32()?,
            }),
            4 => Ok(Measurement::SchedulerEvents {
                boosts: r.get_u64()?,
                ipis_sent: r.get_u64()?,
                wakeups: r.get_u64()?,
                window_us: r.get_u64()?,
            }),
            d => Err(WireError::InvalidDiscriminant(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Measurement> {
        vec![
            Measurement::BootIntegrity {
                platform_pcr: [1; 32],
                image_hash: [2; 32],
            },
            Measurement::TaskLists {
                kernel: vec![
                    TaskInfo {
                        pid: 1,
                        name: "init".into(),
                    },
                    TaskInfo {
                        pid: 66,
                        name: "rootkit".into(),
                    },
                ],
                guest_visible: vec![TaskInfo {
                    pid: 1,
                    name: "init".into(),
                }],
            },
            Measurement::UsageIntervals {
                bins: vec![5; 30],
                bin_width_us: 1_000,
                window_us: 3_000_000,
            },
            Measurement::CpuTime {
                virtual_time_us: 123_456,
                window_us: 1_000_000,
                contending_vcpus: 3,
            },
        ]
    }

    #[test]
    fn wire_roundtrip() {
        for m in samples() {
            let bytes = m.to_wire();
            assert_eq!(Measurement::from_wire(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn spec_roundtrip() {
        for spec in [
            MeasurementSpec::BootIntegrity,
            MeasurementSpec::TaskListProbe,
            MeasurementSpec::UsageIntervals { window_us: 5 },
            MeasurementSpec::CpuTime { window_us: 9 },
        ] {
            assert_eq!(MeasurementSpec::from_wire(&spec.to_wire()).unwrap(), spec);
        }
    }

    #[test]
    fn windows() {
        assert_eq!(MeasurementSpec::BootIntegrity.window_us(), 0);
        assert_eq!(MeasurementSpec::CpuTime { window_us: 77 }.window_us(), 77);
    }

    #[test]
    fn usage_intervals_carry_at_most_the_register_bank() {
        let intervals = |n: usize| Measurement::UsageIntervals {
            bins: vec![1; n],
            bin_width_us: 1_000,
            window_us: 3_000_000,
        };
        let bank = intervals(INTERVAL_BINS);
        assert_eq!(Measurement::from_wire(&bank.to_wire()), Ok(bank));
        let over = intervals(INTERVAL_BINS + 1).to_wire();
        assert_eq!(
            Measurement::from_wire(&over),
            Err(WireError::LengthOverflow)
        );
    }

    #[test]
    fn bad_discriminant_rejected() {
        assert!(Measurement::from_wire(&[9]).is_err());
        assert!(MeasurementSpec::from_wire(&[9]).is_err());
    }

    #[test]
    fn encoding_is_canonical() {
        let m = samples().remove(1);
        assert_eq!(m.to_wire(), m.to_wire());
    }
}
