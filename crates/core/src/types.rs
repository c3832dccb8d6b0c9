//! Core identifier and domain types for the CloudMonatt architecture.

use std::fmt;

/// A customer-visible VM identifier (the paper's `Vid`), unique across
/// the cloud.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vid(pub u64);

impl fmt::Display for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vid-{}", self.0)
    }
}

/// A cloud server identifier (the paper's `I`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// A protocol entity that can crash and recover as a whole — the unit
/// of the node-level fault model (as opposed to the per-message
/// [`monatt_net::sim::FaultModel`]). The customer endpoint is assumed
/// reliable; everything inside the cloud provider can go down.
///
/// Controller instances and Attestation-Server replicas are addressed
/// by index (see [`crate::controlplane`]); the unreplicated cloud is
/// simply index 0 of each.
///
/// The `Display` form matches the secure-channel peer names used on the
/// simulated network. Index 0 prints bare ("controller",
/// "attserver"), index `i ≥ 1` as "controller-i" / "attserver-i", a
/// server as "server-N".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeId {
    /// Cloud Controller instance `i` (equivalently, the link to it).
    Controller(u32),
    /// Attestation Server replica `r`.
    AttestationServer(u32),
    /// One cloud server.
    Server(ServerId),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Controller(0) => f.write_str("controller"),
            NodeId::Controller(i) => write!(f, "controller-{i}"),
            NodeId::AttestationServer(0) => f.write_str("attserver"),
            NodeId::AttestationServer(r) => write!(f, "attserver-{r}"),
            NodeId::Server(id) => write!(f, "{id}"),
        }
    }
}

/// A 32-byte freshness nonce.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Nonce(pub [u8; 32]);

impl fmt::Debug for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Nonce({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// The security properties a customer can request for a VM — the paper's
/// four concrete case studies (Section 4).
///
/// `Ord` follows declaration order and exists so `(Vid, SecurityProperty)`
/// can key the Attestation Server's evidence cache deterministically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SecurityProperty {
    /// Case Study I: measured-boot integrity of the platform and VM image.
    StartupIntegrity,
    /// Case Study II: no hidden malware at runtime (VMI task-list check).
    RuntimeIntegrity,
    /// Case Study III: no CPU-timing covert channel involving this VM's
    /// server (interval-histogram check).
    CovertChannelFreedom,
    /// Case Study IV: the VM receives at least this percentage of its
    /// contracted CPU share.
    CpuAvailability {
        /// Minimum acceptable relative CPU share, percent of the SLA
        /// entitlement.
        min_share_pct: u8,
    },
    /// Extension property (the paper's framework supports "an arbitrary
    /// number of security properties"): this VM does not abuse the credit
    /// scheduler's wake-up boost — a CC-Hunter-style event-density check
    /// on the PMU's boost counters that catches the *attacker* side of
    /// Case Studies III and IV.
    SchedulerFairness,
}

impl SecurityProperty {
    /// A stable wire label for the property (used in request encoding and
    /// capability tables).
    pub fn label(&self) -> &'static str {
        match self {
            SecurityProperty::StartupIntegrity => "startup-integrity",
            SecurityProperty::RuntimeIntegrity => "runtime-integrity",
            SecurityProperty::CovertChannelFreedom => "covert-channel-freedom",
            SecurityProperty::CpuAvailability { .. } => "cpu-availability",
            SecurityProperty::SchedulerFairness => "scheduler-fairness",
        }
    }
}

impl fmt::Display for SecurityProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityProperty::CpuAvailability { min_share_pct } => {
                write!(f, "cpu-availability(min {min_share_pct}%)")
            }
            other => f.write_str(other.label()),
        }
    }
}

/// The verdict of a property interpretation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HealthStatus {
    /// The property holds.
    Healthy,
    /// The property is violated; the reason is human-readable evidence.
    Compromised {
        /// Why the property was judged violated.
        reason: String,
    },
    /// No verdict could be reached: the monitored server did not answer
    /// within the protocol's retry budget. Deliberately distinct from
    /// [`HealthStatus::Compromised`] — silence is not evidence of a
    /// violation, but it is not health either, and after repeated
    /// misses it escalates to the Response Module.
    Unreachable {
        /// How many consecutive attestation samples were missed.
        missed: u32,
    },
}

impl HealthStatus {
    /// True for [`HealthStatus::Healthy`].
    pub fn is_healthy(&self) -> bool {
        matches!(self, HealthStatus::Healthy)
    }

    /// True for [`HealthStatus::Unreachable`].
    pub fn is_unreachable(&self) -> bool {
        matches!(self, HealthStatus::Unreachable { .. })
    }
}

/// Per-hop protocol delivery counters, accumulated across every Figure-3
/// message the cloud facade sends. Observability for the retransmit
/// layer: a lossy network shows up here long before attestations start
/// failing outright.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Records sealed and handed to the network (including retries).
    pub messages_sent: u64,
    /// Retransmissions performed after a failed delivery attempt.
    pub retries: u64,
    /// Attempts where the network delivered nothing (drop or attacker).
    pub drops_seen: u64,
    /// Attempts charged a retransmit timeout while waiting on a lost
    /// record.
    pub timeouts: u64,
    /// Benign duplicate records rejected by the receive window.
    pub duplicates_rejected: u64,
    /// Records that failed channel authentication (corruption,
    /// tampering or replay).
    pub auth_failures: u64,
    /// Attestation sessions started (messages 1 or 2 sent).
    pub sessions_started: u64,
    /// Sessions that delivered a verdict.
    pub sessions_completed: u64,
    /// Sessions that failed (retry budget exhausted, tampering, a node
    /// outage, an expired deadline, or a protocol error).
    pub sessions_failed: u64,
    /// Sessions refused at admission by the Attestation Server's
    /// overload gate (never started; disjoint from
    /// `sessions_started`/`sessions_failed`).
    pub sessions_shed: u64,
    /// Sessions aborted because their end-to-end deadline budget
    /// expired (a subset of `sessions_failed`).
    pub deadlines_exceeded: u64,
    /// High-water mark of concurrently in-flight sessions.
    pub max_in_flight: u64,
    /// High-water mark of pending events in the discrete-event queue.
    pub max_queue_depth: u64,
    /// Coalesced msg-4 batch flushes at the Attestation Server (each
    /// flush verifies its whole batch in one combined Schnorr check).
    pub msg4_flushes: u64,
    /// Msg-4 responses validated through coalesced flushes. Strictly
    /// greater than `msg4_flushes` exactly when coalescing merged at
    /// least two sessions into one flush.
    pub msg4_batched: u64,
}

/// VM sizes offered by the cloud (Figure 9 and 11 sweep these).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Flavor {
    /// 1 vCPU, 2 GB RAM, 10 GB disk.
    Small,
    /// 2 vCPUs, 4 GB RAM, 20 GB disk.
    Medium,
    /// 4 vCPUs, 8 GB RAM, 40 GB disk.
    Large,
}

impl Flavor {
    /// All flavors in figure order.
    pub const ALL: [Flavor; 3] = [Flavor::Small, Flavor::Medium, Flavor::Large];

    /// Number of vCPUs.
    pub fn vcpus(&self) -> usize {
        match self {
            Flavor::Small => 1,
            Flavor::Medium => 2,
            Flavor::Large => 4,
        }
    }

    /// RAM in gigabytes.
    pub fn memory_gb(&self) -> u64 {
        match self {
            Flavor::Small => 2,
            Flavor::Medium => 4,
            Flavor::Large => 8,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Flavor::Small => "small",
            Flavor::Medium => "medium",
            Flavor::Large => "large",
        }
    }
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// VM images offered by the cloud (Figure 9 sweeps these).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Image {
    /// Tiny test image (~13 MB).
    Cirros,
    /// Fedora cloud image (~200 MB).
    Fedora,
    /// Ubuntu cloud image (~250 MB).
    Ubuntu,
}

impl Image {
    /// All images in figure order.
    pub const ALL: [Image; 3] = [Image::Cirros, Image::Fedora, Image::Ubuntu];

    /// Image size in megabytes (drives copy and hash costs).
    pub const fn size_mb(&self) -> u64 {
        match self {
            Image::Cirros => 13,
            Image::Fedora => 200,
            Image::Ubuntu => 250,
        }
    }

    /// Display name.
    pub const fn name(&self) -> &'static str {
        match self {
            Image::Cirros => "cirros",
            Image::Fedora => "fedora",
            Image::Ubuntu => "ubuntu",
        }
    }

    /// The canonical (pristine) image bytes, one copy per image for the
    /// whole process. Only the hash matters; the content is a
    /// deterministic function of the image name and size.
    pub fn pristine(&self) -> &'static [u8] {
        static CIRROS: [u8; IMAGE_BYTES] = pristine_image(Image::Cirros);
        static FEDORA: [u8; IMAGE_BYTES] = pristine_image(Image::Fedora);
        static UBUNTU: [u8; IMAGE_BYTES] = pristine_image(Image::Ubuntu);
        match self {
            Image::Cirros => &CIRROS,
            Image::Fedora => &FEDORA,
            Image::Ubuntu => &UBUNTU,
        }
    }

    /// An owned copy of [`Image::pristine`].
    pub fn pristine_bytes(&self) -> Vec<u8> {
        self.pristine().to_vec()
    }

    /// The initial guest task list booted from this image.
    pub fn initial_tasks(&self) -> &'static [&'static str] {
        match self {
            Image::Cirros => &["init", "sh"],
            Image::Fedora => &["systemd", "sshd", "journald"],
            Image::Ubuntu => &["systemd", "sshd", "cron", "rsyslogd"],
        }
    }
}

/// Length of every pristine image: a small representative blob, since
/// hashing cost is modelled by the latency model, not by actually
/// hashing hundreds of megabytes.
const IMAGE_BYTES: usize = 4096;

/// The image's name followed by its size in megabytes as big-endian
/// bytes, repeated and cut at [`IMAGE_BYTES`].
const fn pristine_image(image: Image) -> [u8; IMAGE_BYTES] {
    /// Copies as much of `bytes` as fits to the front of `dst` and
    /// returns the rest of `dst`.
    const fn fill<'a>(dst: &'a mut [u8], bytes: &[u8]) -> &'a mut [u8] {
        let n = if bytes.len() < dst.len() {
            bytes.len()
        } else {
            dst.len()
        };
        let (head, rest) = dst.split_at_mut(n);
        head.copy_from_slice(bytes.split_at(n).0);
        rest
    }
    let name = image.name().as_bytes();
    let size = image.size_mb().to_be_bytes();
    let mut out = [0; IMAGE_BYTES];
    let mut rest: &mut [u8] = &mut out;
    while !rest.is_empty() {
        rest = fill(rest, name);
        rest = fill(rest, &size);
    }
    out
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Vid(3).to_string(), "vid-3");
        assert_eq!(ServerId(1).to_string(), "server-1");
        // Peer names, the network log, error text and the golden trace
        // all carry these strings: index 0 keeps the unreplicated
        // cloud's bare names.
        assert_eq!(NodeId::Controller(0).to_string(), "controller");
        assert_eq!(NodeId::AttestationServer(0).to_string(), "attserver");
        assert_eq!(NodeId::Controller(2).to_string(), "controller-2");
        assert_eq!(NodeId::AttestationServer(1).to_string(), "attserver-1");
        assert_eq!(NodeId::Server(ServerId(3)).to_string(), "server-3");
        assert_eq!(Flavor::Large.to_string(), "large");
        assert_eq!(Image::Ubuntu.to_string(), "ubuntu");
        assert_eq!(
            SecurityProperty::CpuAvailability { min_share_pct: 40 }.to_string(),
            "cpu-availability(min 40%)"
        );
    }

    #[test]
    fn flavors_scale() {
        assert!(Flavor::Small.vcpus() < Flavor::Large.vcpus());
        assert!(Flavor::Small.memory_gb() < Flavor::Large.memory_gb());
    }

    #[test]
    fn image_bytes_deterministic_and_distinct() {
        assert_eq!(
            Image::Ubuntu.pristine_bytes(),
            Image::Ubuntu.pristine_bytes()
        );
        assert_ne!(
            Image::Ubuntu.pristine_bytes(),
            Image::Fedora.pristine_bytes()
        );
        assert_eq!(Image::Cirros.pristine_bytes().len(), 4096);
    }

    #[test]
    fn pristine_images_keep_their_pattern() {
        for image in Image::ALL {
            let mut pattern = Vec::new();
            while pattern.len() < 4096 {
                pattern.extend_from_slice(image.name().as_bytes());
                pattern.extend_from_slice(&image.size_mb().to_be_bytes());
            }
            pattern.truncate(4096);
            assert_eq!(image.pristine(), &pattern[..], "{image}");
        }
    }

    #[test]
    fn pristine_bytes_is_one_exact_copy() {
        for image in Image::ALL {
            let bytes = image.pristine_bytes();
            assert_eq!((bytes.capacity(), bytes.len()), (4096, 4096), "{image}");
        }
    }

    #[test]
    fn health_status() {
        assert!(HealthStatus::Healthy.is_healthy());
        assert!(!HealthStatus::Compromised { reason: "x".into() }.is_healthy());
    }

    #[test]
    fn nonce_debug_is_short() {
        let n = Nonce([0xab; 32]);
        let repr = format!("{:?}", n);
        assert!(repr.len() < 30);
        assert!(repr.contains("abab"));
    }
}
