//! The Cloud Controller (Section 3.2.2): VM management. Contains the nova
//! database (VM records, server capability tables), the Policy Validation
//! Module (`property_filter`), the Deployment Module, and the Response
//! Module that executes remediation (Section 5.2).

use crate::cloud::{WorkloadHandles, WorkloadSpec};
use crate::error::{reply_obligations, Check, CloudError};
use crate::messages::{q1_fields, CustomerReportMsg};
use crate::protocol::MsgKind;
use crate::types::{Flavor, HealthStatus, Image, SecurityProperty, ServerId, Vid};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::{BoundKey, SigningKey, Verifier, VerifyingKey};
use monatt_net::wire::EncodeScratch;
use monatt_tpm::quote::Quote;
use std::collections::BTreeMap;

/// `vid`'s word in the tombstone bitmap, and its bit there.
fn tombstone(vid: Vid) -> (usize, u64) {
    ((vid.0 / 64) as usize, 1 << (vid.0 % 64))
}

/// Lifecycle state of a VM as tracked in the nova database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmLifecycle {
    /// Running on its assigned server.
    Active,
    /// Suspended by a remediation response.
    Suspended,
    /// Terminated (by request or remediation).
    Terminated,
}

/// A VM record in the nova database — the one row per live VM: what the
/// customer asked for, where it runs, its lifecycle state, and what a
/// re-placement (migration, evacuation) needs to re-instantiate it. A
/// terminated VM keeps no record, only a tombstone
/// ([`CloudController::lifecycle`]).
#[derive(Clone, Debug)]
pub struct VmRecord {
    /// The VM id.
    pub vid: Vid,
    /// Requested flavor.
    pub flavor: Flavor,
    /// Image it was launched from.
    pub image: Image,
    /// Security properties the customer requested monitoring for.
    pub properties: Vec<SecurityProperty>,
    /// Current host server.
    pub server: ServerId,
    /// Lifecycle state: [`VmLifecycle::Active`] or
    /// [`VmLifecycle::Suspended`].
    pub state: VmLifecycle,
    /// The guest workload, kept declarative so every placement can
    /// re-instantiate it on the destination server.
    pub(crate) workload: WorkloadSpec,
    /// Experiment hook: the image is corrupted in storage.
    pub(crate) tampered: bool,
    /// Experiment hook: all vCPUs pinned to one pCPU.
    pub(crate) pin_pcpu: Option<usize>,
    /// Observation handles of the workload's current instantiation.
    pub(crate) handles: WorkloadHandles,
}

/// A server record: capacity and monitoring capabilities.
#[derive(Clone, Debug)]
pub struct ServerInfo {
    /// The server id.
    pub id: ServerId,
    /// Free vCPU slots: a cache of what the server's node can still
    /// host, refreshed from the node by every placement and removal
    /// (DESIGN.md §10.2).
    pub free_vcpus: usize,
    /// Property labels the server's Monitor Module supports.
    pub supported_properties: Vec<&'static str>,
}

impl ServerInfo {
    /// Whether the server can monitor `property`.
    pub fn supports(&self, property: SecurityProperty) -> bool {
        self.supported_properties.contains(&property.label())
    }
}

/// The remediation responses of Section 5.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseAction {
    /// #1: shut the VM down.
    Termination,
    /// #2: suspend pending further checks.
    Suspension,
    /// #3: move to another qualified server.
    Migration,
}

impl std::fmt::Display for ResponseAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResponseAction::Termination => write!(f, "termination"),
            ResponseAction::Suspension => write!(f, "suspension"),
            ResponseAction::Migration => write!(f, "migration"),
        }
    }
}

/// The Cloud Controller.
pub struct CloudController {
    /// The long-term signing key (SKc) of every controller instance,
    /// indexed by instance. `new` provisions instance 0, so the list is
    /// never empty.
    instance_keys: Vec<SigningKey>,
    /// The identity key (VKa) of every Attestation-Server replica,
    /// indexed by replica and bound once at deployment: what message 5
    /// is verified against.
    attserver_keys: Vec<BoundKey>,
    /// The live VMs' records.
    vms: BTreeMap<Vid, VmRecord>,
    /// The tombstones: bit `vid` is set once that VM has terminated.
    terminated: Vec<u64>,
    servers: BTreeMap<ServerId, ServerInfo>,
    next_vid: u64,
}

impl std::fmt::Debug for CloudController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudController")
            .field("vms", &self.vms.len())
            .field("servers", &self.servers.len())
            .finish_non_exhaustive()
    }
}

impl CloudController {
    /// Creates a controller with a fresh identity key.
    pub fn new(rng: &mut Drbg) -> Self {
        CloudController {
            instance_keys: vec![SigningKey::generate(rng)],
            attserver_keys: Vec::new(),
            vms: BTreeMap::new(),
            terminated: Vec::new(),
            servers: BTreeMap::new(),
            next_vid: 1,
        }
    }

    /// Instance 0's signing key: the whole controller's when it is not
    /// replicated.
    fn identity(&self) -> &SigningKey {
        &self.instance_keys[0]
    }

    /// The controller's public identity key (VKc) — instance 0's.
    pub fn identity_key(&self) -> VerifyingKey {
        self.identity().verifying_key()
    }

    /// Provisions the next controller instance with its own long-term
    /// key: a customer report pins the exact instance that served the
    /// session, so one instance cannot impersonate another.
    pub(crate) fn add_instance(&mut self, key: SigningKey) {
        self.instance_keys.push(key);
    }

    /// The long-term signing key of controller instance `instance`, for
    /// the session layer's message-6 certification.
    pub(crate) fn instance_key(&self, instance: u32) -> Option<&SigningKey> {
        self.instance_keys.get(instance as usize)
    }

    /// Installs the identity key of the next Attestation-Server replica.
    pub(crate) fn trust_attserver(&mut self, identity: VerifyingKey) {
        self.attserver_keys.push(BoundKey::new(identity));
    }

    /// The key message 5 from AS replica `replica` must verify against.
    pub(crate) fn attserver_key(&self, replica: u32) -> Option<&BoundKey> {
        self.attserver_keys.get(replica as usize)
    }

    /// Registers a server in the capability table.
    pub fn register_server(&mut self, info: ServerInfo) {
        self.servers.insert(info.id, info);
    }

    /// Number of registered servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Allocates a fresh vid.
    pub fn allocate_vid(&mut self) -> Vid {
        let vid = Vid(self.next_vid);
        self.next_vid += 1;
        vid
    }

    /// The Policy Validation Module's `property_filter`: selects a server
    /// with enough free vCPUs that supports every requested property.
    /// Prefers the emptiest qualified server (OpenStack's balance
    /// heuristic), excluding `exclude` (used when migrating away).
    ///
    /// # Errors
    ///
    /// [`CloudError::NoQualifiedServer`] when no server qualifies.
    pub fn select_server(
        &self,
        flavor: Flavor,
        properties: &[SecurityProperty],
        exclude: Option<ServerId>,
    ) -> Result<ServerId, CloudError> {
        let excluded: std::collections::BTreeSet<ServerId> = exclude.into_iter().collect();
        self.select_server_excluding(flavor, properties, &excluded)
    }

    /// [`Self::select_server`] with an arbitrary exclusion set — used
    /// when several servers are unavailable at once (crashed nodes plus
    /// the server being migrated away from).
    ///
    /// # Errors
    ///
    /// [`CloudError::NoQualifiedServer`] when no server qualifies.
    pub fn select_server_excluding(
        &self,
        flavor: Flavor,
        properties: &[SecurityProperty],
        excluded: &std::collections::BTreeSet<ServerId>,
    ) -> Result<ServerId, CloudError> {
        self.servers
            .values()
            .filter(|s| !excluded.contains(&s.id))
            .filter(|s| s.free_vcpus >= flavor.vcpus())
            .filter(|s| properties.iter().all(|p| s.supports(*p)))
            .max_by_key(|s| s.free_vcpus)
            .map(|s| s.id)
            .ok_or_else(|| CloudError::NoQualifiedServer {
                requested: properties.to_vec(),
            })
    }

    /// Records a VM row. Its server's free vCPUs are refreshed when the
    /// VM is placed there.
    pub fn record_deployment(&mut self, record: VmRecord) {
        self.vms.insert(record.vid, record);
    }

    /// Drops the row of a VM whose launch was rejected.
    pub(crate) fn drop_rejected_vm(&mut self, vid: Vid) {
        self.vms.remove(&vid);
    }

    /// Replaces a terminated VM's record by its tombstone. It must have
    /// been taken off its server first.
    pub(crate) fn retire_vm(&mut self, vid: Vid) {
        if self.vms.remove(&vid).is_none() {
            return;
        }
        let (word, bit) = tombstone(vid);
        if word >= self.terminated.len() {
            self.terminated.resize(word + 1, 0);
        }
        if let Some(tombstones) = self.terminated.get_mut(word) {
            *tombstones |= bit;
        }
    }

    /// Lifecycle state of `vid`: its record's while it lives,
    /// [`VmLifecycle::Terminated`] once it has terminated, `None` for a
    /// vid no VM was ever recorded under.
    pub fn lifecycle(&self, vid: Vid) -> Option<VmLifecycle> {
        if let Some(record) = self.vms.get(&vid) {
            return Some(record.state);
        }
        let (word, bit) = tombstone(vid);
        let dead = self.terminated.get(word).is_some_and(|w| w & bit != 0);
        dead.then_some(VmLifecycle::Terminated)
    }

    /// Looks up a live VM's record.
    pub fn vm(&self, vid: Vid) -> Option<&VmRecord> {
        self.vms.get(&vid)
    }

    /// Mutable access to a live VM's record.
    pub fn vm_mut(&mut self, vid: Vid) -> Option<&mut VmRecord> {
        self.vms.get_mut(&vid)
    }

    /// The live VMs' records, in vid order.
    pub fn vms(&self) -> impl Iterator<Item = &VmRecord> {
        self.vms.values()
    }

    /// The capability table, in server-id order.
    pub(crate) fn servers(&self) -> impl Iterator<Item = &ServerInfo> {
        self.servers.values()
    }

    /// Refreshes `server`'s free vCPU slots from its node, which the
    /// caller has just placed a VM on or taken one off.
    pub(crate) fn cache_free_vcpus(&mut self, server: ServerId, free: usize) {
        if let Some(info) = self.servers.get_mut(&server) {
            info.free_vcpus = free;
        }
    }

    /// Picks the remediation response for a failed attestation — the
    /// policy of Section 5.2: integrity failures kill the VM, platform
    /// health issues suspend, availability/covert-channel problems (bad
    /// neighbours) migrate.
    pub fn choose_response(&self, property: SecurityProperty) -> ResponseAction {
        match property {
            SecurityProperty::StartupIntegrity | SecurityProperty::RuntimeIntegrity => {
                ResponseAction::Termination
            }
            SecurityProperty::CovertChannelFreedom => ResponseAction::Migration,
            SecurityProperty::CpuAvailability { .. } => ResponseAction::Migration,
            // The abusive VM itself is the subject: kill it.
            SecurityProperty::SchedulerFairness => ResponseAction::Termination,
        }
    }

    /// Picks the remediation response when a VM's server stops answering
    /// attestation requests altogether. Silence carries no evidence that
    /// the VM itself is compromised, so the guest is not killed; instead
    /// it is migrated to a server the Attestation Server can still
    /// reach, restoring monitorability (Section 3.2's requirement that
    /// the customer can always learn the VM's security health).
    pub fn choose_unreachable_response(&self) -> ResponseAction {
        ResponseAction::Migration
    }

    /// Builds and signs the customer report (message 6, quote Q1 under
    /// SKc).
    pub fn certify_customer_report(
        &self,
        vid: Vid,
        property: SecurityProperty,
        status: HealthStatus,
        nonce1: [u8; 32],
    ) -> CustomerReportMsg {
        self.certify_customer_report_with(vid, property, status, nonce1, &mut EncodeScratch::new())
    }

    /// [`Self::certify_customer_report`] with a caller-provided encode
    /// scratch, so the warm attestation path signs without allocating.
    pub fn certify_customer_report_with(
        &self,
        vid: Vid,
        property: SecurityProperty,
        status: HealthStatus,
        nonce1: [u8; 32],
        scratch: &mut EncodeScratch,
    ) -> CustomerReportMsg {
        Self::certify_customer_report_keyed(self.identity(), vid, property, status, nonce1, scratch)
    }

    /// [`Self::certify_customer_report_with`] under an explicit signing
    /// key. A replicated control plane gives every controller instance
    /// its own long-term key, so the customer pins the instance that
    /// served the session.
    pub fn certify_customer_report_keyed(
        key: &SigningKey,
        vid: Vid,
        property: SecurityProperty,
        status: HealthStatus,
        nonce1: [u8; 32],
        scratch: &mut EncodeScratch,
    ) -> CustomerReportMsg {
        let quote = q1_fields(scratch, vid, &property, &status, &nonce1, |f| {
            Quote::create(key, f)
        });
        CustomerReportMsg {
            vid,
            property,
            status,
            nonce1,
            quote,
        }
    }

    /// Customer-side verification of message 6 (the customer holds each
    /// controller instance's key bound), rebuilding the quoted fields in
    /// a caller-provided encode scratch.
    ///
    /// # Errors
    ///
    /// [`CloudError::ProtocolFailure`] naming the failed check.
    pub fn verify_customer_report_with(
        msg: &CustomerReportMsg,
        controller_key: &impl Verifier,
        expected_nonce1: [u8; 32],
        scratch: &mut EncodeScratch,
    ) -> Result<(), CloudError> {
        let (quote_kind, nonce_slot) = reply_obligations(MsgKind::Msg6)?;
        if msg.nonce1 != expected_nonce1 {
            return Err(Check::Nonce(nonce_slot).into());
        }
        q1_fields(
            scratch,
            msg.vid,
            &msg.property,
            &msg.status,
            &msg.nonce1,
            |f| msg.quote.verify(controller_key, f),
        )
        .map_err(|e| Check::Quote(quote_kind, e).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller_with_servers() -> CloudController {
        let mut c = CloudController::new(&mut Drbg::from_seed(50));
        c.register_server(ServerInfo {
            id: ServerId(0),
            free_vcpus: 3,
            supported_properties: vec!["startup-integrity", "runtime-integrity"],
        });
        c.register_server(ServerInfo {
            id: ServerId(1),
            free_vcpus: 16,
            supported_properties: vec![
                "startup-integrity",
                "runtime-integrity",
                "covert-channel-freedom",
                "cpu-availability",
            ],
        });
        c.register_server(ServerInfo {
            id: ServerId(2),
            free_vcpus: 2,
            supported_properties: vec![],
        });
        c
    }

    #[test]
    fn property_filter_selects_qualified_server() {
        let c = controller_with_servers();
        // Covert-channel monitoring only on server 1.
        let s = c
            .select_server(
                Flavor::Small,
                &[SecurityProperty::CovertChannelFreedom],
                None,
            )
            .unwrap();
        assert_eq!(s, ServerId(1));
        // No property requirement: picks the emptiest (server 1).
        let s = c.select_server(Flavor::Small, &[], None).unwrap();
        assert_eq!(s, ServerId(1));
        // Excluding server 1 falls back to server 0 for integrity.
        let s = c
            .select_server(
                Flavor::Small,
                &[SecurityProperty::RuntimeIntegrity],
                Some(ServerId(1)),
            )
            .unwrap();
        assert_eq!(s, ServerId(0));
    }

    #[test]
    fn no_qualified_server_is_an_error() {
        let c = controller_with_servers();
        let err = c
            .select_server(
                Flavor::Small,
                &[SecurityProperty::CovertChannelFreedom],
                Some(ServerId(1)),
            )
            .unwrap_err();
        assert!(matches!(err, CloudError::NoQualifiedServer { .. }));
        // Capacity filter: a huge flavor nowhere fits.
        let err = c
            .select_server(Flavor::Large, &[], Some(ServerId(1)))
            .unwrap_err();
        assert!(matches!(err, CloudError::NoQualifiedServer { .. }));
    }

    #[test]
    fn vids_are_unique() {
        let mut c = controller_with_servers();
        let a = c.allocate_vid();
        let b = c.allocate_vid();
        assert_ne!(a, b);
    }

    #[test]
    fn response_policy() {
        let c = controller_with_servers();
        assert_eq!(
            c.choose_response(SecurityProperty::RuntimeIntegrity),
            ResponseAction::Termination
        );
        assert_eq!(
            c.choose_response(SecurityProperty::CovertChannelFreedom),
            ResponseAction::Migration
        );
    }

    #[test]
    fn customer_report_roundtrip() {
        let c = controller_with_servers();
        let msg = c.certify_customer_report(
            Vid(3),
            SecurityProperty::StartupIntegrity,
            HealthStatus::Healthy,
            [1u8; 32],
        );
        let verify = |msg: &CustomerReportMsg, nonce1: [u8; 32]| {
            let scratch = &mut EncodeScratch::new();
            CloudController::verify_customer_report_with(msg, &c.identity_key(), nonce1, scratch)
        };
        verify(&msg, [1u8; 32]).unwrap();
        // Forged status fails.
        let mut forged = msg.clone();
        forged.status = HealthStatus::Compromised {
            reason: "fake".into(),
        };
        assert!(verify(&forged, [1u8; 32]).is_err());
        // Stale nonce fails.
        assert!(verify(&msg, [2u8; 32]).is_err());
    }
}
