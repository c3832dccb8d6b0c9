//! The fleet side of [`Cloud`](super::Cloud): the cloud servers and the
//! Cloud Controller's nova database (one [`VmRecord`] row per VM, the
//! server capability table), with the Deployment and Response modules'
//! three primitives written once each:
//!
//! * **placement** — [`Fleet::place`] / [`Fleet::unplace`] are the only
//!   code that puts a VM on a server or takes it off (launch, migration
//!   and crash evacuation all go through them), so the simulator, the
//!   row and the capacity table cannot disagree;
//! * **lifecycle** — [`Fleet::set_state`] moves the node and the row
//!   together, and [`Fleet::live`] is the one gate every operation on a
//!   VM passes: a terminated VM is [`CloudError::UnknownVm`] to all of
//!   them;
//! * **lazy time** — [`Fleet::touch`] is the one mutable path to a
//!   node, catching its simulator up to the wall clock first.

use super::LaunchTiming;
use crate::controller::{CloudController, VmLifecycle, VmRecord};
use crate::error::CloudError;
use crate::server::CloudServerNode;
use crate::types::{ServerId, Vid};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Servers, VM rows, capacity, and the Response Module's own policy
/// state. See the module docs.
pub(crate) struct Fleet {
    /// The Cloud Controller: VM rows, capability table, signing keys.
    pub(crate) controller: CloudController,
    nodes: BTreeMap<ServerId, CloudServerNode>,
    /// The cloud seed; workload drivers derive theirs from it per VM.
    seed: u64,
    /// The stage breakdown of the most recent launch (Figure 9).
    pub(crate) last_launch: Option<LaunchTiming>,
    /// Whether failed attestations trigger remediation on their own.
    pub(crate) auto_response: bool,
    /// Automatic remediation responses that themselves failed (the error
    /// used to be silently discarded).
    pub(crate) auto_response_failures: u64,
}

impl Fleet {
    pub(crate) fn new(
        controller: CloudController,
        nodes: BTreeMap<ServerId, CloudServerNode>,
        seed: u64,
        auto_response: bool,
    ) -> Self {
        Fleet {
            controller,
            nodes,
            seed,
            last_launch: None,
            auto_response,
            auto_response_failures: 0,
        }
    }

    /// The server nodes, in id order. State is as of each node's last
    /// catch-up.
    pub(crate) fn nodes(&self) -> &BTreeMap<ServerId, CloudServerNode> {
        &self.nodes
    }

    /// The server node, caught up to `now_us` — the one mutable access
    /// path for protocol and lifecycle code, so a lazily lagging
    /// simulator is never observed or mutated at a stale instant.
    pub(crate) fn touch(&mut self, id: ServerId, now_us: u64) -> Option<&mut CloudServerNode> {
        let node = self.nodes.get_mut(&id)?;
        node.catch_up(now_us);
        Some(node)
    }

    /// Catches every server simulator up to `now_us`.
    pub(crate) fn sync(&mut self, now_us: u64) {
        for node in self.nodes.values_mut() {
            node.catch_up(now_us);
        }
    }

    /// `server` crashed: its volatile attestation session dies with it,
    /// and so does its measurement window.
    pub(crate) fn on_server_crash(&mut self, server: ServerId) {
        if let Some(node) = self.nodes.get_mut(&server) {
            node.reset_avk_session();
            node.window_free_at = 0;
        }
    }

    /// Drops the cached attestation session of `server`, or of every
    /// server (`None`): a binding certified under the old trust context
    /// must not be presented again.
    pub(crate) fn reset_avk_sessions(&mut self, server: Option<ServerId>) {
        let nodes = match server {
            Some(id) => self.nodes.range_mut(id..=id),
            None => self.nodes.range_mut(..),
        };
        for (_, node) in nodes {
            node.reset_avk_session();
        }
    }

    /// The lifecycle gate: the row of a VM that exists and is not
    /// terminated.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] otherwise.
    pub(crate) fn live(&self, vid: Vid) -> Result<&VmRecord, CloudError> {
        self.controller
            .vm(vid)
            .filter(|r| r.state != VmLifecycle::Terminated)
            .ok_or(CloudError::UnknownVm(vid))
    }

    /// The live VMs resident on `server`.
    pub(crate) fn residents(&self, server: ServerId) -> Vec<Vid> {
        self.controller
            .vms()
            .filter(|r| r.server == server && r.state != VmLifecycle::Terminated)
            .map(|r| r.vid)
            .collect()
    }

    /// Puts the recorded VM `vid` on `server`: boots its image (with the
    /// row's tamper flip), re-instantiates its workload from the
    /// declarative spec, and books the row and the capacity table.
    pub(crate) fn place(
        &mut self,
        vid: Vid,
        server: ServerId,
        now_us: u64,
    ) -> Result<(), CloudError> {
        let row = self
            .controller
            .vm_mut(vid)
            .ok_or(CloudError::UnknownVm(vid))?;
        let node = self
            .nodes
            .get_mut(&server)
            .ok_or(CloudError::UnknownServer(server))?;
        node.catch_up(now_us);
        // Every pristine guest borrows its image's one shared copy; only a
        // tampered row owns bytes of its own.
        let image_bytes = if row.tampered {
            let mut bytes = row.image.pristine_bytes();
            bytes[0] ^= 0xff;
            Cow::Owned(bytes)
        } else {
            Cow::Borrowed(row.image.pristine())
        };
        let (drivers, handles) = row.workload.drivers(row.flavor.vcpus(), self.seed ^ vid.0);
        node.launch_vm_pinned(vid, row.image, image_bytes, drivers, 256, row.pin_pcpu);
        row.handles = handles;
        row.server = server;
        row.state = VmLifecycle::Active;
        let flavor = row.flavor;
        self.controller.take_capacity(server, flavor);
        Ok(())
    }

    /// Takes `vid` off its server: the simulator state goes and the
    /// capacity is released. The row stays (its `server` names the last
    /// host).
    pub(crate) fn unplace(&mut self, vid: Vid, now_us: u64) {
        let Some(server) = self.controller.vm(vid).map(|r| r.server) else {
            return;
        };
        if let Some(node) = self.touch(server, now_us) {
            node.remove_vm(vid);
        }
        self.controller.release_capacity(vid);
    }

    /// Moves the live VM `vid` to the emptiest qualified server outside
    /// `excluded` (Policy Validation re-run; the current host joins the
    /// exclusion set). On error the VM is untouched.
    pub(crate) fn relocate(
        &mut self,
        vid: Vid,
        excluded: &mut BTreeSet<ServerId>,
        now_us: u64,
    ) -> Result<(), CloudError> {
        let row = self.live(vid)?;
        excluded.insert(row.server);
        let destination =
            self.controller
                .select_server_excluding(row.flavor, &row.properties, excluded)?;
        self.unplace(vid, now_us);
        self.place(vid, destination, now_us)
    }

    /// One lifecycle transition of a live VM, applied to the node and
    /// the row together.
    pub(crate) fn set_state(
        &mut self,
        vid: Vid,
        state: VmLifecycle,
        now_us: u64,
    ) -> Result<(), CloudError> {
        let server = self.live(vid)?.server;
        if state == VmLifecycle::Terminated {
            self.unplace(vid, now_us);
        } else if let Some(node) = self.touch(server, now_us) {
            match state {
                VmLifecycle::Suspended => node.suspend_vm(vid),
                _ => node.resume_vm(vid),
            }
        }
        if let Some(row) = self.controller.vm_mut(vid) {
            row.state = state;
        }
        Ok(())
    }
}
