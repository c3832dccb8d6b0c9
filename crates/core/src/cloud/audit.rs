//! The cloud's ledgers, stated once. [`Cloud::audit`] reads the planes'
//! own state — the session arena, `Outages::down`, the controller's VM
//! records, the topology, each server's simulator — and names the first
//! rule that drifted. It takes `&self`: it draws nothing from the DRBG
//! and moves no clock. Test builds audit after every event `Cloud::pump`
//! dispatches.

use super::Cloud;
use crate::types::{NodeId, ServerId, Vid};
use monatt_hypervisor::ids::VmId;
use std::collections::BTreeMap;
use std::fmt;

/// A broken cloud invariant: the rule, and what shows it broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Every started session ends once: those started since the last
    /// [`Cloud::reset_protocol_stats`] or open at it are those ended
    /// (completed or failed) or open now. A shed session never starts.
    SessionLedger {
        /// Started, plus open at the last reset.
        started: u64,
        /// Completed plus failed.
        ended: u64,
        /// In the arena with no outcome yet.
        open: u64,
    },
    /// Every crash is matched by a recovery or by a node still down.
    OutageLedger {
        /// Crashes applied.
        crashes: u64,
        /// Recoveries applied.
        recoveries: u64,
        /// Nodes in the down-set.
        down: u64,
    },
    /// No live VM sits on a crashed server.
    StrandedVm {
        /// The live VM.
        vid: Vid,
        /// Its host, which is down.
        server: ServerId,
    },
    /// The topology mirrors the down-set: each shard is owned by the
    /// first live controller on its ring, and each replica's up flag is
    /// right.
    ShardOwner {
        /// `Controller(s)` for a misowned shard `s`, or the replica.
        node: NodeId,
    },
    /// Each server holds a slot, and its simulator a VM row (which holds
    /// the VM's PMU counters and profile window) and vCPU rows, for
    /// exactly the live VMs placed on it, with their flavors' vCPUs.
    ResidentRows {
        /// The server whose rows drifted.
        server: ServerId,
    },
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cloud invariant broken: {self:?}")
    }
}

impl Cloud {
    /// Checks the cloud's five ledgers against its own state. Changes
    /// nothing.
    ///
    /// # Errors
    ///
    /// The first [`Invariant`] that does not hold.
    pub fn audit(&self) -> Result<(), Invariant> {
        let stats = &self.stats;
        let started = stats.sessions_started + self.open_at_reset;
        let ended = stats.sessions_completed + stats.sessions_failed;
        let open = self.open_sessions();
        if started != ended + open {
            return Err(Invariant::SessionLedger {
                started,
                ended,
                open,
            });
        }
        let outages = &self.outage.stats;
        let down = self.outage.down.len() as u64;
        if outages.crashes != outages.recoveries + down {
            return Err(Invariant::OutageLedger {
                crashes: outages.crashes,
                recoveries: outages.recoveries,
                down,
            });
        }
        let is_down = |node| self.outage.down.contains(&node);
        for r in self.fleet.controller.vms() {
            if is_down(NodeId::Server(r.server)) {
                let (vid, server) = (r.vid, r.server);
                return Err(Invariant::StrandedVm { vid, server });
            }
        }
        // A controller's up flag shows through its home shard's owner; a
        // replica's is checked directly.
        let topology = &self.topology;
        for r in 0..topology.replicas() {
            let node = NodeId::AttestationServer(r);
            if topology.replica_is_live(r) == is_down(node) {
                return Err(Invariant::ShardOwner { node });
            }
        }
        let k = topology.controllers();
        for shard in 0..k {
            let mut ring = (shard..shard + k).map(|i| i % k);
            let first_live = ring.find(|&i| !is_down(NodeId::Controller(i)));
            if topology.owner_of_shard(shard) != first_live {
                let node = NodeId::Controller(shard);
                return Err(Invariant::ShardOwner { node });
            }
        }
        self.audit_resident_rows()
    }

    /// Sessions in the arena with no outcome yet.
    pub(super) fn open_sessions(&self) -> u64 {
        let sessions = self.events.sessions.iter();
        sessions.filter(|(_, s)| s.pending.is_none()).count() as u64
    }

    /// The [`Invariant::ResidentRows`] rule.
    fn audit_resident_rows(&self) -> Result<(), Invariant> {
        let nodes = self.fleet.nodes();
        let mut placed: BTreeMap<ServerId, Vec<VmId>> = BTreeMap::new();
        for r in self.fleet.controller.vms() {
            let server = r.server;
            let node = nodes.get(&server);
            let Some((node, local)) = node.and_then(|n| Some((n, n.local_vm(r.vid)?))) else {
                return Err(Invariant::ResidentRows { server });
            };
            let vcpus = node.sim().vm(local).map(|vm| vm.vcpu_count);
            if vcpus != Some(r.flavor.vcpus()) {
                return Err(Invariant::ResidentRows { server });
            }
            placed.entry(server).or_default().push(local);
        }
        for (&server, node) in nodes {
            let mut want = placed.remove(&server).unwrap_or_default();
            want.sort_unstable();
            if node.vm_count() != want.len() || node.sim().vm_ids() != want {
                return Err(Invariant::ResidentRows { server });
            }
        }
        Ok(())
    }
}
