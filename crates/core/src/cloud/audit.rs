//! The cloud's ledgers, stated once. [`Cloud::audit`] reads the planes'
//! own state — the session arena, `Outages::down`, the controller's VM
//! records, the topology, each server's simulator, each subscription's
//! report log — and names the first rule that drifted. It takes `&self`:
//! it draws nothing from the DRBG and moves no clock. Attached as the
//! [`Audit`](super::Audit) observer, it runs after every event
//! `Cloud::pump` dispatches; `monatt-core`'s test builds attach it.

use super::Cloud;
use crate::types::{NodeId, ServerId, Vid};
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
    /// Each periodic subscription's report log holds one record per
    /// delivered report and per escalation, its `Unreachable` records are
    /// its escalations, and none was issued after the wall clock.
    SubscriptionLedger {
        /// The subscription whose log drifted.
        id: u64,
    },
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cloud invariant broken: {self:?}")
    }
}

impl Cloud {
    /// Checks the cloud's six ledgers against its own state. Changes
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
        let server_down = self
            .outage
            .down
            .iter()
            .any(|n| matches!(n, NodeId::Server(_)));
        if server_down {
            for r in self.fleet.controller.vms() {
                if is_down(NodeId::Server(r.server)) {
                    let (vid, server) = (r.vid, r.server);
                    return Err(Invariant::StrandedVm { vid, server });
                }
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
        self.audit_resident_rows()?;
        self.audit_subscriptions()
    }

    /// Sessions in the arena with no outcome yet.
    pub(super) fn open_sessions(&self) -> u64 {
        let sessions = self.events.sessions.iter();
        sessions.filter(|(_, s)| s.pending.is_none()).count() as u64
    }

    /// The [`Invariant::ResidentRows`] rule, server by server: each
    /// slot is a live VM placed on its server, with a simulator row of
    /// its flavor's vCPUs that no other slot names, and the simulator
    /// has no other row. Slots are keyed by vid and a vid is placed on
    /// one server, so if the slots also number the live VMs, every live
    /// VM has its slot. Allocates only for a server with more than 64
    /// VMs: it runs after every event the audit observer sees.
    fn audit_resident_rows(&self) -> Result<(), Invariant> {
        let controller = &self.fleet.controller;
        let nodes = self.fleet.nodes();
        let mut slots = 0;
        for (&server, node) in nodes {
            let sim = node.sim();
            let rows = sim.vm_count();
            let mut named = RowSet::new(rows);
            let held = node.residents().all(|(vid, local)| {
                let record = controller.vm(vid).filter(|r| r.server == server);
                let vcpus = record.map(|r| r.flavor.vcpus());
                let row = sim.vm_row(local).filter(|&row| named.insert(row));
                row.is_some() && sim.vm(local).map(|vm| vm.vcpu_count) == vcpus
            });
            if !held || node.vm_count() != rows {
                return Err(Invariant::ResidentRows { server });
            }
            slots += rows;
        }
        if slots != controller.vm_count() {
            // A live VM without its slot: name its server.
            let unplaced = controller.vms().find(|r| {
                let node = nodes.get(&r.server);
                node.and_then(|n| n.local_vm(r.vid)).is_none()
            });
            let server = unplaced.map_or(ServerId(0), |r| r.server);
            return Err(Invariant::ResidentRows { server });
        }
        Ok(())
    }

    /// The [`Invariant::SubscriptionLedger`] rule: O(1) a subscription.
    fn audit_subscriptions(&self) -> Result<(), Invariant> {
        let now = self.events.now();
        for (&id, sub) in &self.subscriptions {
            let (log, health) = (&sub.reports, &sub.health);
            let escalations = u64::from(health.escalations);
            if log.len() != health.delivered + escalations
                || log.unreachable() != escalations
                || log.last_issued_at_us().is_some_and(|at| at > now)
            {
                return Err(Invariant::SubscriptionLedger { id });
            }
        }
        Ok(())
    }
}

/// The simulator rows one server's slots have named so far.
enum RowSet {
    /// Up to 64 rows: a bit each.
    Small(u64),
    /// More.
    Large(Vec<bool>),
}

impl RowSet {
    fn new(rows: usize) -> Self {
        if rows <= 64 {
            RowSet::Small(0)
        } else {
            RowSet::Large(vec![false; rows])
        }
    }

    /// Marks `row` named; `false` if it already was (or is out of range).
    fn insert(&mut self, row: usize) -> bool {
        match self {
            RowSet::Small(bits) if row < 64 => {
                let bit = 1u64 << row;
                let fresh = *bits & bit == 0;
                *bits |= bit;
                fresh
            }
            RowSet::Small(_) => false,
            RowSet::Large(named) => named
                .get_mut(row)
                .is_some_and(|seen| !std::mem::replace(seen, true)),
        }
    }
}
