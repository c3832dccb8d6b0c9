//! The cloud's ledgers, stated once. Each fact the cloud keeps has one
//! owner; [`Cloud::audit`] checks only what is kept twice on purpose —
//! a history against what it produced (sessions, outages, report issue
//! times) and a named cache against its owner (a VM row's `server` and
//! a server's `free_vcpus`, both caches of the nodes' slots; DESIGN.md
//! §10.2) — and names the first rule that drifted. It takes `&self`: it
//! draws nothing from the DRBG and moves no clock. Attached as the
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
        /// Nodes in the topology's down-set.
        down: u64,
    },
    /// No live VM sits on a crashed server.
    StrandedVm {
        /// The live VM.
        vid: Vid,
        /// Its host, which is down.
        server: ServerId,
    },
    /// The placement caches agree with the nodes' slots, which own
    /// what each server hosts: every slot's record names its server and
    /// the slots number the live VMs, each server's simulator has one VM
    /// per slot, and its cached `free_vcpus` is what its node has free.
    ResidentRows {
        /// The server whose rows drifted.
        server: ServerId,
    },
    /// No record in a periodic subscription's report log was issued
    /// after the wall clock.
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
        let topology = &self.topology;
        let down = topology.down_nodes().count() as u64;
        if outages.crashes != outages.recoveries + down {
            return Err(Invariant::OutageLedger {
                crashes: outages.crashes,
                recoveries: outages.recoveries,
                down,
            });
        }
        // What a server hosts is its node's slots (the records agree, or
        // `ResidentRows` below fails).
        for node in topology.down_nodes() {
            let NodeId::Server(server) = node else {
                continue;
            };
            let slots = self.fleet.nodes().get(&server).map(|n| n.residents());
            if let Some((vid, _)) = slots.and_then(|mut s| s.next()) {
                return Err(Invariant::StrandedVm { vid, server });
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

    /// The [`Invariant::ResidentRows`] rule. Per server: the simulator
    /// counts one VM a slot and the cached free vCPUs are the node's.
    /// The simulator's rows need no more than a count:
    /// `CloudServerNode::launch_vm_pinned` and `remove_vm` are the only
    /// code that creates or retires a simulator VM. Then the records, in
    /// vid order, claim each server's slots, in vid order: every record
    /// claims the next slot of the server it names, and no slot is left
    /// unclaimed. One pass, no lookup by vid: it runs after every event
    /// the audit observer sees.
    fn audit_resident_rows(&self) -> Result<(), Invariant> {
        let controller = &self.fleet.controller;
        let mut table = controller.servers();
        let mut slots = Vec::with_capacity(self.fleet.nodes().len());
        for (&server, node) in self.fleet.nodes() {
            let info = table.next().filter(|info| info.id == server);
            let free = info.map(|info| info.free_vcpus);
            if node.vm_count() != node.sim().vm_count() || free != Some(node.free_vcpus()) {
                return Err(Invariant::ResidentRows { server });
            }
            slots.push((server, node.residents()));
        }
        for r in controller.vms() {
            // The builder numbers the servers from 0: an id is an index.
            let cursor = slots.get_mut(r.server.0 as usize);
            let cursor = cursor.filter(|(id, _)| *id == r.server);
            let claimed = cursor.and_then(|(_, slots)| slots.next());
            if claimed.map(|(vid, _)| vid) != Some(r.vid) {
                return Err(Invariant::ResidentRows { server: r.server });
            }
        }
        let unclaimed = slots
            .iter_mut()
            .find_map(|(id, left)| left.next().map(|_| *id));
        unclaimed.map_or(Ok(()), |server| Err(Invariant::ResidentRows { server }))
    }

    /// The [`Invariant::SubscriptionLedger`] rule: O(1) a subscription.
    fn audit_subscriptions(&self) -> Result<(), Invariant> {
        let now = self.events.now();
        for (&id, sub) in &self.subscriptions {
            if sub.reports.last_issued_at_us().is_some_and(|at| at > now) {
                return Err(Invariant::SubscriptionLedger { id });
            }
        }
        Ok(())
    }
}
