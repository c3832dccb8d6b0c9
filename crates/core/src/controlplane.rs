//! Control-plane topology: sharded Cloud Controllers and an
//! Attestation-Server replica pool.
//!
//! CloudMonatt's Figure 2 concentrates the trust pipeline in one Cloud
//! Controller and one Attestation Server; this module describes the
//! redundancy layer that turns a control-plane crash into a latency
//! blip instead of an outage. It is pure *topology* — who owns which
//! VM, which replica serves which session — and deliberately knows
//! nothing about the data-plane latency model, channels, or caches:
//!
//! * **Controller sharding.** VM records, subscriptions and placement
//!   decisions are routed to one of `K` controller instances by a
//!   stable hash of the [`Vid`]. Every shard has a *home* instance
//!   (`shard == instance index`); when the home is down, ownership
//!   moves deterministically to the next live instance on the ring
//!   (`home, home+1, …` mod `K`). Ownership is a pure function of the
//!   up-set, so there is no adoption state to drift: recomputing after
//!   every transition *is* the failover, and "every shard owned by
//!   exactly one live instance" holds by construction whenever any
//!   instance is live.
//! * **AS replica pool.** Each session has a preferred replica (again a
//!   stable `Vid` hash, salted so controller and AS assignments are
//!   independent); a crashed replica reroutes sessions to the next live
//!   replica at admission time. Replicas are *fully independent*
//!   appraisers — each has its own signing identity, its own privacy-CA
//!   certification chain and its own evidence/AVK caches (warmed
//!   separately), so a replica crash invalidates only that replica's
//!   state.
//!
//! Routing decisions are taken once, at session admission, and pinned
//! in the session's [`RouteTag`]: an instance that dies mid-session
//! fails those sessions fast (they re-enter through the admission
//! hysteresis gate and are re-routed), it never migrates live protocol
//! state.
//!
//! Instances and replicas are addressed by index in one namespace —
//! [`NodeId::Controller`]`(i)` and [`NodeId::AttestationServer`]`(r)` —
//! and index 0 is an ordinary member of each ring. Which secure link a
//! protocol hop crosses, and which nodes terminate it, is resolved from
//! the route in `crate::links`.
//!
//! The K=1/N=1 topology is *dormant*: every route is the zero tag, no
//! extra key material or channels exist, and the wire format is
//! byte-identical to the unreplicated cloud (pinned by the golden
//! trace).

use crate::types::{NodeId, Vid};

/// Hash salt separating the AS-replica assignment from the controller
/// shard assignment, so the two ring positions of a VM are independent.
const REPLICA_SALT: u64 = 0x5EED_A5A5_0F0F_3C3C;

/// SplitMix64 finalizer — a stable, well-mixed `Vid → u64` hash. The
/// shard map must never depend on `HashMap` iteration order or other
/// ambient state, so the hash is spelled out here.
fn splitmix64(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The first live member of a ring of `up` flags, scanning from
/// `start` — the one failover rule controllers and AS replicas share.
fn first_live(up: &[bool], start: u32) -> Option<u32> {
    let n = up.len() as u32;
    (0..n)
        .map(|step| (start + step) % n.max(1))
        .find(|&i| up.get(i as usize).copied().unwrap_or(false))
}

/// The customer's secure-channel peer name. The customer endpoint is
/// assumed reliable (it is outside the provider), so it has no
/// [`NodeId`]; this constant is the single source of its name.
pub const CUSTOMER_ENDPOINT: &str = "customer";

/// Where one session's control-plane hops go: the shard its `Vid`
/// hashes to, the controller instance that currently owns that shard,
/// and the AS replica appraising it. Pinned into the session at
/// admission and stamped onto every record when the topology is
/// non-dormant (see `messages.rs`), so a misrouted record is detected
/// rather than silently served by the wrong instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteTag {
    /// The controller shard `hash(vid) % K`.
    pub shard: u32,
    /// The controller instance owning `shard` at admission time.
    pub controller: u32,
    /// The AS replica serving messages 2–5 of this session.
    pub replica: u32,
}

/// Failover observability: how often ownership moved and how many
/// sessions were rerouted. All counters are cumulative over the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Controller crashes that moved at least one owned shard to a
    /// standby.
    pub failovers: u64,
    /// Shards adopted by a standby instance after a controller crash.
    pub shards_adopted: u64,
    /// Shards whose home (or a nearer ring instance) took ownership
    /// back after a controller recovery.
    pub shards_reclaimed: u64,
    /// Sessions admitted against a non-preferred AS replica because the
    /// preferred one was down.
    pub as_reroutes: u64,
    /// Sessions admitted against a standby controller instance because
    /// their shard's home instance was down.
    pub failover_sessions: u64,
}

/// The replicated control-plane topology: `K` controller instances,
/// `N` AS replicas, and the live/down health of each. See the module
/// docs for the ownership and routing rules.
#[derive(Clone, Debug)]
pub struct ControlPlaneTopology {
    shards: u32,
    replicas: u32,
    controller_up: Vec<bool>,
    replica_up: Vec<bool>,
    /// Current owner of each shard (`None` iff no controller is live).
    owner: Vec<Option<u32>>,
    stats: ControlPlaneStats,
}

impl ControlPlaneTopology {
    /// A topology with `controllers` sharded controller instances and
    /// an AS pool of `replicas` (both clamped to ≥ 1). Everything
    /// starts live; each shard starts at its home instance.
    pub fn new(controllers: u32, replicas: u32) -> Self {
        let shards = controllers.max(1);
        let replicas = replicas.max(1);
        ControlPlaneTopology {
            shards,
            replicas,
            controller_up: vec![true; shards as usize],
            replica_up: vec![true; replicas as usize],
            owner: (0..shards).map(Some).collect(),
            stats: ControlPlaneStats::default(),
        }
    }

    /// Number of controller instances (== number of shards), `K`.
    pub fn controllers(&self) -> u32 {
        self.shards
    }

    /// Number of AS replicas, `N`.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// True for the unreplicated K=1/N=1 topology: no extra key
    /// material, no routing metadata on the wire, byte-identical to the
    /// pre-replication cloud.
    pub fn is_dormant(&self) -> bool {
        self.shards == 1 && self.replicas == 1
    }

    /// Cumulative failover/reroute counters.
    pub fn stats(&self) -> ControlPlaneStats {
        self.stats
    }

    /// The controller shard `vid` hashes to.
    pub fn shard_of(&self, vid: Vid) -> u32 {
        (splitmix64(vid.0) % u64::from(self.shards)) as u32
    }

    /// The AS replica `vid` prefers when all replicas are live.
    pub fn preferred_replica(&self, vid: Vid) -> u32 {
        (splitmix64(vid.0 ^ REPLICA_SALT) % u64::from(self.replicas)) as u32
    }

    /// The live owner of `shard`: the first live instance on the ring
    /// starting at the shard's home. `None` iff every controller
    /// instance is down.
    pub fn owner_of_shard(&self, shard: u32) -> Option<u32> {
        self.owner.get(shard as usize).copied().flatten()
    }

    /// Whether controller instance `instance` is currently live.
    pub fn controller_is_live(&self, instance: u32) -> bool {
        self.controller_up
            .get(instance as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Whether AS replica `replica` is currently live.
    pub fn replica_is_live(&self, replica: u32) -> bool {
        self.replica_up
            .get(replica as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Every control-plane node of this topology, controllers first —
    /// the set the [`crate::OutageModel`] churns when control-plane
    /// MTBF is configured.
    pub fn control_nodes(&self) -> Vec<NodeId> {
        (0..self.shards)
            .map(NodeId::Controller)
            .chain((0..self.replicas).map(NodeId::AttestationServer))
            .collect()
    }

    /// Routes one session at admission time. Infallible by design:
    /// when every instance (or replica) is down the route falls back
    /// to the *home* node, and the session fail-fasts against it with
    /// the usual `NodeDown` error — exactly the unreplicated behavior.
    pub fn route_for(&mut self, vid: Vid) -> RouteTag {
        let shard = self.shard_of(vid);
        let controller = match self.owner_of_shard(shard) {
            Some(instance) => {
                if instance != shard {
                    self.stats.failover_sessions += 1;
                }
                instance
            }
            None => shard,
        };
        let preferred = self.preferred_replica(vid);
        let replica = match self.live_replica_from(preferred) {
            Some(r) => {
                if r != preferred {
                    self.stats.as_reroutes += 1;
                }
                r
            }
            None => preferred,
        };
        RouteTag {
            shard,
            controller,
            replica,
        }
    }

    /// The replica a session for `vid` would be served by right now:
    /// the preferred replica, or the next live one on the ring when
    /// the preferred is down (falling back to the preferred — and its
    /// `NodeDown` fail-fast — when every replica is down). Pure;
    /// reroute *counting* happens only at admission in
    /// [`ControlPlaneTopology::route_for`].
    pub fn serving_replica(&self, vid: Vid) -> u32 {
        let preferred = self.preferred_replica(vid);
        self.live_replica_from(preferred).unwrap_or(preferred)
    }

    /// First live replica on the ring starting at `preferred`.
    fn live_replica_from(&self, preferred: u32) -> Option<u32> {
        first_live(&self.replica_up, preferred)
    }

    /// Recomputes every shard's owner from the up-set; returns how many
    /// shards changed hands.
    fn recompute_owners(&mut self) -> u64 {
        let mut moved = 0u64;
        for shard in 0..self.shards {
            // First live controller instance on the ring from home.
            let new = first_live(&self.controller_up, shard);
            if let Some(slot) = self.owner.get_mut(shard as usize) {
                if *slot != new {
                    *slot = new;
                    moved += 1;
                }
            }
        }
        moved
    }

    /// Records a node crash. Server crashes are not topology events and
    /// are ignored; a controller crash triggers the deterministic
    /// failover (standbys adopt the dead instance's shards), an AS
    /// crash gates the replica out of selection.
    pub fn on_crash(&mut self, node: NodeId) {
        match node {
            NodeId::Controller(i) => {
                if let Some(slot) = self.controller_up.get_mut(i as usize) {
                    *slot = false;
                }
                let moved = self.recompute_owners();
                if moved > 0 {
                    self.stats.failovers += 1;
                    self.stats.shards_adopted += moved;
                }
            }
            NodeId::AttestationServer(r) => {
                if let Some(slot) = self.replica_up.get_mut(r as usize) {
                    *slot = false;
                }
            }
            NodeId::Server(_) => {}
        }
    }

    /// Records a node recovery: a recovered controller reclaims the
    /// shards it is nearest home for; a recovered AS replica re-enters
    /// selection (with cold caches — warming is the replica's problem,
    /// not the topology's).
    pub fn on_recover(&mut self, node: NodeId) {
        match node {
            NodeId::Controller(i) => {
                if let Some(slot) = self.controller_up.get_mut(i as usize) {
                    *slot = true;
                }
                self.stats.shards_reclaimed += self.recompute_owners();
            }
            NodeId::AttestationServer(r) => {
                if let Some(slot) = self.replica_up.get_mut(r as usize) {
                    *slot = true;
                }
            }
            NodeId::Server(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_topology_routes_everything_to_zero() {
        let mut t = ControlPlaneTopology::new(1, 1);
        assert!(t.is_dormant());
        for v in 0..64 {
            assert_eq!(t.route_for(Vid(v)), RouteTag::default());
        }
        assert_eq!(t.stats(), ControlPlaneStats::default());
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let t = ControlPlaneTopology::new(4, 3);
        let mut seen_shards = [false; 4];
        let mut seen_replicas = [false; 3];
        for v in 0..256 {
            let s = t.shard_of(Vid(v));
            let r = t.preferred_replica(Vid(v));
            assert_eq!(s, t.shard_of(Vid(v)), "stable");
            if let Some(slot) = seen_shards.get_mut(s as usize) {
                *slot = true;
            }
            if let Some(slot) = seen_replicas.get_mut(r as usize) {
                *slot = true;
            }
        }
        assert!(seen_shards.iter().all(|&b| b), "all shards hit");
        assert!(seen_replicas.iter().all(|&b| b), "all replicas hit");
    }

    #[test]
    fn controller_crash_fails_over_on_the_ring_and_recovery_reclaims() {
        let mut t = ControlPlaneTopology::new(3, 1);
        assert_eq!(t.owner_of_shard(1), Some(1));
        t.on_crash(NodeId::Controller(1));
        assert_eq!(t.owner_of_shard(1), Some(2), "next live on the ring");
        assert_eq!(t.owner_of_shard(0), Some(0), "other shards untouched");
        assert_eq!(t.stats().failovers, 1);
        assert_eq!(t.stats().shards_adopted, 1);
        t.on_crash(NodeId::Controller(2));
        assert_eq!(t.owner_of_shard(1), Some(0), "wraps past two dead");
        assert_eq!(t.owner_of_shard(2), Some(0));
        t.on_recover(NodeId::Controller(1));
        assert_eq!(t.owner_of_shard(1), Some(1), "home reclaims");
        // Shard 2's home is still down; its ring scan (2 → 0 → 1) finds
        // instance 0 first, so recovery of 1 does not move it.
        assert_eq!(t.owner_of_shard(2), Some(0), "ring order is stable");
        assert_eq!(t.stats().shards_reclaimed, 1);
    }

    #[test]
    fn all_controllers_down_routes_to_home_for_fail_fast() {
        let mut t = ControlPlaneTopology::new(2, 1);
        t.on_crash(NodeId::Controller(0));
        t.on_crash(NodeId::Controller(1));
        let vid = Vid(7);
        let home = t.shard_of(vid);
        assert_eq!(t.owner_of_shard(home), None);
        assert_eq!(t.route_for(vid).controller, home);
    }

    #[test]
    fn replica_crash_reroutes_sessions_and_counts() {
        let mut t = ControlPlaneTopology::new(1, 2);
        let vid = (0..64)
            .map(Vid)
            .find(|&v| t.preferred_replica(v) == 1)
            .unwrap_or(Vid(0));
        t.on_crash(NodeId::AttestationServer(1));
        let tag = t.route_for(vid);
        assert_eq!(tag.replica, 0, "rerouted to the live replica");
        assert_eq!(t.stats().as_reroutes, 1);
        t.on_recover(NodeId::AttestationServer(1));
        assert_eq!(t.route_for(vid).replica, 1, "preference restored");
    }

    #[test]
    fn server_churn_is_not_a_topology_event() {
        let mut t = ControlPlaneTopology::new(2, 2);
        let before = t.clone();
        t.on_crash(NodeId::Server(crate::types::ServerId(3)));
        t.on_recover(NodeId::Server(crate::types::ServerId(3)));
        assert_eq!(t.owner_of_shard(0), before.owner_of_shard(0));
        assert_eq!(t.stats(), before.stats());
    }

    #[test]
    fn control_nodes_enumerates_the_whole_plane() {
        let t = ControlPlaneTopology::new(2, 2);
        assert_eq!(
            t.control_nodes(),
            vec![
                NodeId::Controller(0),
                NodeId::Controller(1),
                NodeId::AttestationServer(0),
                NodeId::AttestationServer(1),
            ]
        );
    }
}
