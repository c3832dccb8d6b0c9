//! Secure-link addressing: the one place that knows which link a
//! protocol hop crosses, which nodes terminate it, and how it is
//! (re-)keyed.
//!
//! A [`LinkKey`] is the address of one SSL-like link of the
//! control-plane mesh. [`Hop::of`] maps a Figure-3 message of a routed
//! session to its link and direction; [`LinkKey::ends`] yields the
//! link's two ends. Everything else — the channel halves a hop seals
//! and opens with, the nodes whose crash fails the hop fast, the peer
//! names and long-term identities a handshake runs between, the links a
//! recovery marks stale — derives from those two functions.
//!
//! [`Links`] owns the transport state behind the addresses: every
//! channel pair, the long-term identity of every link end, and the set
//! of links awaiting a lazy re-key.

use crate::controlplane::RouteTag;
use crate::error::{CloudError, EndName};
use crate::outage::OutageStats;
use crate::protocol::{Channel, MsgKind, MsgRow};
use crate::session::LOST_SESSION;
use crate::types::{NodeId, ServerId};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::SigningKey;
use monatt_net::channel::{handshake_pair, SecureChannel};
use std::collections::{BTreeMap, BTreeSet};

/// Both endpoints of one SSL-like link, with the peer names resolved
/// once at handshake time so protocol hops never format endpoint
/// identifiers.
pub(crate) struct ChannelPair {
    initiator: SecureChannel,
    responder: SecureChannel,
}

/// One secure link of the control-plane mesh, identified by the
/// instances it connects. The unit of lazy re-keying: a recovery marks
/// the node's links stale, and each link re-handshakes on first use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LinkKey {
    /// Customer ↔ controller instance `i` (session key Kx).
    CustCtrl(u32),
    /// Controller instance `i` ↔ AS replica `r` (Ky).
    CtrlAs(u32, u32),
    /// AS replica `r` ↔ one cloud server (Kz).
    AsServer(u32, ServerId),
}

impl LinkKey {
    /// The link's `[initiator, responder]` ends. `None` is the
    /// customer: it sits outside the provider, is assumed reliable and
    /// so has no [`NodeId`] — the `Some` ends are exactly the nodes a
    /// hop on this link depends on.
    pub(crate) fn ends(self) -> [Option<NodeId>; 2] {
        match self {
            LinkKey::CustCtrl(i) => [None, Some(NodeId::Controller(i))],
            LinkKey::CtrlAs(i, r) => [
                Some(NodeId::Controller(i)),
                Some(NodeId::AttestationServer(r)),
            ],
            LinkKey::AsServer(r, id) => {
                [Some(NodeId::AttestationServer(r)), Some(NodeId::Server(id))]
            }
        }
    }

    /// Whether `node` terminates this link.
    pub(crate) fn touches(self, node: NodeId) -> bool {
        self.ends().contains(&Some(node))
    }

    /// The error for a link the mesh does not hold. Routes and
    /// placements are built from the topology the mesh was laid out
    /// for, so this is surfaced as a typed error rather than trusted.
    #[cold]
    fn missing(self) -> CloudError {
        match self {
            LinkKey::AsServer(_, id) => CloudError::UnknownServer(id),
            _ => LOST_SESSION,
        }
    }
}

/// A resolved protocol hop: the link it crosses and which way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hop {
    pub(crate) link: LinkKey,
    /// `false` for a request travelling initiator → responder
    /// (messages 1, 2, 3), `true` for the response coming back
    /// (messages 4, 5, 6).
    pub(crate) reply: bool,
}

impl Hop {
    /// The hop a Figure-3 message makes for a session routed by `route`
    /// and placed on `server` (its [`MsgKind::row`] names the channel).
    /// The single source of endpoint resolution — protocol code never
    /// names a link by string.
    pub(crate) fn of(msg: MsgKind, route: RouteTag, server: ServerId) -> Hop {
        let MsgRow { channel, reply, .. } = msg.row();
        let link = match channel {
            Channel::Kx => LinkKey::CustCtrl(route.controller),
            Channel::Ky => LinkKey::CtrlAs(route.controller, route.replica),
            Channel::Kz => LinkKey::AsServer(route.replica, server),
        };
        Hop { link, reply }
    }

    /// The hop's `(sender, receiver)` link ends.
    pub(crate) fn ends(self) -> (Option<NodeId>, Option<NodeId>) {
        let [initiator, responder] = self.link.ends();
        match self.reply {
            false => (initiator, responder),
            true => (responder, initiator),
        }
    }
}

/// Every secure channel of the cloud and the long-term identities
/// behind them, laid out by the control-plane topology: `K`
/// customer↔controller links, a `K×N` controller↔AS mesh (row-major by
/// controller instance), and one AS↔server link per `(replica,
/// server)`. The dormant K=1/N=1 layout is exactly the paper's
/// three-channel cloud.
pub(crate) struct Links {
    cust_ctrl: Vec<ChannelPair>,
    ctrl_as: Vec<ChannelPair>,
    /// Row width of `ctrl_as` (the AS pool size `N`).
    replicas: u32,
    as_server: BTreeMap<(u32, ServerId), ChannelPair>,
    /// Links marked stale by a node recovery, re-keyed lazily on first
    /// use (see `OutageStats::deferred_rekeys`).
    stale: BTreeSet<LinkKey>,
    /// The long-term signing identity of every link end (`None` is the
    /// customer), retained so a recovered node re-handshakes fresh
    /// session keys — channel state from before a crash never resumes.
    identities: BTreeMap<Option<NodeId>, SigningKey>,
}

impl Links {
    /// An empty mesh for an AS pool of `replicas`.
    pub(crate) fn new(replicas: u32) -> Self {
        Links {
            cust_ctrl: Vec::new(),
            ctrl_as: Vec::new(),
            replicas: replicas.max(1),
            as_server: BTreeMap::new(),
            stale: BTreeSet::new(),
            identities: BTreeMap::new(),
        }
    }

    /// Registers the long-term channel identity of one link end.
    pub(crate) fn add_identity(&mut self, end: Option<NodeId>, key: SigningKey) {
        self.identities.insert(end, key);
    }

    /// Handshakes `link` for the first time and adds it to the mesh.
    /// The two dense tables fill by `push`, so the builder establishes
    /// `CustCtrl(0..K)` ascending and the `CtrlAs` mesh row-major.
    ///
    /// # Errors
    ///
    /// [`CloudError::ChannelEstablishment`] if the handshake fails.
    pub(crate) fn establish(&mut self, rng: &mut Drbg, link: LinkKey) -> Result<(), CloudError> {
        let pair = self.handshake(rng, link)?;
        match link {
            LinkKey::CustCtrl(_) => self.cust_ctrl.push(pair),
            LinkKey::CtrlAs(..) => self.ctrl_as.push(pair),
            LinkKey::AsServer(r, id) => {
                self.as_server.insert((r, id), pair);
            }
        }
        Ok(())
    }

    /// Runs the handshake between the long-term identities of `link`'s
    /// two ends and stamps the peer names.
    fn handshake(&self, rng: &mut Drbg, link: LinkKey) -> Result<ChannelPair, CloudError> {
        let [a, b] = link.ends();
        let (Some(a_key), Some(b_key)) = (self.identities.get(&a), self.identities.get(&b)) else {
            return Err(link.missing());
        };
        let (a_name, b_name) = (EndName(a).to_string(), EndName(b).to_string());
        let (mut initiator, mut responder) = match handshake_pair(rng, a_key, b_key) {
            Ok(pair) => pair,
            Err(error) => {
                return Err(CloudError::ChannelEstablishment {
                    initiator: a_name,
                    responder: b_name,
                    error,
                })
            }
        };
        initiator.set_peer(&b_name);
        responder.set_peer(&a_name);
        Ok(ChannelPair {
            initiator,
            responder,
        })
    }

    /// The channel pair at `link`. Customer↔controller and
    /// controller↔AS links are plain index operations.
    pub(crate) fn pair_mut(&mut self, link: LinkKey) -> Option<&mut ChannelPair> {
        match link {
            LinkKey::CustCtrl(i) => self.cust_ctrl.get_mut(i as usize),
            LinkKey::CtrlAs(i, r) => {
                let idx = (i as usize)
                    .checked_mul(self.replicas as usize)?
                    .checked_add(r as usize)?;
                self.ctrl_as.get_mut(idx)
            }
            LinkKey::AsServer(r, id) => self.as_server.get_mut(&(r, id)),
        }
    }

    /// The `(sender, receiver)` channel halves of `hop`.
    pub(crate) fn channels(
        &mut self,
        hop: Hop,
    ) -> Result<(&mut SecureChannel, &mut SecureChannel), CloudError> {
        let pair = self.pair_mut(hop.link).ok_or_else(|| hop.link.missing())?;
        Ok(if hop.reply {
            (&mut pair.responder, &mut pair.initiator)
        } else {
            (&mut pair.initiator, &mut pair.responder)
        })
    }

    /// Every link of the mesh.
    pub(crate) fn keys(&self) -> impl Iterator<Item = LinkKey> + '_ {
        let n = self.replicas;
        (0..self.cust_ctrl.len() as u32)
            .map(LinkKey::CustCtrl)
            .chain((0..self.ctrl_as.len() as u32).map(move |idx| LinkKey::CtrlAs(idx / n, idx % n)))
            .chain(
                self.as_server
                    .keys()
                    .map(|&(r, id)| LinkKey::AsServer(r, id)),
            )
    }

    /// Marks every link `node` terminates stale. Each stale link
    /// re-handshakes on its first post-recovery use (see
    /// [`Links::refresh_if_stale`], called from the transmit path):
    /// session keys from before the crash never resume, but a mass
    /// recovery costs nothing until traffic actually crosses a link.
    pub(crate) fn mark_stale(&mut self, node: NodeId, stats: &mut OutageStats) {
        let touched: Vec<LinkKey> = self.keys().filter(|link| link.touches(node)).collect();
        for link in touched {
            if self.stale.insert(link) {
                stats.deferred_rekeys += 1;
            }
        }
    }

    /// Re-establishes `link` with fresh session keys if a recovery
    /// marked it stale — the lazy half of the post-recovery re-key,
    /// paid at the link's first use instead of in a synchronized burst
    /// at recovery time.
    pub(crate) fn refresh_if_stale(
        &mut self,
        link: LinkKey,
        rng: &mut Drbg,
        stats: &mut OutageStats,
    ) {
        if self.stale.remove(&link) {
            self.rekey(link, rng, stats);
        }
    }

    /// A handshake between honest in-process parties only fails on a
    /// simulation bug; the old channel is then left in place (sessions
    /// on it will fail loudly) rather than panic.
    #[cold]
    fn rekey(&mut self, link: LinkKey, rng: &mut Drbg, stats: &mut OutageStats) {
        let Ok(fresh) = self.handshake(rng, link) else {
            return;
        };
        if let Some(pair) = self.pair_mut(link) {
            *pair = fresh;
            stats.rehandshakes += 1;
        }
    }
}

#[cfg(test)]
impl Links {
    /// Re-keys `link` from `seed` and hands back a twin of its new
    /// `(initiator, responder)` ends — the session key leaked to a
    /// network attacker, which can then open and re-seal the link's
    /// records.
    pub(crate) fn leak(&mut self, link: LinkKey, seed: u64) -> (SecureChannel, SecureChannel) {
        let pair = |links: &Links| links.handshake(&mut Drbg::from_seed(seed), link).unwrap();
        let twin = pair(self);
        *self.pair_mut(link).unwrap() = pair(self);
        (twin.initiator, twin.responder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{Cloud, CloudBuilder};
    use crate::session::{AttestSession, SessionOrigin};
    use crate::types::{Image, SecurityProperty, Vid};

    const SERVER: ServerId = ServerId(1);
    const REQUESTS: [MsgKind; 3] = [MsgKind::Msg1, MsgKind::Msg2, MsgKind::Msg3];
    const REPLIES: [MsgKind; 3] = [MsgKind::Msg6, MsgKind::Msg5, MsgKind::Msg4];

    fn replicated_cloud() -> Cloud {
        CloudBuilder::new()
            .servers(2)
            .seed(1207)
            .control_plane(3, 2)
            .build()
    }

    /// Every route tag a `(3, 2)` topology can pin.
    fn routes() -> impl Iterator<Item = RouteTag> {
        (0..3).flat_map(|shard| {
            (0..3).flat_map(move |controller| {
                (0..2).map(move |replica| RouteTag {
                    shard,
                    controller,
                    replica,
                })
            })
        })
    }

    /// Figure 3 as data, spelled independently of the resolver: the
    /// cloud nodes each message's hop depends on.
    fn figure3_nodes(msg: MsgKind, route: RouteTag) -> Vec<NodeId> {
        let ctrl = NodeId::Controller(route.controller);
        let attsrv = NodeId::AttestationServer(route.replica);
        [
            (MsgKind::Msg1, vec![ctrl]),
            (MsgKind::Msg2, vec![ctrl, attsrv]),
            (MsgKind::Msg3, vec![attsrv, NodeId::Server(SERVER)]),
            (MsgKind::Msg4, vec![attsrv, NodeId::Server(SERVER)]),
            (MsgKind::Msg5, vec![ctrl, attsrv]),
            (MsgKind::Msg6, vec![ctrl]),
        ]
        .into_iter()
        .find(|(m, _)| *m == msg)
        .map(|(_, nodes)| nodes)
        .unwrap()
    }

    fn all_nodes(cloud: &Cloud) -> Vec<NodeId> {
        let mut nodes = cloud.control_plane().control_nodes();
        nodes.extend((0..cloud.server_count() as u32).map(|i| NodeId::Server(ServerId(i))));
        nodes
    }

    #[test]
    fn link_ends_are_exactly_the_nodes_whose_crash_fails_the_hop_fast() {
        let mut c = replicated_cloud();
        let nodes = all_nodes(&c);
        assert_eq!(nodes.len(), 3 + 2 + 2);
        let program = c.programs.fig3_customer;
        for msg in REQUESTS.into_iter().chain(REPLIES) {
            for route in routes() {
                let expected = figure3_nodes(msg, route);
                let ends: Vec<NodeId> = Hop::of(msg, route, SERVER)
                    .link
                    .ends()
                    .into_iter()
                    .flatten()
                    .collect();
                assert_eq!(ends, expected, "{msg} on {route:?}");
                for &node in &nodes {
                    // Park a session on this hop, then crash `node`
                    // through the real crash path.
                    let (sid, session) = c
                        .events
                        .sessions
                        .alloc_with(|| AttestSession::VACANT)
                        .unwrap();
                    session.reset(
                        Vid(1),
                        SERVER,
                        route,
                        SecurityProperty::RuntimeIntegrity,
                        Image::Cirros,
                        program,
                        SessionOrigin::Api,
                    );
                    session.msg = msg;
                    c.crash_node(node);
                    let outcome = c.events.sessions.get_mut(sid).unwrap().pending.take();
                    match outcome {
                        Some(Err(CloudError::NodeDown { node: down })) => {
                            assert_eq!(down, node);
                            assert!(expected.contains(&node), "{msg} {route:?} {node}");
                        }
                        None => assert!(!expected.contains(&node), "{msg} {route:?} {node}"),
                        other => panic!("unexpected outcome {other:?}"),
                    }
                    c.events.sessions.remove(sid);
                    c.recover_node(node);
                }
            }
        }
    }

    #[test]
    fn requests_and_replies_cross_the_same_link_in_opposite_directions() {
        let mut c = replicated_cloud();
        let mut peers = |hop: Hop| {
            let (send, recv) = c.links.channels(hop).unwrap();
            // A channel half's `peer()` names the far end.
            (send.peer().to_owned(), recv.peer().to_owned())
        };
        for (request, reply) in REQUESTS.into_iter().zip(REPLIES) {
            for route in routes() {
                let (out, back) = (
                    Hop::of(request, route, SERVER),
                    Hop::of(reply, route, SERVER),
                );
                assert_eq!(out.link, back.link, "{request}/{reply} share a link");
                assert!(!out.reply && back.reply);
                let (from, to) = out.ends();
                assert_eq!(back.ends(), (to, from), "{reply} flips {request}");
                let names = |a, b| (EndName(a).to_string(), EndName(b).to_string());
                assert_eq!(peers(out), names(to, from));
                assert_eq!(peers(back), names(from, to));
            }
        }
    }

    #[test]
    fn mark_stale_marks_exactly_the_links_a_node_terminates() {
        let mut c = replicated_cloud();
        let links: Vec<LinkKey> = c.links.keys().collect();
        // K customer links, the K×N mesh, N×S server links.
        assert_eq!(links.len(), 3 + 3 * 2 + 2 * 2);
        for node in all_nodes(&c) {
            let deferred = c.outage.stats.deferred_rekeys;
            c.links.mark_stale(node, &mut c.outage.stats);
            let terminated = |link: &LinkKey| link.ends().contains(&Some(node));
            assert_eq!(
                c.outage.stats.deferred_rekeys - deferred,
                links.iter().filter(|l| terminated(l)).count() as u64
            );
            // A link re-handshakes on first use iff it was marked — and
            // never a second time.
            for (pass, &link) in links.iter().chain(&links).enumerate() {
                let rekeys = c.outage.stats.rehandshakes;
                c.links
                    .refresh_if_stale(link, &mut c.rng, &mut c.outage.stats);
                let rekeyed = c.outage.stats.rehandshakes - rekeys == 1;
                let first_use = pass < links.len();
                assert_eq!(rekeyed, first_use && terminated(&link), "{link:?} {node}");
            }
        }
    }
}
