//! The fleet side of [`Cloud`](super::Cloud): the cloud servers and the
//! Cloud Controller's nova database (one [`VmRecord`] row per live VM, a
//! tombstone per terminated one, the server capability table), with the
//! Deployment and Response modules' three primitives written once each:
//!
//! * **placement** — [`Fleet::place`] / [`Fleet::unplace`] are the only
//!   code that puts a VM on a server or takes it off (launch, migration
//!   and crash evacuation all go through them). The node's slot map owns
//!   what a server hosts; the row's `server` and the capability table's
//!   `free_vcpus` are caches of it that these two refresh;
//! * **lifecycle** — [`Fleet::set_state`] moves the node and the row
//!   together (termination leaves neither a simulator row nor a record),
//!   and [`Fleet::live`] is the one gate every operation on a VM passes:
//!   a terminated VM is [`CloudError::UnknownVm`] to all of them;
//! * **lazy time** — [`Fleet::touch`] is the one mutable path to a
//!   node, catching its simulator up to the wall clock first. Idle
//!   servers stay behind until touched; touching a busy one catches up
//!   every lagging busy server, over the host's hardware threads
//!   ([`Fleet::catch_up_busy`]). Every path moves a node through
//!   [`CloudServerNode::catch_up`], which applies a measurement window
//!   opened since ([`Fleet::open_window`]) at its own instant, so a
//!   windowed session costs one catch-up, at its message 4.

use super::LaunchTiming;
use crate::controller::{CloudController, VmLifecycle, VmRecord};
use crate::error::CloudError;
use crate::measurements::MeasurementSpec;
use crate::server::CloudServerNode;
use crate::types::{ServerId, Vid};
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::time::SimTime;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

/// Servers, VM rows, capacity, and the Response Module's own policy
/// state. See the module docs.
pub(crate) struct Fleet {
    /// The Cloud Controller: VM rows, capability table, signing keys.
    pub(crate) controller: CloudController,
    nodes: BTreeMap<ServerId, CloudServerNode>,
    /// The cloud seed; workload drivers derive theirs from it per VM.
    seed: u64,
    /// Threads that share a busy catch-up, and whether [`Cloud::run`]
    /// gets a verification helper (`> 1`): the host's hardware threads,
    /// read once at build. Changes how the work runs, never its result.
    ///
    /// [`Cloud::run`]: super::Cloud::run
    pub(crate) workers: usize,
    /// The stage breakdown of the most recent launch (Figure 9).
    pub(crate) last_launch: Option<LaunchTiming>,
    /// Whether failed attestations trigger remediation on their own.
    pub(crate) auto_response: bool,
    /// Automatic remediation responses that themselves failed (the error
    /// used to be silently discarded).
    pub(crate) auto_response_failures: u64,
    /// Busy catch-ups that shared servers over threads while one of them
    /// held a pending window.
    #[cfg(test)]
    pub(crate) shared_windows: u64,
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
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            last_launch: None,
            auto_response,
            auto_response_failures: 0,
            #[cfg(test)]
            shared_windows: 0,
        }
    }

    /// The server nodes, in id order. State is as of each node's last
    /// catch-up.
    pub(crate) fn nodes(&self) -> &BTreeMap<ServerId, CloudServerNode> {
        &self.nodes
    }

    /// The server node, caught up to `now_us` — the one mutable access
    /// path for protocol and lifecycle code, so a lazily lagging
    /// simulator is never observed or mutated at a stale instant. A busy
    /// node that lags brings every lagging busy node with it
    /// ([`Self::catch_up_busy`]).
    pub(crate) fn touch(&mut self, id: ServerId, now_us: u64) -> Option<&mut CloudServerNode> {
        if lags_busy(self.nodes.get(&id)?.sim(), SimTime::from_micros(now_us)) {
            self.catch_up_busy(now_us);
        }
        let node = self.nodes.get_mut(&id)?;
        node.catch_up(now_us);
        Some(node)
    }

    /// Opens `spec`'s measurement window for `vid` on `id` at `now_us`
    /// without catching anything up: the node applies it at its next
    /// catch-up. `None` if there is no such server.
    pub(crate) fn open_window(
        &mut self,
        id: ServerId,
        now_us: u64,
        spec: MeasurementSpec,
        vid: Vid,
    ) -> Option<()> {
        self.nodes.get_mut(&id)?.open_window(now_us, spec, vid);
        Some(())
    }

    /// Catches every server simulator up to `now_us`: the busy ones
    /// shared over the host's threads, then the idle ones' leaps here.
    pub(crate) fn sync(&mut self, now_us: u64) {
        self.catch_up_busy(now_us);
        for node in self.nodes.values_mut() {
            node.catch_up(now_us);
        }
    }

    /// Catches up every busy server that lags `now_us`, applying the
    /// windows pending on them on the way. The caller and up to
    /// `workers − 1` scoped helpers pull nodes from one queue until it is
    /// empty — work-sharing, so a helper slowed by a busy host core takes
    /// fewer servers rather than holding up the call. The helpers take
    /// from the front of the id-ordered queue and the caller from the
    /// back, so a server tends to land on the same thread from one
    /// catch-up to the next (faster than front-only pulls, DESIGN §10.1).
    /// A helper holds only the `&mut CloudServerNode` it pulled. With one
    /// hardware thread, or one server to catch up, nothing is spawned.
    ///
    /// Exact whatever the thread or order: each node is a closed value,
    /// and catching it up to `now_us` early, then on to a later instant,
    /// is the schedule of catching it up once (the lazy/eager
    /// interleavings of both `trace_pins` suites and
    /// `busy_commitment.rs`). A panic on a helper resumes here.
    fn catch_up_busy(&mut self, now_us: u64) {
        let deadline = SimTime::from_micros(now_us);
        let lagging: Vec<&mut CloudServerNode> = self
            .nodes
            .values_mut()
            .filter(|node| lags_busy(node.sim(), deadline))
            .collect();
        let helpers = (self.workers - 1).min(lagging.len().saturating_sub(1));
        #[cfg(test)]
        if helpers > 0 && lagging.iter().any(|node| node.window_pending()) {
            self.shared_windows += 1;
        }
        let queue = Mutex::new(lagging.into_iter());
        let drain = |back| {
            while let Some(node) = pull(&queue, back) {
                node.catch_up(now_us);
            }
        };
        if helpers == 0 {
            drain(true);
            return;
        }
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| drain(false));
            }
            drain(true);
        });
    }

    /// `server` crashed: its volatile attestation session dies with it,
    /// and so does its measurement window's reservation. A window still
    /// pending stays: its reset is part of the schedule before the crash.
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

    /// The lifecycle gate: the record of a live VM (only live VMs have
    /// one).
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] otherwise.
    pub(crate) fn live(&self, vid: Vid) -> Result<&VmRecord, CloudError> {
        self.controller.vm(vid).ok_or(CloudError::UnknownVm(vid))
    }

    /// The live VMs resident on `server`, in vid order: its node's slots.
    pub(crate) fn residents(&self, server: ServerId) -> Vec<Vid> {
        let node = self.nodes.get(&server);
        node.map_or_else(Vec::new, |n| n.residents().map(|(vid, _)| vid).collect())
    }

    /// Puts the recorded VM `vid` on `server`: boots its image (with the
    /// row's tamper flip), re-instantiates its workload from the
    /// declarative spec, and refreshes the two caches of the placement —
    /// the row's `server` and the server's free vCPUs.
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
        let free = node.free_vcpus();
        self.controller.cache_free_vcpus(server, free);
        Ok(())
    }

    /// Takes `vid` off its server: the simulator state goes and the
    /// server's free vCPUs are refreshed. The record stays (its `server`
    /// names the last host) for the caller to re-place or retire.
    pub(crate) fn unplace(&mut self, vid: Vid, now_us: u64) {
        let Some(server) = self.controller.vm(vid).map(|r| r.server) else {
            return;
        };
        if let Some(node) = self.touch(server, now_us) {
            node.remove_vm(vid);
            let free = node.free_vcpus();
            self.controller.cache_free_vcpus(server, free);
        }
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
            self.controller.retire_vm(vid);
            return Ok(());
        }
        if let Some(node) = self.touch(server, now_us) {
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

/// Whether `sim` is behind `deadline` with work that cannot leap.
fn lags_busy(sim: &ServerSim, deadline: SimTime) -> bool {
    sim.now() < deadline && sim.is_busy()
}

/// The front item of a shared queue, or with `back` its back item; the
/// lock is released on return.
fn pull<I: DoubleEndedIterator>(queue: &Mutex<I>, back: bool) -> Option<I::Item> {
    let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
    if back {
        queue.next_back()
    } else {
        queue.next()
    }
}
