//! The appraiser pool of [`Cloud`](super::Cloud): the Attestation-Server
//! replicas and the state that sits in front of them — the admission
//! gate, the msg-4 coalescing buffer and the evidence validity window.
//!
//! Each replica is a fully independent appraiser (own signing identity,
//! own privacy CA, own evidence/AVK caches), so everything that must
//! reach *every* replica — invalidating a VM's evidence, advancing the
//! trust boundary on a re-key — is a method here, written once.

use crate::attestation::{AttestationServer, CachedEvidence};
use crate::error::CloudError;
use crate::messages::MeasureResponse;
use crate::outage::AdmissionControl;
use crate::session::{Msg4Meta, PendingMsg4, LOST_SESSION};
use crate::types::{HealthStatus, SecurityProperty, Vid};
use monatt_net::wire::EncodeScratch;

/// The AS replicas and their shared front door. See the module docs.
pub(crate) struct Appraisers {
    /// The replicas, indexed by replica. One element in the dormant
    /// topology.
    replicas: Vec<AttestationServer>,
    /// The admission gate, if configured.
    admission: Option<AdmissionControl>,
    /// Msg-4 coalescing window, microseconds. 0 (the default) disables
    /// coalescing: message 4 validates inline on arrival, the
    /// pre-batching path.
    pub(crate) batch_window_us: u64,
    /// Maximum responses per coalesced batch; reaching it flushes
    /// immediately (inline, before the window timer).
    pub(crate) batch_max: usize,
    /// Measurement responses parked awaiting the next batched
    /// validation pass.
    pub(crate) pending_msg4: Vec<PendingMsg4>,
    /// Evidence-cache validity window: `Some(ttl)` serves repeat
    /// attestation requests for the same `(Vid, property)` from the
    /// serving replica's cache for `ttl` microseconds. `None` (the
    /// default) disables the cache entirely.
    evidence_ttl_us: Option<u64>,
    /// Reusable encode buffers for rebuilding quote fields (measurement
    /// spec/measurement, property/status) during validation and
    /// certification — lent to the controller's message-6 signing too.
    pub(crate) quote_scratch: EncodeScratch,
}

impl Appraisers {
    pub(crate) fn new(
        replicas: Vec<AttestationServer>,
        admission: Option<AdmissionControl>,
        (batch_window_us, batch_max): (u64, usize),
        evidence_ttl_us: Option<u64>,
    ) -> Self {
        Appraisers {
            replicas,
            admission,
            batch_window_us,
            batch_max,
            pending_msg4: Vec::new(),
            evidence_ttl_us,
            quote_scratch: EncodeScratch::new(),
        }
    }

    /// The replica a session's route names, with the shared quote
    /// scratch alongside (the two are always used together).
    pub(crate) fn routed(
        &mut self,
        replica: u32,
    ) -> Result<(&mut AttestationServer, &mut EncodeScratch), CloudError> {
        let attserver = self
            .replicas
            .get_mut(replica as usize)
            .ok_or(LOST_SESSION)?;
        Ok((attserver, &mut self.quote_scratch))
    }

    /// Read access to one replica.
    pub(crate) fn replica(&self, replica: u32) -> Option<&AttestationServer> {
        self.replicas.get(replica as usize)
    }

    /// The admission decision for one new session; `false` sheds it.
    pub(crate) fn admit(&mut self, in_flight: usize) -> bool {
        self.admission
            .as_mut()
            .is_none_or(|gate| gate.admit(in_flight))
    }

    /// Whether the admission gate is currently refusing new sessions.
    pub(crate) fn is_shedding(&self) -> bool {
        self.admission.is_some_and(|g| g.is_shedding())
    }

    /// The msg-4 tail's appraisal half: interprets a *validated*
    /// response at the session's replica and, when a validity window is
    /// configured, records the verdict as evidence.
    pub(crate) fn appraise(
        &mut self,
        meta: &Msg4Meta,
        msg4: &MeasureResponse,
        now_us: u64,
    ) -> Result<HealthStatus, CloudError> {
        let ttl = self.evidence_ttl_us;
        let (attserver, _) = self.routed(meta.replica)?;
        let status = attserver.interpret_response(meta.property, msg4, meta.image);
        if let Some(ttl) = ttl {
            let valid_until = now_us + ttl;
            attserver.evidence_insert(
                meta.vid,
                meta.property,
                meta.server,
                status.clone(),
                valid_until,
            );
        }
        Ok(status)
    }

    /// Fresh cached evidence for `(vid, property)` at `replica`, if a
    /// validity window is configured.
    pub(crate) fn evidence_lookup(
        &mut self,
        replica: u32,
        vid: Vid,
        property: SecurityProperty,
        now_us: u64,
    ) -> Option<CachedEvidence> {
        self.evidence_ttl_us?;
        self.replicas
            .get_mut(replica as usize)?
            .evidence_lookup(vid, property, now_us)
    }

    /// Applies `f` to replica `only`, or to every replica (`None`) — the
    /// one fan-out over the pool. Replica state is independent, so what
    /// must reach all of them (a re-key advancing every pCA epoch, a
    /// server's evidence going void) is said once, at the call site.
    pub(crate) fn each(&mut self, only: Option<u32>, f: impl Fn(&mut AttestationServer)) {
        let pool = self.replicas.iter_mut().enumerate();
        pool.filter(|(r, _)| only.is_none_or(|o| o as usize == *r))
            .for_each(|(_, attserver)| f(attserver));
    }

    /// Cached evidence about `vid` is stale on every replica, not just
    /// the one that served it (new host, suspended, or gone).
    pub(crate) fn invalidate_vid(&mut self, vid: Vid) {
        self.each(None, |a| a.invalidate_evidence_for_vid(vid));
    }

    /// Sums one `(hits, misses)` counter pair over `replica`, or over
    /// every replica (`None`); `(0, 0)` for an index outside the pool.
    pub(crate) fn cache_stats(
        &self,
        replica: Option<u32>,
        stats: fn(&AttestationServer) -> (u64, u64),
    ) -> (u64, u64) {
        let pool = self.replicas.iter().enumerate();
        pool.filter(|(r, _)| replica.is_none_or(|o| o as usize == *r))
            .map(|(_, attserver)| stats(attserver))
            .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm))
    }
}
