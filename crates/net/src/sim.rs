//! The simulated network joining the four CloudMonatt entities, with
//! Dolev-Yao attacker hooks: the adversary "has full control of the
//! network between different servers … able to eavesdrop as well as
//! falsify the attestation messages" (Section 3.3).
//!
//! Besides the adversary, the network models *benign* faults — the
//! drops, duplicates, bit corruption and queueing delay of a real lossy
//! LAN — through a seeded probabilistic [`FaultModel`]. Faults compose
//! with the attacker: the adversary intercepts first (it controls the
//! network), then the fault model degrades whatever the adversary let
//! through, so attacks and packet loss coexist in one simulation.
//!
//! The network keeps no record of which nodes are down. The cloud's
//! topology owns that record and fails a hop that needs a down node
//! before it transmits, so every message that reaches [`SimNetwork`]
//! meets the adversary and the fault model.
//!
//! Transmission is synchronous (the architecture's flows are
//! request/response RPCs); each transmit reports the latency it would have
//! taken, which the core crate's latency model accumulates into the
//! end-to-end timings of Figures 9-11. Serialization cost is always
//! charged on the bytes the *sender* submitted — an adversary inflating
//! the payload (or a duplicate fault) does not distort the sender-side
//! timing model.

use monatt_crypto::drbg::Drbg;

/// What the attacker does to a message in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Intercept {
    /// Deliver unmodified.
    Pass,
    /// Deliver a substituted payload.
    Modify(Vec<u8>),
    /// Drop the message (receiver sees nothing).
    Drop,
}

/// A Dolev-Yao network adversary. Implementations see every message and
/// decide its fate.
pub trait NetworkAttacker {
    /// Called for each message in flight.
    fn intercept(&mut self, from: &str, to: &str, payload: &[u8]) -> Intercept;
}

/// A record of one transmission, kept in the network log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransmitRecord {
    /// Sender endpoint name.
    pub from: String,
    /// Receiver endpoint name.
    pub to: String,
    /// Bytes as submitted by the sender.
    pub sent: Vec<u8>,
    /// Bytes as delivered (`None` if dropped).
    pub delivered: Option<Vec<u8>>,
    /// Simulated latency of the transmission, microseconds.
    pub latency_us: u64,
}

/// A latency model: fixed per-message cost plus a per-kilobyte cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Base per-message latency (propagation + protocol overhead).
    pub base_us: u64,
    /// Additional latency per kilobyte of payload.
    pub per_kb_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // ~0.3 ms base on a LAN plus 1 Gbps-ish serialization cost
        // (8 us/KB).
        LatencyModel {
            base_us: 300,
            per_kb_us: 8,
        }
    }
}

impl LatencyModel {
    /// Latency for a payload of `len` bytes.
    pub fn latency_for(&self, len: usize) -> u64 {
        self.base_us + (len as u64).div_ceil(1024) * self.per_kb_us
    }
}

/// Delivery outcome of a transmit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Delivered bytes, or `None` if the attacker or a fault dropped the
    /// message.
    pub payload: Option<Vec<u8>>,
    /// Simulated transmission latency (including any fault-injected
    /// extra delay).
    pub latency_us: u64,
    /// The network delivered a second, identical copy of the payload
    /// (benign duplication — e.g. a spurious link-layer retransmit).
    pub duplicated: bool,
}

/// Outcome of the buffer-reusing transmit
/// ([`SimNetwork::transmit_into`]): the delivered bytes live in the
/// caller's buffer, so the outcome itself is `Copy` and allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransmitOutcome {
    /// Whether the receiver sees the message at all. When `false` the
    /// caller's output buffer is left empty.
    pub delivered: bool,
    /// Absolute virtual time at which the record reaches the receiver
    /// (`now_us + latency_us`).
    pub deliver_at_us: u64,
    /// Simulated transmission latency (including fault-injected delay).
    pub latency_us: u64,
    /// The network delivered a second, identical copy of the payload.
    pub duplicated: bool,
}

/// A seeded, probabilistic model of *benign* network faults: each
/// message is independently dropped, duplicated, bit-corrupted and/or
/// delayed. All draws come from a deterministic [`Drbg`], so a seeded
/// run replays exactly.
///
/// Probabilities are independent; drop dominates (a dropped message
/// cannot also be duplicated or corrupted). Every message consumes the
/// same number of RNG draws regardless of outcome, so changing one
/// probability does not reshuffle the fate of later messages.
#[derive(Debug)]
pub struct FaultModel {
    drop_prob: f64,
    duplicate_prob: f64,
    corrupt_prob: f64,
    delay_prob: f64,
    delay_us: u64,
    rng: Drbg,
    stats: FaultStats,
}

/// Counters of the faults a [`FaultModel`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages with a flipped byte.
    pub corrupted: u64,
    /// Messages given extra queueing delay.
    pub delayed: u64,
}

impl FaultModel {
    /// A fault-free model (all probabilities zero) with its own seeded
    /// RNG stream.
    pub fn new(seed: u64) -> Self {
        FaultModel {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay_us: 0,
            rng: Drbg::from_seed(seed ^ 0xFA_17_5E_ED),
            stats: FaultStats::default(),
        }
    }

    /// Sets the per-message drop probability.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-message duplication probability.
    pub fn duplicate_prob(mut self, p: f64) -> Self {
        self.duplicate_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-message corruption probability (one byte flipped).
    pub fn corrupt_prob(mut self, p: f64) -> Self {
        self.corrupt_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-message probability of `delay_us` extra latency.
    pub fn delay(mut self, p: f64, delay_us: u64) -> Self {
        self.delay_prob = p.clamp(0.0, 1.0);
        self.delay_us = delay_us;
        self
    }

    /// Counters of the faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One uniform draw in `[0, 1)`.
    fn draw(&mut self) -> f64 {
        // 53 random bits — exact as an f64 fraction.
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Applies the model to a message about to be delivered, mutating
    /// `payload` in place (corruption flips one byte; a dropped message
    /// leaves the bytes alone — the caller discards them). Returns
    /// whether the message is delivered, whether a duplicate copy
    /// arrives, and extra delay in microseconds.
    fn apply_in_place(&mut self, payload: &mut [u8]) -> (bool, bool, u64) {
        // Fixed draw count per message keeps seeded runs stable across
        // probability changes.
        let (d_drop, d_dup, d_corrupt, d_delay) =
            (self.draw(), self.draw(), self.draw(), self.draw());
        let corrupt_at = self.rng.next_u64();
        let extra = if d_delay < self.delay_prob {
            self.stats.delayed += 1;
            self.delay_us
        } else {
            0
        };
        if d_drop < self.drop_prob {
            self.stats.dropped += 1;
            return (false, false, extra);
        }
        if d_corrupt < self.corrupt_prob && !payload.is_empty() {
            let idx = (corrupt_at % payload.len() as u64) as usize;
            if let Some(byte) = payload.get_mut(idx) {
                *byte ^= 0x01;
            }
            self.stats.corrupted += 1;
        }
        let duplicated = d_dup < self.duplicate_prob;
        if duplicated {
            self.stats.duplicated += 1;
        }
        (true, duplicated, extra)
    }
}

/// The simulated network.
pub struct SimNetwork {
    latency: LatencyModel,
    attacker: Option<Box<dyn NetworkAttacker>>,
    faults: Option<FaultModel>,
    // Per-message log entries allocate (owned endpoint names and byte
    // copies) and the log is unbounded, so it is recorded only for a
    // caller that asks to read it; fates, latencies and RNG draws are
    // identical either way.
    logging: bool,
    log: Vec<TransmitRecord>,
}

impl std::fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("latency", &self.latency)
            .field("messages", &self.log.len())
            .field("attacker", &self.attacker.is_some())
            .finish()
    }
}

impl Default for SimNetwork {
    fn default() -> Self {
        Self::new(LatencyModel::default())
    }
}

impl SimNetwork {
    /// Creates a benign network with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        SimNetwork {
            latency,
            attacker: None,
            faults: None,
            logging: false,
            log: Vec::new(),
        }
    }

    /// Turns the transmission log on or off (off by default). With the
    /// log on every transmit is recorded, two endpoint names and both
    /// payloads copied, for [`SimNetwork::log`] to return; message
    /// fates are unaffected.
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// Always 0: the network black-holes nothing (see the module docs).
    /// This exists only because `benchmark/src/scenario.rs` folds it
    /// into its digest and drop ledger, and it goes once ROADMAP item
    /// 0 (h) drops that read.
    #[doc(hidden)]
    pub fn blackholed(&self) -> u64 {
        0
    }

    /// Installs (or replaces) the network adversary.
    pub fn set_attacker(&mut self, attacker: Box<dyn NetworkAttacker>) {
        self.attacker = Some(attacker);
    }

    /// Removes the adversary.
    pub fn clear_attacker(&mut self) {
        self.attacker = None;
    }

    /// Installs (or replaces) the benign fault model. Faults apply after
    /// the adversary, so both can be active at once.
    pub fn set_fault_model(&mut self, faults: FaultModel) {
        self.faults = Some(faults);
    }

    /// Removes the fault model (the network becomes lossless again).
    pub fn clear_fault_model(&mut self) {
        self.faults = None;
    }

    /// The installed fault model's injection counters, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultModel::stats)
    }

    /// Transmits `payload` from `from` to `to`, applying first the
    /// adversary, then the benign fault model.
    pub fn transmit(&mut self, from: &str, to: &str, payload: &[u8]) -> Delivery {
        let mut out = Vec::new();
        let outcome = self.transmit_into(from, to, payload, 0, &mut out);
        Delivery {
            payload: outcome.delivered.then_some(out),
            latency_us: outcome.latency_us,
            duplicated: outcome.duplicated,
        }
    }

    /// Transmits `payload` at virtual time `now_us` with the delivered
    /// bytes written into `out` (cleared first; left empty when the
    /// message is lost). This is the one implementation of the transmit
    /// pipeline — [`SimNetwork::transmit`] delegates here with
    /// `now_us = 0`, so adversary order, fault RNG draws and latency
    /// charging cannot diverge between them. The simulator knows a
    /// message's fate the moment it is sent, so a discrete-event caller
    /// schedules exactly one follow-up from the outcome: the arrival at
    /// `deliver_at_us`, or the sender's loss-detection timeout. With
    /// logging off and no adversary in play this path allocates nothing
    /// beyond what `out` already holds.
    pub fn transmit_into(
        &mut self,
        from: &str,
        to: &str,
        payload: &[u8],
        now_us: u64,
        out: &mut Vec<u8>,
    ) -> TransmitOutcome {
        out.clear();
        let action = match &mut self.attacker {
            Some(att) => att.intercept(from, to, payload),
            None => Intercept::Pass,
        };
        let delivered = match action {
            Intercept::Pass => {
                out.extend_from_slice(payload);
                true
            }
            Intercept::Modify(m) => {
                out.extend_from_slice(&m);
                true
            }
            Intercept::Drop => false,
        };
        let (delivered, duplicated, extra_delay_us) = match (&mut self.faults, delivered) {
            (Some(faults), true) => faults.apply_in_place(out),
            (_, delivered) => (delivered, false, 0),
        };
        // Serialization is charged on the bytes the sender actually put
        // on the wire, not on what the adversary or a duplicate fault
        // delivered.
        let latency_us = self.latency.latency_for(payload.len()) + extra_delay_us;
        if self.logging {
            self.record(
                from,
                to,
                payload,
                delivered.then_some(out.as_slice()),
                latency_us,
            );
        }
        if !delivered {
            out.clear();
        }
        TransmitOutcome {
            delivered,
            deliver_at_us: now_us.saturating_add(latency_us),
            latency_us,
            duplicated,
        }
    }

    /// Appends one entry to the transmission log — the only
    /// allocations of a transmit, kept off the logging-off warm path.
    #[cold]
    fn record(
        &mut self,
        from: &str,
        to: &str,
        sent: &[u8],
        delivered: Option<&[u8]>,
        latency_us: u64,
    ) {
        self.log.push(TransmitRecord {
            from: from.to_owned(),
            to: to.to_owned(),
            sent: sent.to_vec(),
            delivered: delivered.map(<[u8]>::to_vec),
            latency_us,
        });
    }

    /// Every transmission made while logging was on (see
    /// [`SimNetwork::set_logging`]).
    pub fn log(&self) -> &[TransmitRecord] {
        &self.log
    }
}

/// A passive eavesdropper: records copies of everything, passes all
/// messages through. Used to check confidentiality properties.
#[derive(Debug, Default)]
pub struct Eavesdropper {
    /// Captured payloads in transmission order.
    pub captured: Vec<Vec<u8>>,
}

impl NetworkAttacker for Eavesdropper {
    fn intercept(&mut self, _from: &str, _to: &str, payload: &[u8]) -> Intercept {
        self.captured.push(payload.to_vec());
        Intercept::Pass
    }
}

/// An active tamperer: flips a byte in every message between the
/// configured endpoints.
#[derive(Debug)]
pub struct Tamperer {
    /// Only tamper with messages to the endpoint of exactly this name
    /// (empty = all).
    pub target_to: String,
    /// How many messages were modified.
    pub modified: u64,
}

impl Tamperer {
    /// Tampers with every message to the endpoint named `target_to`.
    pub fn new(target_to: &str) -> Self {
        Tamperer {
            target_to: target_to.to_owned(),
            modified: 0,
        }
    }
}

impl NetworkAttacker for Tamperer {
    fn intercept(&mut self, _from: &str, to: &str, payload: &[u8]) -> Intercept {
        let targeted = self.target_to.is_empty() || self.target_to == to;
        if !targeted || payload.is_empty() {
            return Intercept::Pass;
        }
        let mut m = payload.to_vec();
        let mid = m.len() / 2;
        if let Some(byte) = m.get_mut(mid) {
            *byte ^= 0x01;
        }
        self.modified += 1;
        Intercept::Modify(m)
    }
}

/// A replay attacker: records the first message to a target, and from the
/// `replay_after`-th message onward replaces each new message with it.
#[derive(Debug)]
pub struct Replayer {
    target_to: String,
    // Only the first capture is ever replayed; keeping more would leak
    // memory over a long periodic run.
    recorded: Option<Vec<u8>>,
    seen: u64,
    replay_after: u64,
    /// How many replays were injected.
    pub replayed: u64,
}

impl Replayer {
    /// Replays the first captured message (to the endpoint named
    /// `target_to`, empty = all) in place of every message after the
    /// first `replay_after`.
    pub fn new(target_to: &str, replay_after: u64) -> Self {
        Replayer {
            target_to: target_to.to_owned(),
            recorded: None,
            seen: 0,
            replay_after,
            replayed: 0,
        }
    }
}

impl NetworkAttacker for Replayer {
    fn intercept(&mut self, _from: &str, to: &str, payload: &[u8]) -> Intercept {
        if !self.target_to.is_empty() && self.target_to != to {
            return Intercept::Pass;
        }
        self.seen += 1;
        if self.recorded.is_none() {
            self.recorded = Some(payload.to_vec());
        }
        if self.seen > self.replay_after {
            if let Some(old) = &self.recorded {
                self.replayed += 1;
                return Intercept::Modify(old.clone());
            }
        }
        Intercept::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_delivery() {
        let mut net = SimNetwork::default();
        net.set_logging(true);
        let d = net.transmit("customer", "controller", b"hello");
        assert_eq!(d.payload.as_deref(), Some(b"hello".as_slice()));
        assert!(d.latency_us >= 300);
        assert_eq!(net.log().len(), 1);
        assert_eq!(net.log()[0].from, "customer");
    }

    #[test]
    fn latency_scales_with_size() {
        let model = LatencyModel {
            base_us: 100,
            per_kb_us: 10,
        };
        assert_eq!(model.latency_for(0), 100);
        assert_eq!(model.latency_for(1), 110);
        assert_eq!(model.latency_for(1024), 110);
        assert_eq!(model.latency_for(1025), 120);
        assert_eq!(model.latency_for(10 * 1024), 200);
    }

    #[test]
    fn eavesdropper_sees_but_passes() {
        let mut net = SimNetwork::default();
        net.set_attacker(Box::new(Eavesdropper::default()));
        let d = net.transmit("a", "b", b"payload");
        assert_eq!(d.payload.as_deref(), Some(b"payload".as_slice()));
    }

    #[test]
    fn tamperer_modifies_targeted_messages() {
        let mut net = SimNetwork::default();
        net.set_attacker(Box::new(Tamperer::new("server-1")));
        let tampered = |net: &mut SimNetwork, to: &str| {
            let d = net.transmit("attserver", to, b"request");
            d.payload.as_deref() != Some(b"request".as_slice())
        };
        assert!(tampered(&mut net, "server-1"));
        // Names match exactly: neither a longer name nor a shorter one
        // that it contains is the target.
        for other in ["server-10", "server", "attserver", "controller"] {
            assert!(!tampered(&mut net, other), "{other}");
        }
    }

    #[test]
    fn replayer_replays_first_message() {
        let mut net = SimNetwork::default();
        net.set_attacker(Box::new(Replayer::new("", 1)));
        let d1 = net.transmit("a", "b", b"first");
        assert_eq!(d1.payload.as_deref(), Some(b"first".as_slice()));
        let d2 = net.transmit("a", "b", b"second");
        assert_eq!(d2.payload.as_deref(), Some(b"first".as_slice()));
    }

    #[test]
    fn drop_is_logged() {
        struct Dropper;
        impl NetworkAttacker for Dropper {
            fn intercept(&mut self, _: &str, _: &str, _: &[u8]) -> Intercept {
                Intercept::Drop
            }
        }
        let mut net = SimNetwork::default();
        net.set_logging(true);
        net.set_attacker(Box::new(Dropper));
        let d = net.transmit("a", "b", b"gone");
        assert_eq!(d.payload, None);
        assert_eq!(net.log()[0].delivered, None);
    }

    #[test]
    fn latency_charged_on_sent_bytes_not_inflated_delivery() {
        struct Inflater;
        impl NetworkAttacker for Inflater {
            fn intercept(&mut self, _: &str, _: &str, payload: &[u8]) -> Intercept {
                let mut m = payload.to_vec();
                m.extend_from_slice(&[0u8; 64 * 1024]);
                Intercept::Modify(m)
            }
        }
        let mut clean = SimNetwork::default();
        let baseline = clean.transmit("a", "b", b"msg").latency_us;
        let mut net = SimNetwork::default();
        net.set_attacker(Box::new(Inflater));
        let d = net.transmit("a", "b", b"msg");
        assert!(d.payload.unwrap().len() > 64 * 1024);
        assert_eq!(d.latency_us, baseline);
    }

    #[test]
    fn fault_model_drop_rate_is_about_right() {
        let mut net = SimNetwork::default();
        net.set_fault_model(FaultModel::new(42).drop_prob(0.1));
        let mut dropped = 0;
        for _ in 0..1000 {
            if net.transmit("a", "b", b"x").payload.is_none() {
                dropped += 1;
            }
        }
        assert!((60..=140).contains(&dropped), "dropped {dropped}/1000");
        assert_eq!(net.fault_stats().unwrap().dropped, dropped);
    }

    #[test]
    fn fault_model_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut net = SimNetwork::default();
            net.set_fault_model(FaultModel::new(seed).drop_prob(0.3));
            (0..64)
                .map(|_| net.transmit("a", "b", b"x").payload.is_none())
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn duplicate_fault_flags_delivery() {
        let mut net = SimNetwork::default();
        net.set_fault_model(FaultModel::new(1).duplicate_prob(1.0));
        let d = net.transmit("a", "b", b"x");
        assert!(d.duplicated);
        assert_eq!(d.payload.as_deref(), Some(b"x".as_slice()));
        assert_eq!(net.fault_stats().unwrap().duplicated, 1);
    }

    #[test]
    fn corrupt_fault_flips_one_byte() {
        let mut net = SimNetwork::default();
        net.set_fault_model(FaultModel::new(2).corrupt_prob(1.0));
        let sent = vec![0u8; 32];
        let got = net.transmit("a", "b", &sent).payload.unwrap();
        assert_eq!(got.len(), sent.len());
        let differing = got.iter().zip(&sent).filter(|(a, b)| a != b).count();
        assert_eq!(differing, 1);
    }

    #[test]
    fn delay_fault_adds_latency() {
        let mut clean = SimNetwork::default();
        let baseline = clean.transmit("a", "b", b"x").latency_us;
        let mut net = SimNetwork::default();
        net.set_fault_model(FaultModel::new(3).delay(1.0, 5_000));
        let d = net.transmit("a", "b", b"x");
        assert_eq!(d.latency_us, baseline + 5_000);
    }

    #[test]
    fn faults_compose_with_attacker() {
        // The tamperer modifies, then the fault model drops: both layers
        // act on the same message stream.
        let mut net = SimNetwork::default();
        net.set_attacker(Box::new(Tamperer::new("")));
        net.set_fault_model(FaultModel::new(4).drop_prob(1.0));
        let d = net.transmit("a", "b", b"payload");
        assert_eq!(d.payload, None);
        net.clear_fault_model();
        let d = net.transmit("a", "b", b"payload");
        assert_ne!(d.payload.as_deref(), Some(b"payload".as_slice()));
    }

    #[test]
    fn replayer_keeps_only_first_capture() {
        let mut r = Replayer::new("", u64::MAX);
        for i in 0..100u8 {
            r.intercept("a", "b", &[i]);
        }
        assert_eq!(r.recorded.as_deref(), Some([0u8].as_slice()));
    }

    #[test]
    fn transmit_into_reuses_buffer_and_matches_transmit() {
        let run_owned = |seed: u64| {
            let mut net = SimNetwork::default();
            net.set_fault_model(FaultModel::new(seed).drop_prob(0.3).corrupt_prob(0.3));
            (0..64u8)
                .map(|i| net.transmit("a", "b", &[i, i, i]).payload)
                .collect::<Vec<_>>()
        };
        let run_into = |seed: u64| {
            let mut net = SimNetwork::default();
            net.set_fault_model(FaultModel::new(seed).drop_prob(0.3).corrupt_prob(0.3));
            let mut buf = Vec::new();
            (0..64u8)
                .map(|i| {
                    let o = net.transmit_into("a", "b", &[i, i, i], 0, &mut buf);
                    o.delivered.then(|| buf.clone())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_owned(9), run_into(9));
    }

    #[test]
    fn lost_message_leaves_out_buffer_empty() {
        let mut net = SimNetwork::default();
        net.set_fault_model(FaultModel::new(6).drop_prob(1.0));
        let mut buf = b"stale".to_vec();
        let o = net.transmit_into("a", "b", b"x", 100, &mut buf);
        assert!(!o.delivered);
        assert!(buf.is_empty());
        assert_eq!(o.deliver_at_us, 100 + o.latency_us);
    }

    #[test]
    fn logging_off_records_nothing_but_keeps_fates() {
        let fates = |logging: bool| {
            let mut net = SimNetwork::default();
            net.set_logging(logging);
            net.set_fault_model(FaultModel::new(5).drop_prob(0.5));
            let fates: Vec<bool> = (0..32)
                .map(|_| net.transmit("a", "b", b"x").payload.is_some())
                .collect();
            (fates, net.log().len())
        };
        let (on_fates, on_log) = fates(true);
        let (off_fates, off_log) = fates(false);
        assert_eq!(on_fates, off_fates);
        assert_eq!(on_log, 32);
        assert_eq!(off_log, 0);
    }

    #[test]
    fn clear_attacker_restores_benign() {
        let mut net = SimNetwork::default();
        net.set_attacker(Box::new(Tamperer::new("")));
        net.transmit("a", "b", b"x");
        net.clear_attacker();
        let d = net.transmit("a", "b", b"y");
        assert_eq!(d.payload.as_deref(), Some(b"y".as_slice()));
    }
}
