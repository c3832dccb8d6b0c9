//! The CPU-based cross-VM covert channel of Case Study III (Section 4.4).
//!
//! The sender VM encodes bits in how long it occupies the CPU: a long
//! burst signals "1", a short burst signals "0". It exploits the credit
//! scheduler's wake-up BOOST to seize the CPU at the start of every bit
//! slot (the paper's sender uses idle credit build-up plus IPIs for the
//! same effect). The co-resident receiver measures its own execution
//! gaps — each gap's length is the sender's burst length, i.e. one bit.
//!
//! At the paper's parameters (5 ms slots) the channel reaches 200 bps.

use monatt_hypervisor::driver::{shared, Shared, VcpuAction, VcpuView, WorkloadDriver};

/// Default bit slot: 5 ms, giving the paper's 200 bps.
pub const DEFAULT_SLOT_US: u64 = 5_000;
/// Default CPU burst for a "1": 4 ms.
pub const DEFAULT_ONE_US: u64 = 4_000;
/// Default CPU burst for a "0": 1 ms.
pub const DEFAULT_ZERO_US: u64 = 1_000;

/// Converts a byte message to its bit sequence, MSB first.
pub fn message_to_bits(message: &[u8]) -> Vec<bool> {
    message
        .iter()
        .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
        .collect()
}

/// Converts bits (MSB first) back to bytes; trailing bits short of a full
/// byte are dropped.
pub fn bits_to_message(bits: &[bool]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|byte| byte.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8))
        .collect()
}

/// The covert-channel sender: one vCPU cycling through the message bits,
/// one CPU burst per bit slot.
#[derive(Debug)]
pub struct CovertSender {
    bits: Vec<bool>,
    pos: usize,
    slot_us: u64,
    one_us: u64,
    zero_us: u64,
    bursting: bool,
    last_burst_us: u64,
}

impl CovertSender {
    /// Creates a sender transmitting `message` cyclically with the default
    /// (paper) timing parameters.
    pub fn new(message: &[u8]) -> Self {
        Self::with_timing(message, DEFAULT_SLOT_US, DEFAULT_ONE_US, DEFAULT_ZERO_US)
    }

    /// Creates a sender with explicit timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if the message is empty, if either burst is zero, or if a
    /// burst does not fit in the slot.
    pub fn with_timing(message: &[u8], slot_us: u64, one_us: u64, zero_us: u64) -> Self {
        assert!(!message.is_empty(), "message must not be empty");
        assert!(zero_us > 0 && one_us > zero_us, "need 0 < zero < one");
        assert!(one_us < slot_us, "bursts must fit in the slot");
        CovertSender {
            bits: message_to_bits(message),
            pos: 0,
            slot_us,
            one_us,
            zero_us,
            bursting: false,
            last_burst_us: 0,
        }
    }

    /// The bit slot length in microseconds.
    pub fn slot_us(&self) -> u64 {
        self.slot_us
    }
}

impl WorkloadDriver for CovertSender {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        self.bursting = !self.bursting;
        if self.bursting {
            let bit = self.bits[self.pos];
            self.pos = (self.pos + 1) % self.bits.len();
            self.last_burst_us = if bit { self.one_us } else { self.zero_us };
            VcpuAction::Compute {
                duration_us: self.last_burst_us,
            }
        } else {
            // Sleep out the remainder of the slot (total period = slot);
            // the timer wake carries BOOST, so the next burst preempts the
            // receiver immediately.
            VcpuAction::Block {
                duration_us: Some(self.slot_us - self.last_burst_us),
            }
        }
    }
}

/// One observed execution gap at the receiver: the sender ran for
/// `gap_us` starting around `at_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapSample {
    /// When the gap ended (receiver resumed), microseconds.
    pub at_us: u64,
    /// Gap length in microseconds.
    pub gap_us: u64,
}

/// The receiver's observation log.
#[derive(Clone, Debug, Default)]
pub struct ReceiverLog {
    /// All gaps longer than the detection threshold, in time order.
    pub gaps: Vec<GapSample>,
}

impl ReceiverLog {
    /// Decodes the gaps into bits using `threshold_us`: longer gaps are
    /// "1", shorter are "0".
    pub fn decode(&self, threshold_us: u64) -> Vec<bool> {
        self.gaps.iter().map(|g| g.gap_us > threshold_us).collect()
    }

    /// Achieved channel bandwidth in bits per second over `elapsed_us`.
    pub fn bandwidth_bps(&self, elapsed_us: u64) -> f64 {
        if elapsed_us == 0 {
            return 0.0;
        }
        self.gaps.len() as f64 / (elapsed_us as f64 / 1_000_000.0)
    }
}

/// The covert-channel receiver: computes continuously in small probe
/// chunks and records every execution gap — exactly the "measure its own
/// execution time" technique of Section 4.4.1.
#[derive(Debug)]
pub struct CovertReceiver {
    probe_us: u64,
    min_gap_us: u64,
    last_end_us: Option<u64>,
    log: Shared<ReceiverLog>,
}

impl CovertReceiver {
    /// Creates a receiver probing in 250 µs chunks and recording gaps of
    /// at least 500 µs.
    pub fn new() -> Self {
        Self::with_params(250, 500)
    }

    /// Creates a receiver with explicit probe chunk and gap threshold.
    ///
    /// # Panics
    ///
    /// Panics if `probe_us` is zero.
    pub fn with_params(probe_us: u64, min_gap_us: u64) -> Self {
        assert!(probe_us > 0, "probe chunk must be positive");
        CovertReceiver {
            probe_us,
            min_gap_us,
            last_end_us: None,
            log: shared(ReceiverLog::default()),
        }
    }

    /// Handle to the observation log.
    pub fn log(&self) -> Shared<ReceiverLog> {
        self.log.clone()
    }
}

impl Default for CovertReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadDriver for CovertReceiver {
    fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
        let now = view.now.as_micros();
        if let Some(last) = self.last_end_us {
            // Time beyond our own probe chunk is time someone else ran.
            let gap = now.saturating_sub(last).saturating_sub(self.probe_us);
            if gap >= self.min_gap_us {
                self.log.borrow_mut().gaps.push(GapSample {
                    at_us: now,
                    gap_us: gap,
                });
            }
        }
        self.last_end_us = Some(now);
        VcpuAction::Compute {
            duration_us: self.probe_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_hypervisor::engine::ServerSim;
    use monatt_hypervisor::ids::PcpuId;
    use monatt_hypervisor::scheduler::SchedParams;
    use monatt_hypervisor::time::SimTime;
    use monatt_hypervisor::vm::VmConfig;

    #[test]
    fn bit_codec_roundtrip() {
        let msg = b"covert!";
        assert_eq!(bits_to_message(&message_to_bits(msg)), msg);
        assert!(message_to_bits(&[0b1010_0001])[0]);
        assert!(message_to_bits(&[0b1010_0001])[7]);
        assert!(!message_to_bits(&[0b1010_0001])[1]);
    }

    fn run_channel(seconds: u64) -> (ServerSim, Shared<ReceiverLog>, u64) {
        let mut sim = ServerSim::new(1, SchedParams::default());
        let sender = CovertSender::new(b"\xA5"); // 10100101
        let receiver = CovertReceiver::new();
        let log = receiver.log();
        sim.create_vm(VmConfig::new("sender", vec![Box::new(sender)]).pin(vec![PcpuId(0)]));
        sim.create_vm(VmConfig::new("receiver", vec![Box::new(receiver)]).pin(vec![PcpuId(0)]));
        sim.run_until(SimTime::from_secs(seconds));
        let elapsed = sim.now().as_micros();
        (sim, log, elapsed)
    }

    #[test]
    fn receiver_observes_sender_bursts() {
        let (_sim, log, elapsed) = run_channel(2);
        let log = log.borrow();
        assert!(
            log.gaps.len() > 300,
            "expected hundreds of gaps, got {}",
            log.gaps.len()
        );
        let bw = log.bandwidth_bps(elapsed);
        assert!(
            (bw - 200.0).abs() < 40.0,
            "bandwidth should be near the paper's 200 bps, got {bw}"
        );
    }

    #[test]
    fn decoded_bits_match_message_pattern() {
        let (_sim, log, _) = run_channel(2);
        let bits = log.borrow().decode((DEFAULT_ONE_US + DEFAULT_ZERO_US) / 2);
        assert!(bits.len() >= 16);
        // Find the repeating 8-bit pattern 10100101 at some alignment.
        let target = message_to_bits(&[0xA5]);
        let found = (0..8).any(|off| {
            bits[off..]
                .chunks_exact(8)
                .take(10)
                .all(|chunk| chunk == target.as_slice())
        });
        assert!(found, "decoded stream should contain the repeating message");
    }

    #[test]
    fn sender_interval_histogram_is_bimodal() {
        // The Trust Evidence Register view: the sender VM's usage
        // intervals cluster at the two burst lengths (Figure 5, top).
        let (sim, _, _) = run_channel(3);
        let sender_vm = sim.vm_ids()[0];
        let hist = sim.profile().interval_registers(sender_vm);
        let total: u64 = hist.iter().sum();
        assert!(total > 0);
        // Bins 0 (1ms bursts) and 3 (4ms bursts) dominate.
        let mass_peaks = (hist[0] + hist[3]) as f64 / total as f64;
        assert!(mass_peaks > 0.9, "expected bimodal, got {hist:?}");
        assert!(hist[0] > 0 && hist[3] > 0);
    }

    #[test]
    fn benign_coresident_shows_single_peak() {
        use monatt_hypervisor::driver::BusyLoop;
        let mut sim = ServerSim::new(1, SchedParams::default());
        let benign =
            sim.create_vm(VmConfig::new("benign", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
        let receiver = CovertReceiver::new();
        sim.create_vm(VmConfig::new("other", vec![Box::new(receiver)]).pin(vec![PcpuId(0)]));
        sim.run_until(SimTime::from_secs(3));
        let hist = sim.profile().interval_registers(benign);
        let total: u64 = hist.iter().sum();
        assert!(
            hist[29] as f64 / total as f64 > 0.8,
            "benign VM should show the 30ms peak, got {hist:?}"
        );
    }

    #[test]
    fn sender_parameter_validation() {
        assert!(std::panic::catch_unwind(|| CovertSender::new(b"")).is_err());
        assert!(
            std::panic::catch_unwind(|| CovertSender::with_timing(b"x", 5_000, 500, 1_000))
                .is_err()
        );
        assert!(
            std::panic::catch_unwind(|| CovertSender::with_timing(b"x", 1_000, 4_000, 1_00))
                .is_err()
        );
    }
}
