//! The verification helper's handoff (DESIGN.md §10.1, §13): while
//! [`Cloud::run`](crate::Cloud::run) pumps, one scoped helper thread
//! verifies the Schnorr signatures of each record as soon as the record
//! is built, and the record's receiver takes that verdict when the
//! record arrives instead of verifying it on the event loop.
//!
//! * **One fixed ring.** [`RING`] cells, sized once. The event loop is
//!   the only producer ([`Offload::submit`] writes the next cell and
//!   publishes `head`); the helper is the only consumer
//!   ([`VerifyRing::serve`]). A cell is also its job's result slot: the
//!   session keeps the job's [`Ticket`] and finds the verdict there.
//!   Nothing is allocated per job, nothing is hashed, and a cell's lock
//!   is never contended (the helper holds it only while the cell is
//!   `RUNNING`, when nobody else touches it).
//! * **A verdict vouches only for its own bytes.** A receiver reads a
//!   cell only through [`Voucher::verdict`], which returns the helper's
//!   result only for a byte-identical `(key, message, signature)`. On
//!   any difference — a substituted record, a cell reused by a later
//!   job — the receiver verifies inline, exactly as without a helper.
//! * **Late is never wrong.** A job the helper has not started when its
//!   record arrives is claimed back (the helper then skips it) and the
//!   receiver verifies it itself; a job the helper is running is
//!   awaited, for a bounded while in case the helper was preempted. A
//!   full ring refuses the job.
//! * **Idle costs no syscall while awake.** On an empty ring the helper
//!   spins, then parks; the producer wakes it only if it parked. When
//!   the run ends the helper drains its queue and returns, and the
//!   verdicts stay in their cells.
//!
//! The helper computes each verdict with the same `Verifier::verify` the
//! receiver would call, touches no RNG and no simulator state, so the
//! run is the same byte for byte with or without it.

use monatt_crypto::error::CryptoError;
use monatt_crypto::schnorr::{BoundKey, Signature, Verifier, VerifyingKey};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

/// Cells in the ring: how many jobs may wait on the helper, and how many
/// newer jobs a verdict survives before its cell is reused. A session
/// consumes its verdicts within one hop, far fewer jobs than this.
pub(crate) const RING: usize = 1024;

/// Empty-ring polls before the helper parks.
const SPINS: u32 = 1 << 8;

/// Polls a receiver waits on a running job before it verifies inline:
/// several times a job's length, unless the helper was preempted.
const AWAIT_POLLS: u32 = 1 << 10;

/// A cell's phase, in the low bits of its state word; the ticket of the
/// job it holds is in the high bits.
const PHASE_BITS: u32 = 3;
const QUEUED: u64 = 0;
const RUNNING: u64 = 1;
const CLAIMED: u64 = 2;
const DONE: u64 = 3;
/// The state of a cell that has never held a job: no ticket matches it.
const VACANT: u64 = u64::MAX;

/// A job's place in the stream of submitted jobs, which is also how a
/// session names the cell holding its verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ticket(u64);

/// The tickets a hop's record was vouched with: its quote's signature
/// and, on message 4, the binding of its attestation key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HopTickets {
    pub(crate) binding: Option<Ticket>,
    pub(crate) quote: Option<Ticket>,
}

impl HopTickets {
    /// A record nothing was submitted for.
    pub(crate) const NONE: HopTickets = HopTickets {
        binding: None,
        quote: None,
    };
}

/// [`HopTickets`] as its receiver consults them.
#[derive(Clone, Copy, Default)]
pub(crate) struct HopVouchers<'a> {
    pub(crate) binding: Option<Voucher<'a>>,
    pub(crate) quote: Option<Voucher<'a>>,
}

/// A public key in the form its holder keeps it, which is the form a
/// job verifies under: one function either way, the bound form faster.
#[derive(Clone)]
pub(crate) enum HeldKey {
    /// A key seen once: a fresh attestation key, or a pCA identity key
    /// before its second binding.
    Bare(VerifyingKey),
    /// A key bound to its table; the clone shares the table.
    Bound(BoundKey),
}

impl HeldKey {
    fn key(&self) -> VerifyingKey {
        match self {
            HeldKey::Bare(key) => *key,
            HeldKey::Bound(bound) => bound.key(),
        }
    }
}

impl Verifier for HeldKey {
    fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        match self {
            HeldKey::Bare(key) => key.verify(message, signature),
            HeldKey::Bound(bound) => bound.verify(message, signature),
        }
    }
}

/// One signature check and, once the helper has run it, its verdict.
struct Job {
    key: HeldKey,
    message: [u8; 32],
    signature: Signature,
    verdict: Option<Result<(), CryptoError>>,
}

struct Cell {
    /// `ticket << PHASE_BITS | phase`. Each store that hands the cell
    /// on (`QUEUED` by the producer, `DONE` by the helper) is `Release`
    /// and pairs with the `Acquire` load or exchange of the side that
    /// reads the job next.
    state: AtomicU64,
    job: Mutex<Option<Job>>,
}

/// The ring the event loop and the helper share. See the module docs.
pub(crate) struct VerifyRing {
    cells: Box<[Cell]>,
    /// Jobs published: written by the producer only.
    head: AtomicU64,
    /// Jobs the helper is done with (run or skipped): written by the
    /// helper only. A cell is reused only once the helper has passed it.
    tail: AtomicU64,
    /// Set by the helper before it parks, cleared by whoever wakes it.
    parked: AtomicBool,
    /// Set when the run ends: the helper drains the ring and returns.
    closing: AtomicBool,
    /// Test builds can slow the helper down, so that receivers await
    /// running jobs, claim queued ones and find the ring full, or make
    /// receivers await queued jobs too, so every verdict is the helper's.
    #[cfg(test)]
    lag: std::time::Duration,
    #[cfg(test)]
    patient: bool,
    /// Verdicts receivers took, and jobs they claimed back.
    #[cfg(test)]
    taken: [AtomicU64; 2],
}

/// Every update made under a cell's lock is one assignment, so even a
/// guard poisoned by a panicking holder sees a whole job.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn state(ticket: u64, phase: u64) -> u64 {
    ticket << PHASE_BITS | phase
}

impl VerifyRing {
    fn new() -> Self {
        let cells = (0..RING)
            .map(|_| Cell {
                state: AtomicU64::new(VACANT),
                job: Mutex::new(None),
            })
            .collect();
        VerifyRing {
            cells,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            parked: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            #[cfg(test)]
            lag: std::time::Duration::ZERO,
            #[cfg(test)]
            patient: false,
            #[cfg(test)]
            taken: Default::default(),
        }
    }

    fn cell(&self, ticket: u64) -> Option<&Cell> {
        self.cells.get((ticket % RING as u64) as usize)
    }

    /// The helper's loop: runs every published job in ticket order,
    /// skipping those a receiver claimed back, until the ring closes and
    /// is drained.
    pub(crate) fn serve(&self) {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            if tail < self.head.load(Ordering::SeqCst) {
                self.run(tail);
                tail += 1;
                self.tail.store(tail, Ordering::Release);
            } else if self.closing.load(Ordering::SeqCst) {
                // The last job was published before `closing` was set,
                // so a drained ring stays drained.
                if tail == self.head.load(Ordering::SeqCst) {
                    return;
                }
            } else {
                self.wait(tail);
            }
        }
    }

    /// Runs the job at `ticket` unless a receiver claimed it first.
    fn run(&self, ticket: u64) {
        let Some(cell) = self.cell(ticket) else {
            return;
        };
        let (queued, running) = (state(ticket, QUEUED), state(ticket, RUNNING));
        let taken =
            cell.state
                .compare_exchange(queued, running, Ordering::AcqRel, Ordering::Acquire);
        if taken.is_err() {
            return;
        }
        #[cfg(test)]
        std::thread::sleep(self.lag);
        if let Some(job) = lock(&cell.job).as_mut() {
            job.verdict = Some(job.key.verify(&job.message, &job.signature));
        }
        cell.state.store(state(ticket, DONE), Ordering::Release);
    }

    /// Waits for a job past `tail` or for the ring to close: spins, then
    /// parks until the producer wakes it.
    fn wait(&self, tail: u64) {
        for _ in 0..SPINS {
            if self.head.load(Ordering::Relaxed) > tail || self.closing.load(Ordering::Relaxed) {
                return;
            }
            std::hint::spin_loop();
        }
        // Announce the park, then look once more: the producer publishes
        // before it reads `parked`, so one of the two sees the other.
        self.parked.store(true, Ordering::SeqCst);
        if self.head.load(Ordering::SeqCst) == tail && !self.closing.load(Ordering::SeqCst) {
            std::thread::park();
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// Closes the ring when dropped — the end of a run, or a panic on the
/// event loop — and wakes the helper, which drains what is queued and
/// returns, so the scope that spawned it can join it.
pub(crate) struct Closing<'a> {
    ring: &'a VerifyRing,
    helper: Thread,
}

impl<'a> Closing<'a> {
    pub(crate) fn new(ring: &'a VerifyRing, helper: &Thread) -> Self {
        Closing {
            ring,
            helper: helper.clone(),
        }
    }
}

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        self.ring.closing.store(true, Ordering::SeqCst);
        self.helper.unpark();
    }
}

/// The event loop's end of the ring: it submits jobs and hands
/// receivers their [`Voucher`]s. Holds no ring until the first
/// [`Cloud::run`](crate::Cloud::run) on a host with a second hardware
/// thread builds one.
#[derive(Default)]
pub(crate) struct Offload {
    ring: Option<Arc<VerifyRing>>,
    /// The serving helper, while a run has one.
    pub(crate) helper: Option<Thread>,
    /// Tickets issued so far; the next job's ticket.
    issued: u64,
    /// Per-job delay of the helpers of test builds, and whether their
    /// receivers await queued jobs instead of claiming them back.
    #[cfg(test)]
    pub(crate) lag: std::time::Duration,
    #[cfg(test)]
    pub(crate) patient: bool,
}

impl Offload {
    /// The ring a run's helper serves, reopened for the run; `None` on a
    /// host with one hardware thread (`workers`), which verifies inline.
    pub(crate) fn ring(&mut self, workers: usize) -> Option<Arc<VerifyRing>> {
        if workers < 2 {
            return None;
        }
        if self.ring.is_none() {
            self.build_ring();
        }
        let ring = self.ring.as_ref()?;
        ring.closing.store(false, Ordering::SeqCst);
        Some(Arc::clone(ring))
    }

    /// Sizes the ring and its result slots, once per cloud.
    #[cold]
    fn build_ring(&mut self) {
        #[cfg(test)]
        let ring = VerifyRing {
            lag: self.lag,
            patient: self.patient,
            ..VerifyRing::new()
        };
        #[cfg(not(test))]
        let ring = VerifyRing::new();
        self.ring = Some(Arc::new(ring));
    }

    /// Whether a helper is serving: only then does a job pay its way.
    pub(crate) fn serving(&self) -> bool {
        self.helper.is_some()
    }

    /// Hands the helper one signature check, returning its ticket;
    /// `None` (the receiver then verifies inline) when no helper serves
    /// or the ring is full.
    pub(crate) fn submit(
        &mut self,
        key: HeldKey,
        message: [u8; 32],
        signature: Signature,
    ) -> Option<Ticket> {
        let (ring, helper) = (self.ring.as_deref()?, self.helper.as_ref()?);
        let ticket = self.issued;
        if ticket - ring.tail.load(Ordering::Acquire) >= RING as u64 {
            return None;
        }
        let cell = ring.cell(ticket)?;
        *lock(&cell.job) = Some(Job {
            key,
            message,
            signature,
            verdict: None,
        });
        cell.state.store(state(ticket, QUEUED), Ordering::Release);
        self.issued += 1;
        ring.head.store(self.issued, Ordering::SeqCst);
        if ring.parked.load(Ordering::SeqCst) && ring.parked.swap(false, Ordering::SeqCst) {
            helper.unpark();
        }
        Some(Ticket(ticket))
    }

    /// Verdicts receivers took from the helper, and jobs they claimed
    /// back from it, since the ring was built.
    #[cfg(test)]
    pub(crate) fn taken(&self) -> (u64, u64) {
        let count = |i: usize| {
            self.ring
                .as_ref()
                .map_or(0, |r| r.taken[i].load(Ordering::Relaxed))
        };
        (count(0), count(1))
    }

    /// The vouchers a receiver consults for a record's `tickets`.
    pub(crate) fn vouchers(&self, tickets: HopTickets) -> HopVouchers<'_> {
        let voucher = |ticket: Option<Ticket>| {
            Some(Voucher {
                ring: self.ring.as_deref()?,
                ticket: ticket?,
            })
        };
        HopVouchers {
            binding: voucher(tickets.binding),
            quote: voucher(tickets.quote),
        }
    }
}

/// What a receiver holds for a record the helper may have verified.
#[derive(Clone, Copy)]
pub(crate) struct Voucher<'a> {
    ring: &'a VerifyRing,
    ticket: Ticket,
}

impl Voucher<'_> {
    /// The helper's verdict on `(key, message, signature)` if it checked
    /// exactly those bytes; `None` tells the caller to verify them
    /// itself. A job still queued is claimed back (the helper will skip
    /// it); a job the helper is running is awaited for [`AWAIT_POLLS`].
    pub(crate) fn verdict(
        &self,
        key: VerifyingKey,
        message: &[u8],
        signature: &Signature,
    ) -> Option<Result<(), CryptoError>> {
        let Ticket(ticket) = self.ticket;
        let cell = self.ring.cell(ticket)?;
        let mut polls = 0u32;
        loop {
            let current = cell.state.load(Ordering::Acquire);
            if current >> PHASE_BITS != ticket {
                // The cell moved on to a later job.
                return None;
            }
            match current & ((1 << PHASE_BITS) - 1) {
                #[cfg(test)]
                QUEUED if self.ring.patient => pause(&mut polls),
                QUEUED => {
                    let claimed = state(ticket, CLAIMED);
                    let won = cell.state.compare_exchange(
                        current,
                        claimed,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    if won.is_ok() {
                        #[cfg(test)]
                        self.ring.taken[1].fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
                #[cfg(test)]
                RUNNING if self.ring.patient => pause(&mut polls),
                RUNNING if polls < AWAIT_POLLS => pause(&mut polls),
                RUNNING => return None,
                DONE => break,
                _ => return None,
            }
        }
        let job = lock(&cell.job);
        let job = job.as_ref()?;
        let same = job.key.key() == key
            && job.message.as_slice() == message
            && job.signature == *signature;
        #[cfg(test)]
        self.ring.taken[0].fetch_add(u64::from(same), Ordering::Relaxed);
        job.verdict.filter(|_| same)
    }
}

/// One poll of a receiver awaiting the helper: a spin, and now and then
/// a yield, should the helper share its core.
fn pause(polls: &mut u32) {
    *polls += 1;
    if polls.is_multiple_of(64) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// A receiver's key with the voucher its record came with: it verifies
/// through the helper's verdict when that covers exactly these bytes,
/// and inline otherwise.
pub(crate) struct Vouched<'a, K> {
    key: &'a K,
    /// The key's group element, which the verdict's job must name.
    element: VerifyingKey,
    voucher: Option<Voucher<'a>>,
}

impl<'a, K: Verifier> Vouched<'a, K> {
    pub(crate) fn new(key: &'a K, element: VerifyingKey, voucher: Option<Voucher<'a>>) -> Self {
        Vouched {
            key,
            element,
            voucher,
        }
    }
}

impl<K: Verifier> Verifier for Vouched<'_, K> {
    fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let vouched = self
            .voucher
            .and_then(|v| v.verdict(self.element, message, signature));
        vouched.unwrap_or_else(|| self.key.verify(message, signature))
    }
}
