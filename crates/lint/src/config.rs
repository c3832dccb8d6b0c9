//! Lint configuration: the secret-type list, constant-time trigger
//! identifiers, crate scopes, and file-set policies.
//!
//! [`Config::default`] is the one policy: the lists below name this
//! workspace's types, files and crates, and a new key type or warm-path
//! file is added here, next to the claim it enforces (DESIGN.md §9).

/// Which slice-index policy a crate gets under the `panic_freedom` rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Flag every index/range expression whose index is not a single
    /// integer literal. For protocol and parsing crates, where slice
    /// lengths are adversarial.
    Strict,
    /// Indexing is not flagged: fixed-width arithmetic kernels index with
    /// compile-time-bounded loop counters.
    Kernel,
}

/// The lint configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Types holding key material: must not `derive(Debug)` and must carry
    /// a manual (redacting) `Debug` impl.
    pub secret_types: Vec<String>,
    /// Subset of `secret_types` holding raw key bytes: must also impl a
    /// zeroizing `Drop`.
    pub zeroize_types: Vec<String>,
    /// Identifier names treated as secret values when interpolated into
    /// format-like macros.
    pub secret_idents: Vec<String>,
    /// Snake-case identifier *parts* that make an `==`/`!=` comparison
    /// suspicious (tag/MAC/digest material).
    pub ct_ident_parts: Vec<String>,
    /// Function names exempt from the comparison rule (the constant-time
    /// primitives themselves).
    pub ct_exempt_fns: Vec<String>,
    /// Crate directory names under `crates/` subject to `panic_freedom`.
    pub panic_crates: Vec<String>,
    /// Individual workspace-relative files subject to `panic_freedom`
    /// even though their crate is not in `panic_crates` — load-bearing
    /// kernels inside otherwise-exempt crates (the event-engine timer
    /// wheel lives in `hypervisor`, which is free to panic elsewhere).
    pub panic_files: Vec<String>,
    /// Crates whose slice indexing uses the lenient kernel policy.
    pub kernel_index_crates: Vec<String>,
    /// Crate directories skipped entirely (vendored shims).
    pub skip_crates: Vec<String>,
    /// Crate directory names whose code must replay bit-identically
    /// under a fixed seed (the `determinism` rule scope): no
    /// iteration-order-dependent containers, wall clocks, ambient
    /// randomness or ambient state outside `#[cfg(test)]`.
    pub det_crates: Vec<String>,
    /// Files enrolled in the `alloc_freedom` rule: the zero-allocation
    /// warm Msg1–Msg6 path and the hypervisor simulator's event path.
    /// Functions here may not call allocating APIs unless marked
    /// cold/setup.
    pub warm_path_files: Vec<String>,
    /// Function names treated as cold/setup in warm-path files (besides
    /// any fn carrying a `#[cold]` attribute): constructors and
    /// capacity pre-reservation run once at session setup, not per
    /// message.
    pub alloc_cold_fns: Vec<String>,
    /// Function names that stringify or serialize their argument — the
    /// `secret_taint` rule flags a secret passed one call deep into a
    /// callee that forwards the matching parameter to one of these (or
    /// to a format macro or a non-`ct_eq` comparison).
    pub taint_sink_fns: Vec<String>,
}

fn strings(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

impl Default for Config {
    fn default() -> Self {
        Config {
            secret_types: strings(&[
                "SigningKey",
                "SealKey",
                "EphemeralSecret",
                "Drbg",
                "Aes128",
                "HmacSha256",
                "SecureChannel",
                "PendingHandshake",
                "TrustModule",
                "AttestationSession",
            ]),
            // `SealKey` is not here: it holds no raw key bytes, only an
            // `Aes128` and a keyed `HmacSha256`, which scrub themselves.
            zeroize_types: strings(&[
                "SigningKey",
                "EphemeralSecret",
                "Drbg",
                "Aes128",
                "HmacSha256",
            ]),
            secret_idents: strings(&[
                "secret",
                "mac_key",
                "keyed_mac",
                "nonce_mac",
                "enc_key",
                "opad_key",
                "ipad",
                "key_block",
                "round_keys",
                "exponent",
                "send_key",
                "recv_key",
                "sk_bytes",
                "session_secret",
                "shared_secret",
            ]),
            ct_ident_parts: strings(&["tag", "mac", "hmac", "digest", "pcr", "hash", "secret"]),
            ct_exempt_fns: strings(&["verify_tag", "ct_eq", "ct_eq_opt"]),
            panic_crates: strings(&["core", "net", "crypto", "tpm"]),
            panic_files: strings(&[
                // The cloud's one event queue (DESIGN §12): every hop of
                // every session, whatever bytes it carried, is one pop.
                "crates/hypervisor/src/queue.rs",
                // The benchmark's `hypervisor.wheel.*` leaves time it as
                // a drop-in for that queue (DESIGN §12), so it keeps the
                // queue's contract.
                "crates/hypervisor/src/wheel.rs",
                // No panic on a pop (DESIGN §12.1's hazard table): every
                // `ServerSim` event is a `TimerSlots` pop.
                "crates/hypervisor/src/timers.rs",
            ]),
            kernel_index_crates: strings(&["crypto"]),
            skip_crates: strings(&["rand-shim", "proptest-shim", "lint"]),
            det_crates: strings(&["core", "net", "hypervisor", "crypto", "tpm", "workloads"]),
            warm_path_files: strings(&[
                "crates/net/src/wire.rs",
                "crates/net/src/channel.rs",
                "crates/core/src/session.rs",
                "crates/core/src/protocol/run.rs",
                "crates/core/src/arena.rs",
                "crates/core/src/cloud/events.rs",
                "crates/core/src/cloud/appraisers.rs",
                "crates/core/src/verify_ring.rs",
                // Message 4's one validator and the pCA's one
                // certification path (DESIGN §10.3) run in every warm
                // round; with a reused AVK, through its bound key.
                "crates/core/src/attestation.rs",
                "crates/core/src/pca.rs",
                // The cloud's one event queue (DESIGN §12): a warm round
                // schedules and pops without growing it.
                "crates/hypervisor/src/queue.rs",
                // Timed by the benchmark as a drop-in for that queue
                // (DESIGN §12).
                "crates/hypervisor/src/wheel.rs",
                // A busy server's pops allocate nothing (DESIGN §12.1,
                // "Dense tables of what is alive"): the event path names
                // rows sized at `create_vm`.
                "crates/hypervisor/src/engine.rs",
                // Timer slots are re-armed in place (DESIGN §12.1,
                // "Timer slots").
                "crates/hypervisor/src/timers.rs",
                // Closing a segment into a VM's window counts into fixed
                // registers (DESIGN §12.1, "The Trust Evidence Registers
                // are registers").
                "crates/hypervisor/src/profile.rs",
                // The drivers run inside every `ServerSim` pop, behind
                // the `dyn WorkloadDriver` call the rule cannot follow;
                // the eight `busy_window` guest kinds run with zero
                // allocator calls (DESIGN §12.1, `tests/zero_alloc.rs`).
                "crates/hypervisor/src/driver.rs",
                "crates/workloads/src/services.rs",
                "crates/workloads/src/programs.rs",
            ]),
            alloc_cold_fns: strings(&["new", "default", "with_capacity", "fmt"]),
            taint_sink_fns: strings(&["serialize", "to_json", "to_string", "to_hex", "hex_string"]),
        }
    }
}

impl Config {
    /// The index policy for a crate directory name.
    pub fn index_policy(&self, crate_name: &str) -> IndexPolicy {
        if self.kernel_index_crates.iter().any(|c| c == crate_name) {
            IndexPolicy::Kernel
        } else {
            IndexPolicy::Strict
        }
    }

    /// Whether `panic_freedom` applies to a crate directory name.
    pub fn panic_scope(&self, crate_name: &str) -> bool {
        self.panic_crates.iter().any(|c| c == crate_name)
    }

    /// Whether `panic_freedom` applies to a specific file regardless of
    /// its crate's scope.
    pub fn panic_scope_file(&self, path: &str) -> bool {
        self.panic_files.iter().any(|f| f == path)
    }

    /// Whether the `determinism` rule applies to a crate directory name.
    pub fn det_scope(&self, crate_name: &str) -> bool {
        self.det_crates.iter().any(|c| c == crate_name)
    }

    /// Whether a file is enrolled in the `alloc_freedom` warm-path set.
    pub fn is_warm_path(&self, path: &str) -> bool {
        self.warm_path_files.iter().any(|f| f == path)
    }
}
