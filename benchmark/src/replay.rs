//! The stage replay: Figure-3 sessions re-executed *outside* `Cloud`,
//! through the role modules' public functions, with records of the
//! same sizes, one span per call.
//!
//! `Cloud` keeps its engine, arena and interpreter private, so host
//! time cannot yet be attributed inside it. What can be done from
//! outside is to make the same calls the session layer makes, in the
//! same order — encode, seal, transmit, open, decode for each of the
//! six messages, the Attestation Server's request/validate/interpret/
//! certify, the server's measurement and quote, the controller's
//! certify/verify — and time each. Leaf operations a call performs
//! inside (AEAD, Schnorr, SHA-256, key generation, the Trust Module)
//! run again alone right after it as *twin* child spans, so a layer's
//! self time is its span minus its children. Whatever the untraced
//! per-session cost exceeds the replayed total by is
//! `core.cloud.unattributed_us_per_session`: the part still dark.

use crate::layers::{boot_node, guest_driver};
use crate::trace::{SpanId, Tracer};
use monatt_core::attestation::BatchValidationItem;
use monatt_core::messages::{
    append_route_tag, split_route_tag, AttestationReportMsg, ControllerForward, CustomerReportMsg,
    CustomerRequest, MeasureRequest, MeasureResponse,
};
use monatt_core::{
    AttestationServer, CloudController, CloudServerNode, Image, PrivacyCa, RouteTag,
    SecurityProperty, ServerId, Vid, WorkloadSpec,
};
use monatt_crypto::schnorr::VerifyingKey;
use monatt_crypto::{batch_verify_each, Drbg, SealKey, SigningKey};
use monatt_net::channel::{handshake_pair, ChannelError, SecureChannel};
use monatt_net::sim::{FaultModel, SimNetwork};
use monatt_net::wire::{EncodeScratch, Wire, WireError};
use monatt_tpm::module::TrustModule;
use monatt_tpm::quote::{quote_digest, Quote};

/// How one workload's sessions look to the replay.
#[derive(Clone, Debug)]
pub struct ReplayParams {
    /// pCPUs of the replayed server.
    pub pcpus: usize,
    /// One single-vCPU guest per entry.
    pub guests: Vec<WorkloadSpec>,
    /// Properties the sessions cycle through.
    pub properties: Vec<SecurityProperty>,
    /// Records carry the control-plane route tag.
    pub routed: bool,
    /// `(drop, duplicate, delay, delay_us)` of the network, if faulty.
    pub faults: Option<(f64, f64, f64, u64)>,
    /// Message-4 validation batch size; 1 validates inline.
    pub batch: usize,
    /// Servers reuse their attestation key and the pCA caches its
    /// certificates.
    pub avk_cache: bool,
    /// Virtual microseconds between two sessions on one server.
    pub gap_us: u64,
    /// Sessions to replay.
    pub sessions: usize,
    /// Seed of every key and nonce of the replay.
    pub seed: u64,
}

/// What the replay produced besides its spans.
#[derive(Debug)]
pub struct Replayed {
    /// Every span.
    pub tracer: Tracer,
    /// Sessions replayed.
    pub sessions: usize,
    /// Plaintext bytes encoded, all six messages of every session.
    pub wire_bytes: u64,
}

/// Both ends of one secure link.
struct Link {
    /// The end that sends requests (messages 1-3).
    down: SecureChannel,
    /// The end that sends responses (messages 4-6).
    up: SecureChannel,
    down_name: &'static str,
    up_name: &'static str,
}

impl Link {
    fn new(rng: &mut Drbg, down_name: &'static str, up_name: &'static str) -> Link {
        let (a, b) = (SigningKey::generate(rng), SigningKey::generate(rng));
        let (down, up) = handshake_pair(rng, &a, &b).expect("honest in-process handshake");
        Link {
            down,
            up,
            down_name,
            up_name,
        }
    }
}

/// The network and the buffers a hop goes through.
struct Transport {
    net: SimNetwork,
    routed: bool,
    wire: Vec<u8>,
    sealed: Vec<u8>,
    record: Vec<u8>,
    inbox: Vec<u8>,
    /// A key of the channel's kind, for timing the AEAD alone.
    twin_key: SealKey,
    twin_sealed: Vec<u8>,
    twin_plain: Vec<u8>,
    wire_bytes: u64,
}

const TWIN_NONCE: [u8; 12] = [7; 12];
const ROUTE: RouteTag = RouteTag {
    shard: 1,
    controller: 1,
    replica: 1,
};

impl Transport {
    /// Sends `msg` over `link` (towards the server when `down`) the way
    /// `Cloud::transmit_attempt` does, and returns what the receiver
    /// decoded.
    fn hop<M: Wire>(
        &mut self,
        tr: &mut Tracer,
        sid: u32,
        link: &mut Link,
        down: bool,
        msg: &M,
    ) -> M {
        let Transport {
            net,
            routed,
            wire,
            sealed,
            record,
            inbox,
            twin_key,
            twin_sealed,
            twin_plain,
            wire_bytes,
        } = self;
        let (send, recv, from, to) = match down {
            true => (&mut link.down, &mut link.up, link.down_name, link.up_name),
            false => (&mut link.up, &mut link.down, link.up_name, link.down_name),
        };
        tr.span("net.wire.encode", 0, sid, || {
            msg.encode_into(wire);
            if *routed {
                append_route_tag(wire, ROUTE);
            }
        });
        *wire_bytes += wire.len() as u64;
        let (_, seal) = tr.span("net.channel.seal", 0, sid, || {
            send.seal_into(b"", wire, sealed)
        });
        tr.twin("crypto.seal", seal, sid, || {
            twin_sealed.clear();
            twin_key.seal_into(&TWIN_NONCE, b"", wire, twin_sealed);
        });
        // A lost record is retransmitted byte-identical after the
        // sender's timeout; the replay pays the transmit again.
        let outcome = loop {
            let (outcome, _) = tr.span("net.sim.transmit", 0, sid, || {
                net.transmit_into(from, to, sealed, 0, record)
            });
            if outcome.delivered {
                break outcome;
            }
        };
        let (opened, open) = tr.span("net.channel.open", 0, sid, || {
            recv.open_into(b"", record, inbox)
        });
        opened.expect("record sealed a moment ago on an uncorrupted network");
        tr.twin("crypto.open", open, sid, || {
            twin_plain.clear();
            twin_key.open_into(&TWIN_NONCE, b"", twin_sealed, twin_plain)
        })
        .0
        .expect("twin record sealed a moment ago");
        if outcome.duplicated {
            // The receive window bounces the second copy.
            let (second, _) = tr.span("net.channel.open", 0, sid, || {
                recv.open_into(b"", record, twin_plain)
            });
            assert!(matches!(second, Err(ChannelError::DuplicateRecord)));
        }
        let (decoded, _) = tr.span("net.wire.decode", 0, sid, || -> Result<M, WireError> {
            match *routed {
                true => M::from_wire(split_route_tag(inbox).ok_or(WireError::UnexpectedEnd)?.0),
                false => M::from_wire(inbox),
            }
        });
        decoded.expect("record encoded a moment ago")
    }
}

/// Twins of `Quote::create`: hash the fields, sign the digest.
fn twin_quote_create(
    tr: &mut Tracer,
    parent: SpanId,
    sid: u32,
    key: &SigningKey,
    fields: &[&[u8]],
) {
    let (digest, _) = tr.twin("crypto.sha256", parent, sid, || quote_digest(fields));
    tr.twin("crypto.schnorr_sign", parent, sid, || key.sign(&digest));
}

/// Twins of `Quote::verify`: hash the fields, verify the signature.
fn twin_quote_verify(
    tr: &mut Tracer,
    parent: SpanId,
    sid: u32,
    key: &VerifyingKey,
    quote: &Quote,
    fields: &[&[u8]],
) {
    tr.twin("crypto.sha256", parent, sid, || quote_digest(fields));
    tr.twin("crypto.schnorr_verify", parent, sid, || {
        key.verify(&quote.digest, &quote.signature)
    })
    .0
    .expect("quote verified a moment ago");
}

/// A session whose message 4 has reached the Attestation Server.
struct Measured {
    sid: u32,
    vid: Vid,
    property: SecurityProperty,
    nonce1: [u8; 32],
    nonce2: [u8; 32],
    request: MeasureRequest,
    response: MeasureResponse,
}

/// The replayed cloud: one of each role, three links, one server.
struct Replay {
    params: ReplayParams,
    rng: Drbg,
    controller: CloudController,
    attserver: AttestationServer,
    node: CloudServerNode,
    vids: Vec<Vid>,
    customer_link: Link,
    attserver_link: Link,
    server_link: Link,
    transport: Transport,
    scratch: EncodeScratch,
    now_us: u64,
    pending: Vec<Measured>,
    /// Stand-ins for timing private internals alone.
    twin_tpm: TrustModule,
    twin_pca: PrivacyCa,
    twin_key: SigningKey,
    twin_scratch: EncodeScratch,
}

impl Replay {
    fn new(params: ReplayParams) -> Replay {
        let mut rng = Drbg::from_seed(params.seed);
        let controller = CloudController::new(&mut rng);
        let mut attserver = AttestationServer::new(&mut rng);
        if params.avk_cache {
            attserver.enable_avk_cert_cache();
        }
        // `boot_node` fills the server with idle guests; swap in the
        // workload's own.
        let (mut node, idle) = boot_node(params.pcpus, &mut attserver, params.seed ^ 0x5E4);
        for vid in idle {
            node.remove_vm(vid);
        }
        let vids: Vec<Vid> = (1..=params.guests.len() as u64).map(Vid).collect();
        for (&vid, &guest) in vids.iter().zip(&params.guests) {
            node.launch_vm(
                vid,
                Image::Cirros,
                Image::Cirros.pristine_bytes(),
                vec![guest_driver(guest, params.seed ^ vid.0)],
                256,
            );
        }
        node.set_avk_reuse(params.avk_cache);
        let mut net = SimNetwork::default();
        net.set_logging(false);
        if let Some((drop, duplicate, delay, delay_us)) = params.faults {
            net.set_fault_model(
                FaultModel::new(params.seed)
                    .drop_prob(drop)
                    .duplicate_prob(duplicate)
                    .delay(delay, delay_us),
            );
        }
        let mut twin_pca = PrivacyCa::new(&mut rng);
        twin_pca.register_server(node.identity_key());
        if params.avk_cache {
            twin_pca.enable_cert_cache();
        }
        Replay {
            customer_link: Link::new(&mut rng, "customer", "controller"),
            attserver_link: Link::new(&mut rng, "controller", "attserver"),
            server_link: Link::new(&mut rng, "attserver", "server-0"),
            transport: Transport {
                net,
                routed: params.routed,
                wire: Vec::new(),
                sealed: Vec::new(),
                record: Vec::new(),
                inbox: Vec::new(),
                twin_key: SealKey::derive(&[7; 32], b"replay twin"),
                twin_sealed: Vec::new(),
                twin_plain: Vec::new(),
                wire_bytes: 0,
            },
            twin_tpm: TrustModule::provision(Drbg::from_seed(params.seed ^ 0x7E57)),
            twin_key: SigningKey::generate(&mut rng),
            twin_pca,
            twin_scratch: EncodeScratch::new(),
            scratch: EncodeScratch::new(),
            controller,
            attserver,
            node,
            vids,
            now_us: 0,
            pending: Vec::with_capacity(params.batch),
            params,
            rng,
        }
    }

    fn nonce(&mut self, tr: &mut Tracer, sid: u32) -> [u8; 32] {
        let rng = &mut self.rng;
        tr.span("crypto.drbg", 0, sid, || rng.next_bytes32()).0
    }

    /// Messages 1-4: request, forward, measure, respond.
    fn request_and_measure(&mut self, tr: &mut Tracer, sid: u32) {
        let vid = self.vids[sid as usize % self.vids.len()];
        let property = self.params.properties[sid as usize % self.params.properties.len()];

        let nonce1 = self.nonce(tr, sid);
        let msg1 = CustomerRequest {
            vid,
            property,
            nonce1,
        };
        let msg1 = self
            .transport
            .hop(tr, sid, &mut self.customer_link, true, &msg1);

        let nonce2 = self.nonce(tr, sid);
        let msg2 = ControllerForward {
            vid: msg1.vid,
            server: ServerId(0),
            property: msg1.property,
            nonce2,
        };
        let msg2 = self
            .transport
            .hop(tr, sid, &mut self.attserver_link, true, &msg2);

        let nonce3 = self.nonce(tr, sid);
        let attserver = &self.attserver;
        let (msg3, _) = tr.span("core.attestation.build_request", 0, sid, || {
            attserver.build_measure_request(msg2.vid, msg2.property, nonce3)
        });
        let request = self
            .transport
            .hop(tr, sid, &mut self.server_link, true, &msg3);

        // The server's simulator catches up lazily: over the time since
        // it was last touched (`gap_us` apart, window included), then
        // over the measurement window.
        let node = &mut self.node;
        let window = request.spec.window_us();
        self.now_us += self.params.gap_us.saturating_sub(window);
        let now = self.now_us;
        tr.span("hypervisor.engine.catch_up", 0, sid, || node.catch_up(now));
        if window > 0 {
            tr.span("core.server.begin_window", 0, sid, || {
                node.begin_window(request.spec, request.vid)
            });
            self.now_us += window;
            let now = self.now_us;
            tr.span("hypervisor.engine.catch_up", 0, sid, || node.catch_up(now));
        }
        let (response, attest) = tr.span("core.server.attest", 0, sid, || {
            node.attest(request.vid, request.spec, request.nonce3)
        });
        let response: MeasureResponse =
            response.expect("VM launched on the replayed server").into();
        // Inside `attest`: a fresh attestation key (unless reused),
        // the quote fields encoded, quote Q3 created.
        if !self.params.avk_cache {
            let (twin_tpm, twin_rng, twin_key) =
                (&mut self.twin_tpm, &mut self.rng, &self.twin_key);
            let (_, begin) = tr.twin("tpm.begin_attestation", attest, sid, || {
                twin_tpm.begin_attestation()
            });
            let (key, _) = tr.twin("crypto.keygen", begin, sid, || {
                SigningKey::generate(twin_rng)
            });
            let avk = key.verifying_key().to_bytes();
            tr.twin("crypto.schnorr_sign", begin, sid, || twin_key.sign(&avk));
        }
        let vid_bytes = response.vid.0.to_be_bytes();
        let twin_scratch = &mut self.twin_scratch;
        let ((spec_bytes, measurement_bytes), _) =
            tr.twin("net.wire.encode_fields", attest, sid, || {
                twin_scratch.encode_pair(&response.spec, &response.measurement)
            });
        let fields: [&[u8]; 4] = [&vid_bytes, spec_bytes, measurement_bytes, &response.nonce3];
        let twin_session_key = &self.twin_key;
        let (_, quote) = tr.twin("tpm.quote", attest, sid, || {
            Quote::create(twin_session_key, &fields)
        });
        twin_quote_create(tr, quote, sid, &self.twin_key, &fields);

        let response = self
            .transport
            .hop(tr, sid, &mut self.server_link, false, &response);
        self.pending.push(Measured {
            sid,
            vid,
            property,
            nonce1,
            nonce2,
            request,
            response,
        });
    }

    /// The Attestation Server validates what is pending: inline for a
    /// batch of one, else in one batched pass.
    fn validate_pending(&mut self, tr: &mut Tracer) {
        let Some(first) = self.pending.first() else {
            return;
        };
        let sid = first.sid;
        let (attserver, scratch) = (&mut self.attserver, &mut self.scratch);
        let pending = &self.pending;
        let validate = if pending.len() == 1 {
            let m = &pending[0];
            let (verdict, validate) = tr.span("core.attestation.validate", 0, sid, || {
                attserver.validate_response_with(
                    &m.response,
                    m.vid,
                    m.request.spec,
                    m.request.nonce3,
                    scratch,
                )
            });
            verdict.expect("response produced a moment ago");
            validate
        } else {
            let items: Vec<BatchValidationItem<'_>> = pending
                .iter()
                .map(|m| BatchValidationItem {
                    response: &m.response,
                    expected_vid: m.vid,
                    expected_spec: m.request.spec,
                    expected_nonce3: m.request.nonce3,
                })
                .collect();
            let (verdicts, validate) = tr.span("core.attestation.validate_batch", 0, sid, || {
                attserver.validate_response_batch(&items, scratch)
            });
            assert!(
                verdicts.iter().all(Result::is_ok),
                "responses produced a moment ago"
            );
            validate
        };
        // Inside validation, per response: the pCA certifies the
        // attestation key (verify the identity binding, sign the
        // certificate; a cache hit skips both), the quote fields are
        // encoded and hashed, the quote signature verified.
        let mut signatures = Vec::with_capacity(2 * pending.len());
        let avks: Vec<[u8; 32]> = pending
            .iter()
            .map(|m| m.response.cert_request.attestation_key.to_bytes())
            .collect();
        let inline = pending.len() == 1;
        for (m, avk) in pending.iter().zip(&avks) {
            let request = &m.response.cert_request;
            let twin_key = &self.twin_key;
            if inline {
                let twin_pca = &mut self.twin_pca;
                let hits = twin_pca.cache_stats().0;
                let (_, certify) = tr.twin("core.pca.certify", validate, m.sid, || {
                    twin_pca.certify(request)
                });
                if twin_pca.cache_stats().0 == hits {
                    tr.twin("crypto.schnorr_verify", certify, m.sid, || request.verify());
                    tr.twin("crypto.schnorr_sign", certify, m.sid, || {
                        twin_key.sign(&[0; 48])
                    });
                }
            } else {
                // The batch path hands the binding to the combined
                // check and only has the pCA sign the certificate.
                signatures.push((
                    request.identity_key,
                    avk.as_slice(),
                    request.identity_signature,
                ));
                tr.twin("crypto.schnorr_sign", validate, m.sid, || {
                    twin_key.sign(&[0; 48])
                });
            }
            let vid_bytes = m.response.vid.0.to_be_bytes();
            let twin_scratch = &mut self.twin_scratch;
            let ((spec_bytes, measurement_bytes), _) =
                tr.twin("net.wire.encode_fields", validate, m.sid, || {
                    twin_scratch.encode_pair(&m.response.spec, &m.response.measurement)
                });
            let fields: [&[u8]; 4] = [
                &vid_bytes,
                spec_bytes,
                measurement_bytes,
                &m.response.nonce3,
            ];
            if inline {
                twin_quote_verify(
                    tr,
                    validate,
                    m.sid,
                    &request.attestation_key,
                    &m.response.quote,
                    &fields,
                );
            } else {
                tr.twin("crypto.sha256", validate, m.sid, || quote_digest(&fields));
                signatures.push((
                    request.attestation_key,
                    m.response.quote.digest.as_slice(),
                    m.response.quote.signature,
                ));
            }
        }
        if !signatures.is_empty() {
            tr.twin("crypto.batch_verify", validate, sid, || {
                batch_verify_each(&signatures)
            });
        }
    }

    /// Messages 5 and 6 for every validated session.
    fn certify_and_report(&mut self, tr: &mut Tracer) {
        for m in std::mem::take(&mut self.pending) {
            let sid = m.sid;
            let (attserver, scratch) = (&self.attserver, &mut self.scratch);
            let (status, _) = tr.span("core.attestation.interpret", 0, sid, || {
                attserver.interpret_response(m.property, &m.response, Image::Cirros)
            });
            let (msg5, certify) = tr.span("core.attestation.certify", 0, sid, || {
                attserver.certify_report_with(
                    m.vid,
                    ServerId(0),
                    m.property,
                    status,
                    m.nonce2,
                    scratch,
                )
            });
            self.twin_q2(tr, certify, sid, &msg5, None);
            let msg5 = self
                .transport
                .hop(tr, sid, &mut self.attserver_link, false, &msg5);
            let as_key = self.attserver.identity_key();
            let scratch = &mut self.scratch;
            let (verdict, verify) = tr.span("core.attestation.verify_report", 0, sid, || {
                AttestationServer::verify_report_msg_with(&msg5, &as_key, m.nonce2, scratch)
            });
            verdict.expect("report certified a moment ago");
            self.twin_q2(tr, verify, sid, &msg5, Some(&as_key));

            let (controller, scratch) = (&self.controller, &mut self.scratch);
            let (msg6, certify) = tr.span("core.controller.certify_customer", 0, sid, || {
                controller.certify_customer_report_with(
                    m.vid,
                    m.property,
                    msg5.status.clone(),
                    m.nonce1,
                    scratch,
                )
            });
            self.twin_q1(tr, certify, sid, &msg6, None);
            let msg6 = self
                .transport
                .hop(tr, sid, &mut self.customer_link, false, &msg6);
            let controller_key = self.controller.identity_key();
            let scratch = &mut self.scratch;
            let (verdict, verify) = tr.span("core.controller.verify_customer", 0, sid, || {
                CloudController::verify_customer_report_with(
                    &msg6,
                    &controller_key,
                    m.nonce1,
                    scratch,
                )
            });
            verdict.expect("report certified a moment ago");
            self.twin_q1(tr, verify, sid, &msg6, Some(&controller_key));
        }
    }

    /// Twins of quote Q2 (message 5): created when `verify_with` is
    /// `None`, verified against that key otherwise.
    fn twin_q2(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        sid: u32,
        msg: &AttestationReportMsg,
        verify_with: Option<&VerifyingKey>,
    ) {
        let (vid_bytes, server_bytes) = (msg.vid.0.to_be_bytes(), msg.server.0.to_be_bytes());
        let twin_scratch = &mut self.twin_scratch;
        let ((property_bytes, status_bytes), _) =
            tr.twin("net.wire.encode_fields", parent, sid, || {
                twin_scratch.encode_pair(&msg.property, &msg.status)
            });
        let fields: [&[u8]; 5] = [
            &vid_bytes,
            &server_bytes,
            property_bytes,
            status_bytes,
            &msg.nonce2,
        ];
        match verify_with {
            Some(key) => twin_quote_verify(tr, parent, sid, key, &msg.quote, &fields),
            None => twin_quote_create(tr, parent, sid, &self.twin_key, &fields),
        }
    }

    /// Twins of quote Q1 (message 6), as [`Self::twin_q2`].
    fn twin_q1(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        sid: u32,
        msg: &CustomerReportMsg,
        verify_with: Option<&VerifyingKey>,
    ) {
        let vid_bytes = msg.vid.0.to_be_bytes();
        let twin_scratch = &mut self.twin_scratch;
        let ((property_bytes, status_bytes), _) =
            tr.twin("net.wire.encode_fields", parent, sid, || {
                twin_scratch.encode_pair(&msg.property, &msg.status)
            });
        let fields: [&[u8]; 4] = [&vid_bytes, property_bytes, status_bytes, &msg.nonce1];
        match verify_with {
            Some(key) => twin_quote_verify(tr, parent, sid, key, &msg.quote, &fields),
            None => twin_quote_create(tr, parent, sid, &self.twin_key, &fields),
        }
    }

    /// Replays sessions `sids`, validating whenever a batch is full
    /// and once more at the end.
    fn run(&mut self, tr: &mut Tracer, sids: std::ops::Range<u32>) {
        let batch = self.params.batch.max(1);
        for sid in sids {
            self.request_and_measure(tr, sid);
            if self.pending.len() >= batch {
                self.validate_pending(tr);
                self.certify_and_report(tr);
            }
        }
        self.validate_pending(tr);
        self.certify_and_report(tr);
    }
}

/// Replays `params.sessions` sessions (after a short untraced warm-up
/// that fills buffers and caches, as the workloads' own warm-up does).
pub fn replay(params: ReplayParams) -> Replayed {
    let sessions = params.sessions;
    let warm_up = (2 * params.batch as u32).max(8);
    let mut replay = Replay::new(params);
    replay.run(&mut Tracer::new(), 0..warm_up);
    replay.transport.wire_bytes = 0;
    let mut tracer = Tracer::new();
    replay.run(&mut tracer, 0..sessions as u32);
    Replayed {
        tracer,
        sessions,
        wire_bytes: replay.transport.wire_bytes,
    }
}
