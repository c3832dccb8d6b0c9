//! Leaf costs of every layer, measured from outside through public
//! functions, alone and single-threaded, at the sizes the Figure-3
//! records really have (81/85/81/358/182/178 bytes; the 358-byte
//! message 4 is the one sealed, hashed and transmitted here).
//!
//! Each cost is the median over chunks of back-to-back calls, so the
//! ~25 ns of `Instant::now` is spread over a chunk. Nanosecond-scale
//! leaves get 100 chunks of 100 calls (10 000); leaves that take tens
//! of microseconds or more get fewer calls, stated at each.

use crate::spec::median;
use crate::workloads::{BUSY_GUESTS, ROUND_CONTROL_PLANE, ROUND_FAULTS};
use monatt_core::attestation::BatchValidationItem;
use monatt_core::interpret::property_to_spec;
use monatt_core::messages::MeasureResponse;
use monatt_core::{
    AttestationServer, CloudBuilder, CloudController, CloudServerNode, ControlPlaneTopology,
    Flavor, HealthStatus, Image, MeasurementSpec, PrivacyCa, Protocol, ReferenceDb,
    SecurityProperty, ServerId, ServerInfo, Vid, WorkloadSpec,
};
use monatt_crypto::aes::Aes128;
use monatt_crypto::hmac::hmac_sha256;
use monatt_crypto::{batch_verify, sha256, Drbg, EphemeralSecret, SealKey, SigningKey};
use monatt_hypervisor::driver::{BusyLoop, IdleDriver, WorkloadDriver};
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::queue::EventQueue;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::vm::VmConfig;
use monatt_hypervisor::wheel::TimerWheel;
use monatt_net::channel::handshake_pair;
use monatt_net::sim::{FaultModel, SimNetwork};
use monatt_net::wire::EncodeScratch;
use monatt_tpm::module::TrustModule;
use monatt_tpm::pcr::PcrBank;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Plaintext size of the largest Figure-3 record (message 4).
pub const MSG4_BYTES: usize = 358;
/// Queue depth the wheel and heap are measured at.
const QUEUE_DEPTH: u64 = 4096;

/// Median nanoseconds per call over `chunks` chunks of `per_chunk`
/// back-to-back calls.
fn time_ns(chunks: usize, per_chunk: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..chunks)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_chunk {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_chunk as f64
        })
        .collect();
    median(&samples)
}

/// The default: 10 000 calls.
fn leaf_ns(f: impl FnMut()) -> f64 {
    time_ns(100, 100, f)
}

/// Median nanoseconds of `timed`, each call preceded by an untimed
/// `prepare` whose result it consumes.
fn time_each_ns<T>(calls: usize, mut prepare: impl FnMut() -> T, mut timed: impl FnMut(T)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            timed(input);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Named leaf costs.
pub type Leaves = BTreeMap<&'static str, f64>;

/// A booted server with one idle VM per pCPU, registered with `attserver`.
pub fn boot_node(
    pcpus: usize,
    attserver: &mut AttestationServer,
    seed: u64,
) -> (CloudServerNode, Vec<Vid>) {
    let references = ReferenceDb::new();
    let mut node = CloudServerNode::boot(
        ServerId(0),
        pcpus,
        SchedParams::default(),
        Drbg::from_seed(seed),
        references.platform_components(),
        &ALL_PROPERTIES,
    );
    attserver.register_cloud_server(node.identity_key());
    let vids: Vec<Vid> = (1..=pcpus as u64).map(Vid).collect();
    for &vid in &vids {
        node.launch_vm(
            vid,
            Image::Cirros,
            Image::Cirros.pristine_bytes(),
            vec![Box::new(IdleDriver)],
            256,
        );
    }
    (node, vids)
}

/// Every property a server can be asked about.
pub const ALL_PROPERTIES: [SecurityProperty; 5] = [
    SecurityProperty::StartupIntegrity,
    SecurityProperty::RuntimeIntegrity,
    SecurityProperty::CovertChannelFreedom,
    SecurityProperty::CpuAvailability { min_share_pct: 0 },
    SecurityProperty::SchedulerFairness,
];

/// The drivers of guest `spec` with one vCPU (what `Cloud` builds for
/// a Small VM; `WorkloadSpec::drivers` itself is crate-private).
pub fn guest_driver(spec: WorkloadSpec, seed: u64) -> Box<dyn WorkloadDriver> {
    match spec {
        WorkloadSpec::Busy => Box::new(BusyLoop::default()),
        WorkloadSpec::Service(service) => Box::new(service.driver(seed)),
        WorkloadSpec::Program(program) => Box::new(program.driver()),
        _ => Box::new(IdleDriver),
    }
}

fn crypto(out: &mut Leaves) {
    let mut rng = Drbg::from_seed(0xC0DE);
    let key = SigningKey::generate(&mut rng);
    let public = key.verifying_key();
    let digest = [0x5a_u8; 32];
    let signature = key.sign(&digest);
    out.insert(
        "crypto.schnorr_sign_ns",
        leaf_ns(|| {
            black_box(key.sign(black_box(&digest)));
        }),
    );
    out.insert(
        "crypto.schnorr_verify_ns",
        leaf_ns(|| {
            public
                .verify(black_box(&digest), &signature)
                .expect("valid signature");
        }),
    );

    let signers: Vec<(SigningKey, [u8; 32])> = (0..64)
        .map(|_| (SigningKey::generate(&mut rng), rng.next_bytes32()))
        .collect();
    let batch: Vec<_> = signers
        .iter()
        .map(|(k, m)| (k.verifying_key(), m.as_slice(), k.sign(m)))
        .collect();
    // 160 batches of 64 signatures.
    let per_batch = time_ns(40, 4, || {
        batch_verify(black_box(&batch)).expect("valid batch")
    });
    out.insert("crypto.batch_verify64_ns_per_sig", per_batch / 64.0);

    let (alice, bob) = (
        EphemeralSecret::generate(&mut rng),
        EphemeralSecret::generate(&mut rng),
    );
    let share = bob.public_share();
    out.insert(
        "crypto.dh_agree_ns",
        leaf_ns(|| {
            black_box(
                alice
                    .agree(black_box(&share), b"bench")
                    .expect("valid share"),
            );
        }),
    );

    let message = vec![0xab_u8; MSG4_BYTES];
    let hash_ns = leaf_ns(|| {
        black_box(sha256(black_box(&message)));
    });
    out.insert("crypto.sha256_ns_per_byte", hash_ns / MSG4_BYTES as f64);
    out.insert(
        "crypto.hmac_64B_ns",
        leaf_ns(|| {
            black_box(hmac_sha256(&digest, black_box(&message[..64])));
        }),
    );
    let cipher = Aes128::new(&[7; 16]);
    let mut buffer = message.clone();
    let ctr_ns = leaf_ns(|| cipher.ctr_xor(&[1; 12], black_box(&mut buffer)));
    out.insert("crypto.aes_ctr_ns_per_byte", ctr_ns / MSG4_BYTES as f64);

    let seal_key = SealKey::derive(&[7; 32], b"bench");
    let nonce = [1_u8; 12];
    let mut record = Vec::new();
    out.insert(
        "crypto.seal_358B_ns",
        leaf_ns(|| {
            record.clear();
            seal_key.seal_into(&nonce, b"", black_box(&message), &mut record);
        }),
    );
    let mut plain = Vec::new();
    out.insert(
        "crypto.open_358B_ns",
        leaf_ns(|| {
            plain.clear();
            seal_key
                .open_into(&nonce, b"", black_box(&record), &mut plain)
                .expect("authentic record");
        }),
    );
    out.insert(
        "crypto.drbg_32B_ns",
        leaf_ns(|| {
            black_box(rng.next_bytes32());
        }),
    );
}

fn tpm(out: &mut Leaves) {
    let mut module = TrustModule::provision(Drbg::from_seed(0x7E57));
    out.insert(
        "tpm.begin_attestation_ns",
        leaf_ns(|| {
            black_box(module.begin_attestation());
        }),
    );
    let session = module.begin_attestation();
    // The four fields of quote Q3: vid, spec, measurement, nonce.
    let fields: [&[u8]; 4] = [&[1; 8], &[1; 1], &[2; 90], &[3; 32]];
    out.insert(
        "tpm.quote_ns",
        leaf_ns(|| {
            black_box(session.quote(black_box(&fields)));
        }),
    );
    let mut bank = PcrBank::new();
    let digest = sha256(b"component");
    out.insert(
        "tpm.pcr_extend_ns",
        leaf_ns(|| {
            // Keep the event log short: the cost of interest is the extend.
            if bank.log().len() >= 64 {
                bank.reset();
            }
            bank.extend(0, digest, "component");
        }),
    );
}

fn net(out: &mut Leaves) {
    let mut rng = Drbg::from_seed(0x0E7);
    let (a, b) = (
        SigningKey::generate(&mut rng),
        SigningKey::generate(&mut rng),
    );
    // 200 handshakes (two DH agreements and four signatures each).
    let handshake_ns = time_ns(20, 10, || {
        black_box(handshake_pair(&mut rng, &a, &b).expect("honest handshake"));
    });
    out.insert("net.channel.handshake_us", handshake_ns / 1e3);

    // A sealed message 4: 8-byte sequence header, plaintext, 32-byte tag.
    let record = vec![0x42_u8; 8 + MSG4_BYTES + 32];
    let mut delivered = Vec::new();
    let mut clean = SimNetwork::default();
    clean.set_logging(false);
    out.insert(
        "net.sim.transmit_ns_per_msg",
        leaf_ns(|| {
            black_box(clean.transmit_into("attserver", "server-0", &record, 0, &mut delivered));
        }),
    );
    let (drop, duplicate, delay, delay_us) = ROUND_FAULTS;
    let mut faulty = SimNetwork::default();
    faulty.set_logging(false);
    faulty.set_fault_model(
        FaultModel::new(1)
            .drop_prob(drop)
            .duplicate_prob(duplicate)
            .delay(delay, delay_us),
    );
    out.insert(
        "net.sim.transmit_faulty_ns_per_msg",
        leaf_ns(|| {
            black_box(faulty.transmit_into("attserver", "server-0", &record, 0, &mut delivered));
        }),
    );
}

fn engine_us_per_virt_s(guests: impl Fn(usize) -> Box<dyn WorkloadDriver>) -> f64 {
    // Eight single-vCPU guests on four pCPUs, as on a `busy_window`
    // server; 20 virtual seconds, one at a time.
    let mut sim = ServerSim::new(4, SchedParams::default());
    for i in 0..8 {
        sim.create_vm(VmConfig::new(&format!("vm-{i}"), vec![guests(i)]));
    }
    sim.run_for(1_000_000);
    time_ns(20, 1, || sim.run_for(1_000_000)) / 1e3
}

fn hypervisor(out: &mut Leaves) {
    out.insert(
        "hypervisor.engine.us_per_virt_s_idle",
        engine_us_per_virt_s(|_| Box::new(IdleDriver)),
    );
    out.insert(
        "hypervisor.engine.us_per_virt_s_busy",
        engine_us_per_virt_s(|_| Box::new(BusyLoop::default())),
    );
    out.insert(
        "hypervisor.engine.us_per_virt_s_mixed",
        engine_us_per_virt_s(|i| guest_driver(BUSY_GUESTS[i], i as u64)),
    );

    // 2 000 create/terminate pairs on a server that already hosts 16.
    let mut sim = ServerSim::new(16, SchedParams::default());
    for i in 0..16 {
        sim.create_vm(VmConfig::new(
            &format!("vm-{i}"),
            vec![Box::new(IdleDriver)],
        ));
    }
    let mut created = Vec::with_capacity(2_000);
    let create_ns = time_each_ns(
        2_000,
        || VmConfig::new("probe", vec![Box::new(IdleDriver)]),
        |config| created.push(sim.create_vm(config)),
    );
    out.insert("hypervisor.vm_create_us", create_ns / 1e3);
    let terminate_ns = time_each_ns(
        2_000,
        || created.pop().expect("created above"),
        |vm| sim.terminate_vm(vm),
    );
    out.insert("hypervisor.vm_terminate_us", terminate_ns / 1e3);

    // Timer wheel and binary heap at a steady depth of 4096: due times
    // spread over the next virtual second, as session timers are.
    let mut rng = Drbg::from_seed(0x9E);
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0_u64;
    let mut now = 0_u64;
    for _ in 0..QUEUE_DEPTH {
        seq += 1;
        wheel.insert(now + rng.next_u64_below(1_000_000), seq, seq);
    }
    let mut pushes = Vec::with_capacity(100);
    let mut pops = Vec::with_capacity(100);
    let mut cancels = Vec::with_capacity(100);
    for _ in 0..100 {
        let start = Instant::now();
        for _ in 0..100 {
            let (due, _, payload) = wheel.pop().expect("wheel holds 4096");
            now = due;
            black_box(payload);
        }
        pops.push(start.elapsed().as_nanos() as f64 / 100.0);
        let dues: Vec<u64> = (0..200)
            .map(|_| now + rng.next_u64_below(1_000_000))
            .collect();
        let start = Instant::now();
        for due in &dues {
            seq += 1;
            wheel.insert(*due, seq, seq);
        }
        pushes.push(start.elapsed().as_nanos() as f64 / 200.0);
        // Cancel the newer half of what was just inserted.
        let start = Instant::now();
        for stamp in seq - 99..=seq {
            black_box(wheel.cancel(stamp));
        }
        cancels.push(start.elapsed().as_nanos() as f64 / 100.0);
    }
    out.insert("hypervisor.wheel.push_ns", median(&pushes));
    out.insert("hypervisor.wheel.pop_ns", median(&pops));
    out.insert("hypervisor.wheel.cancel_ns", median(&cancels));

    let mut heap: EventQueue<u64, u64> = EventQueue::new();
    let mut now = 0_u64;
    for i in 0..QUEUE_DEPTH {
        heap.schedule(rng.next_u64_below(1_000_000), i);
    }
    let (mut pushes, mut pops) = (Vec::with_capacity(100), Vec::with_capacity(100));
    for _ in 0..100 {
        let start = Instant::now();
        for _ in 0..100 {
            let (due, payload) = heap.pop().expect("heap holds 4096");
            now = due;
            black_box(payload);
        }
        pops.push(start.elapsed().as_nanos() as f64 / 100.0);
        let dues: Vec<u64> = (0..100)
            .map(|_| now + rng.next_u64_below(1_000_000))
            .collect();
        let start = Instant::now();
        for due in &dues {
            heap.schedule(*due, *due);
        }
        pushes.push(start.elapsed().as_nanos() as f64 / 100.0);
    }
    out.insert("hypervisor.queue.push_ns", median(&pushes));
    out.insert("hypervisor.queue.pop_ns", median(&pops));
}

fn core(out: &mut Leaves, servers: usize) {
    let mut rng = Drbg::from_seed(0xC04E);
    let mut attserver = AttestationServer::new(&mut rng);
    let (mut node, vids) = boot_node(16, &mut attserver, 0x5E4);
    let nonce = [9_u8; 32];
    let specs = [
        ("core.server.attest_boot_ns", MeasurementSpec::BootIntegrity),
        (
            "core.server.attest_tasklist_ns",
            MeasurementSpec::TaskListProbe,
        ),
        (
            "core.server.attest_cpu_ns",
            property_to_spec(SecurityProperty::CpuAvailability { min_share_pct: 0 }),
        ),
        (
            "core.server.attest_histogram_ns",
            property_to_spec(SecurityProperty::CovertChannelFreedom),
        ),
    ];
    for (name, spec) in specs {
        // Open and close one window so the registers are programmed.
        node.begin_window(spec, vids[0]);
        node.advance(spec.window_us());
        // 2 000 attestations: each generates a key and signs twice.
        let ns = time_ns(100, 20, || {
            black_box(node.attest(vids[0], spec, nonce).expect("hosted VM"));
        });
        out.insert(name, ns);
    }
    // 1 000 launches, each removed again untimed.
    let probe = Vid(1 << 40);
    let mut launches = Vec::with_capacity(1_000);
    for _ in 0..1_000 {
        let image = Image::Cirros.pristine_bytes();
        let start = Instant::now();
        node.launch_vm(probe, Image::Cirros, image, vec![Box::new(IdleDriver)], 256);
        launches.push(start.elapsed().as_nanos() as f64);
        node.remove_vm(probe);
    }
    out.insert("core.server.launch_vm_us", median(&launches) / 1e3);

    // The Attestation Server's modules, on one real message 4.
    let vid = vids[0];
    let property = SecurityProperty::RuntimeIntegrity;
    out.insert(
        "core.attestation.build_request_ns",
        leaf_ns(|| {
            black_box(attserver.build_measure_request(vid, black_box(property), nonce));
        }),
    );
    let request = attserver.build_measure_request(vid, property, nonce);
    let response: MeasureResponse = node
        .attest(vid, request.spec, nonce)
        .expect("hosted VM")
        .into();
    let mut scratch = EncodeScratch::new();
    // 2 000 validations: two signature verifications and one signature.
    out.insert(
        "core.attestation.validate_ns",
        time_ns(100, 20, || {
            attserver
                .validate_response_with(
                    black_box(&response),
                    vid,
                    request.spec,
                    nonce,
                    &mut scratch,
                )
                .expect("valid response");
        }),
    );
    let responses: Vec<MeasureResponse> = (0..64)
        .map(|_| {
            node.attest(vid, request.spec, nonce)
                .expect("hosted VM")
                .into()
        })
        .collect();
    let items: Vec<BatchValidationItem<'_>> = responses
        .iter()
        .map(|response| BatchValidationItem {
            response,
            expected_vid: vid,
            expected_spec: request.spec,
            expected_nonce3: nonce,
        })
        .collect();
    // 40 batches of 64.
    let batch_ns = time_ns(20, 2, || {
        let verdicts = attserver.validate_response_batch(black_box(&items), &mut scratch);
        assert!(verdicts.iter().all(Result::is_ok), "valid batch");
    });
    out.insert(
        "core.attestation.validate_batch64_ns_per_item",
        batch_ns / 64.0,
    );
    out.insert(
        "core.attestation.interpret_ns",
        leaf_ns(|| {
            black_box(attserver.interpret_response(property, black_box(&response), Image::Cirros));
        }),
    );
    out.insert(
        "core.attestation.certify_ns",
        leaf_ns(|| {
            black_box(attserver.certify_report_with(
                vid,
                ServerId(0),
                property,
                HealthStatus::Healthy,
                nonce,
                &mut scratch,
            ));
        }),
    );
    let report = attserver.certify_report(vid, ServerId(0), property, HealthStatus::Healthy, nonce);
    let as_key = attserver.identity_key();
    out.insert(
        "core.attestation.verify_report_ns",
        leaf_ns(|| {
            AttestationServer::verify_report_msg_with(
                black_box(&report),
                &as_key,
                nonce,
                &mut scratch,
            )
            .expect("valid report");
        }),
    );

    let mut pca = PrivacyCa::new(&mut rng);
    pca.register_server(node.identity_key());
    out.insert(
        "core.pca.certify_ns",
        time_ns(100, 20, || {
            black_box(
                pca.certify(black_box(&response.cert_request))
                    .expect("registered server"),
            );
        }),
    );
    let certificate = pca
        .certify(&response.cert_request)
        .expect("registered server");
    let (pca_key, epoch) = (pca.public_key(), pca.epoch());
    out.insert(
        "core.pca.verify_ns",
        leaf_ns(|| {
            assert!(black_box(&certificate).verify(&pca_key, epoch));
        }),
    );

    let mut controller = CloudController::new(&mut rng);
    for id in 0..servers as u32 {
        controller.register_server(ServerInfo {
            id: ServerId(id),
            free_vcpus: 128 - (id as usize % 7),
            supported_properties: ALL_PROPERTIES.iter().map(|p| p.label()).collect(),
        });
    }
    out.insert(
        "core.controller.select_server_ns",
        leaf_ns(|| {
            black_box(
                controller
                    .select_server(Flavor::Small, black_box(&[property]), None)
                    .expect("a qualified server"),
            );
        }),
    );
    out.insert(
        "core.controller.certify_customer_ns",
        leaf_ns(|| {
            black_box(controller.certify_customer_report_with(
                vid,
                property,
                HealthStatus::Healthy,
                nonce,
                &mut scratch,
            ));
        }),
    );
    let customer_report =
        controller.certify_customer_report(vid, property, HealthStatus::Healthy, nonce);
    let controller_key = controller.identity_key();
    out.insert(
        "core.controller.verify_customer_ns",
        leaf_ns(|| {
            CloudController::verify_customer_report_with(
                black_box(&customer_report),
                &controller_key,
                nonce,
                &mut scratch,
            )
            .expect("valid report");
        }),
    );

    let (k, n) = ROUND_CONTROL_PLANE;
    let mut topology = ControlPlaneTopology::new(k, n);
    let mut next = 0_u64;
    out.insert(
        "core.controlplane.route_for_ns",
        leaf_ns(|| {
            next += 1;
            black_box(topology.route_for(Vid(next)));
        }),
    );

    // 200 compilations of each built-in program, through the public
    // `register_protocol`.
    let mut cloud = CloudBuilder::new().servers(1).seed(1).build();
    let fanout = [
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::StartupIntegrity,
        SecurityProperty::CovertChannelFreedom,
        SecurityProperty::SchedulerFairness,
    ];
    let programs = [
        (
            "core.protocol.compile_figure3_us",
            Protocol::figure3_customer(),
        ),
        (
            "core.protocol.compile_layered_us",
            Protocol::layered(SecurityProperty::StartupIntegrity),
        ),
        (
            "core.protocol.compile_fanout4_us",
            Protocol::fanout(&fanout),
        ),
    ];
    for (name, program) in programs {
        let ns = time_ns(20, 10, || {
            black_box(
                cloud
                    .register_protocol(black_box(&program))
                    .expect("well-formed program"),
            );
        });
        out.insert(name, ns / 1e3);
    }
}

/// Measures every leaf. `servers` sizes the controller's capability
/// table for `select_server` (the workload's own server count).
pub fn measure(servers: usize) -> Leaves {
    let mut out = Leaves::new();
    crypto(&mut out);
    tpm(&mut out);
    net(&mut out);
    hypervisor(&mut out);
    core(&mut out, servers);
    out
}
