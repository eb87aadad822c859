//! E7 — parallel verification: the paper argues compositional verification
//! is embarrassingly parallel (elements are independent) and cacheable
//! (summaries are reusable). This bench quantifies both on the full preset
//! scenario matrix (every preset pipeline × crash freedom, bounded
//! execution, reachability):
//!
//! * `sequential_fresh`  — one fresh `Verifier` per scenario (no reuse),
//! * `sequential_shared` — one `Verifier` for the whole matrix (the seed's
//!   best sequential configuration: summaries reused within the process),
//! * `parallel_cold`     — the verification service with an empty summary store,
//! * `parallel_warm`     — the service with a pre-warmed store (the
//!   re-verification case: zero element jobs).

use criterion::{criterion_group, criterion_main, Criterion};
use dataplane_bench::{json_record, json_write, row};
use dataplane_orchestrator::conformance::{plan_fuzz_shards, run_fuzz_jobs};
use dataplane_orchestrator::json::Json;
use dataplane_orchestrator::{
    join_fleet, preset_scenarios, serve_listener, Daemon, DaemonClient, DaemonConfig, Executor,
    Listener, Scenario, ScenarioSpec, SummaryStore, ThreadBudget, VerifyRequest, VerifyService,
    WorkerAddr, WorkerFleet,
};
use dataplane_pipeline::presets::router_chain;
use dataplane_verifier::{Verifier, VerifierOptions};
use std::sync::Arc;
use std::time::Instant;

/// A listener on a loopback TCP port the OS picks.
fn loopback_listener() -> Listener {
    Listener::bind(&WorkerAddr::Tcp("127.0.0.1:0".into())).expect("bind a loopback port")
}

/// A socket worker of `capacity` slots serving every session on a
/// background thread; its address.
fn spawn_tcp_worker(capacity: usize) -> WorkerAddr {
    let listener = loopback_listener();
    let addr = listener.local();
    std::thread::spawn(move || serve_listener(listener, capacity, false, &mut |_| {}));
    addr
}

fn sequential_fresh() -> usize {
    let options = VerifierOptions::default();
    preset_scenarios()
        .iter()
        .map(|s| {
            let report = Verifier::with_options(options.clone()).verify(&s.pipeline, &s.property);
            report.counterexamples.len()
        })
        .sum()
}

fn sequential_shared() -> usize {
    let mut verifier = Verifier::new();
    preset_scenarios()
        .iter()
        .map(|s| {
            verifier
                .verify(&s.pipeline, &s.property)
                .counterexamples
                .len()
        })
        .sum()
}

fn parallel(threads: usize, service: &VerifyService) -> usize {
    let matrix = service.run_matrix(preset_scenarios());
    assert_eq!(matrix.threads, threads);
    matrix
        .scenarios
        .iter()
        .map(|s| s.report.counterexamples.len())
        .sum()
}

fn report() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = cores.max(4);

    let start = Instant::now();
    let fresh_counterexamples = sequential_fresh();
    let t_fresh = start.elapsed();

    let start = Instant::now();
    let shared_counterexamples = sequential_shared();
    let t_shared = start.elapsed();

    let service = VerifyService::new().with_threads(threads);
    let start = Instant::now();
    let cold_counterexamples = parallel(threads, &service);
    let t_cold = start.elapsed();

    // Same service again: the store is warm, all element jobs skipped.
    let start = Instant::now();
    let warm_counterexamples = parallel(threads, &service);
    let t_warm = start.elapsed();

    assert_eq!(fresh_counterexamples, shared_counterexamples);
    assert_eq!(fresh_counterexamples, cold_counterexamples);
    assert_eq!(fresh_counterexamples, warm_counterexamples);

    // The whole matrix on a warm store over the shared pool: one thread
    // budget for every composition, live solver threads bounded by the
    // pool size.
    let start = Instant::now();
    let matrix = service.run_matrix(preset_scenarios());
    let elapsed = start.elapsed();
    assert!(
        matrix.peak_live_threads <= threads,
        "pool budget exceeded: {}",
        matrix.peak_live_threads
    );
    row(
        "e7-parallel-verification",
        &[
            ("mode", "scheduler_shared_pool".to_string()),
            ("threads", threads.to_string()),
            ("seconds", format!("{:.3}", elapsed.as_secs_f64())),
            (
                "pool_peak_live_threads",
                matrix.peak_live_threads.to_string(),
            ),
            ("solver_thread_ceiling", threads.to_string()),
        ],
    );

    for (mode, used_threads, elapsed) in [
        ("sequential_fresh", 1, t_fresh),
        ("sequential_shared", 1, t_shared),
        ("parallel_cold", threads, t_cold),
        ("parallel_warm", threads, t_warm),
    ] {
        row(
            "e7-parallel-verification",
            &[
                ("mode", mode.to_string()),
                ("threads", used_threads.to_string()),
                ("seconds", format!("{:.3}", elapsed.as_secs_f64())),
                (
                    "speedup_vs_fresh",
                    format!("{:.2}", t_fresh.as_secs_f64() / elapsed.as_secs_f64()),
                ),
            ],
        );
        json_record(
            mode,
            &[
                ("ns_per_op", elapsed.as_secs_f64() * 1e9),
                (
                    "speedup_vs_fresh",
                    t_fresh.as_secs_f64() / elapsed.as_secs_f64(),
                ),
            ],
        );
    }
    if cores >= 4 && t_cold >= t_fresh {
        println!(
            "[e7-parallel-verification] WARNING: no parallel speedup on {cores} cores \
             (cold {:.3}s vs sequential {:.3}s)",
            t_cold.as_secs_f64(),
            t_fresh.as_secs_f64()
        );
    }

    fuzz_report();
    shard_report();
    daemon_report();
    temporal_report();
}

/// Temporal (LTL) verification economics: the bundled Büchi-product
/// scenarios — one `Property::Temporal` per preset pipeline — run
/// in-process, then over a 2-worker TCP fleet as `compose` wire jobs. The artefact records automaton and product sizes alongside
/// latency, and the fleet report must stay byte-identical.
fn temporal_report() {
    fn temporal_request() -> VerifyRequest {
        VerifyRequest::Matrix {
            scenarios: preset_scenarios()
                .into_iter()
                .filter(|s| matches!(s.property, dataplane_verifier::Property::Temporal(_)))
                .collect(),
        }
    }

    let service = VerifyService::new().with_threads(2);
    let start = Instant::now();
    let served = service.serve(temporal_request()).expect("temporal matrix");
    let secs = start.elapsed().as_secs_f64();
    let reference = served.deterministic_json().to_text();
    let matrix = served.matrix().expect("matrix report");
    let scenarios = matrix.scenarios.len();
    let sum = |f: fn(&dataplane_verifier::VerificationStats) -> usize| -> usize {
        matrix.scenarios.iter().map(|s| f(&s.report.stats)).sum()
    };
    let (buchi, product, lassos) = (
        sum(|s| s.buchi_states),
        sum(|s| s.product_states),
        sum(|s| s.lasso_found),
    );
    assert!(buchi > 0, "temporal scenarios compile Büchi automata");
    assert!(lassos > 0, "the planted violations yield lassos");
    row(
        "e7-parallel-verification",
        &[
            ("mode", "temporal_matrix".to_string()),
            ("scenarios", scenarios.to_string()),
            ("buchi_states", buchi.to_string()),
            ("product_states", product.to_string()),
            ("lassos", lassos.to_string()),
            ("seconds", format!("{secs:.3}")),
        ],
    );
    json_record(
        "temporal_matrix",
        &[
            ("ns_per_op", secs * 1e9 / scenarios.max(1) as f64),
            ("buchi_states", buchi as f64),
            ("product_states", product as f64),
            ("lassos", lassos as f64),
        ],
    );

    // The same request dispatched as wire jobs: best of three sessions
    // against two persistent TCP workers (the first session ships the
    // summary documents; later hellos advertise them).
    let fleet = WorkerFleet::sockets(vec![spawn_tcp_worker(2), spawn_tcp_worker(2)]);
    let fresh = VerifyService::new().with_threads(2);
    let plan = fresh.plan_request(&temporal_request()).expect("plan");
    let mut best = f64::INFINITY;
    let mut executed = None;
    for _ in 0..3 {
        let start = Instant::now();
        executed = Some(fresh.execute_plan(&plan, &fleet).expect("fleet run"));
        best = best.min(start.elapsed().as_secs_f64());
    }
    let executed = executed.expect("at least one measured run");
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "fleet temporal run must reproduce the in-process report byte for byte"
    );
    let stats = executed.matrix().unwrap().stats.clone().expect("stats");
    // The fleet registry accumulates across the three measured sessions.
    assert!(
        stats.temporal_jobs >= scenarios,
        "every scenario went remote as a temporal job: {stats:?}"
    );
    row(
        "e7-parallel-verification",
        &[
            ("mode", "temporal_fleet_2w".to_string()),
            ("workers", "2".to_string()),
            ("temporal_jobs_per_session", scenarios.to_string()),
            ("seconds", format!("{best:.3}")),
        ],
    );
    json_record(
        "temporal_fleet_2w",
        &[
            ("ns_per_op", best * 1e9 / scenarios.max(1) as f64),
            ("temporal_jobs", scenarios as f64),
        ],
    );
}

/// Compose-shard fleet scaling on two scenarios: the heaviest preset —
/// ip_router × crash freedom, the largest suspect set of the matrix — as
/// the `compose_shard_fleet_*` rows, and `router_chain(3)` × crash freedom
/// (the chain the cut-or-whole trial in ROADMAP grows) as the
/// `router_chain_fleet_*` rows.
fn shard_report() {
    fn heavy_request() -> VerifyRequest {
        VerifyRequest::Matrix {
            scenarios: preset_scenarios()
                .into_iter()
                .filter(|s| {
                    s.pipeline_name == "ip_router"
                        && matches!(s.property, dataplane_verifier::Property::CrashFreedom)
                })
                .collect(),
        }
    }
    fn chain_request() -> VerifyRequest {
        VerifyRequest::Matrix {
            scenarios: vec![Scenario::new(
                "router_chain_3",
                router_chain(3),
                dataplane_verifier::Property::CrashFreedom,
            )],
        }
    }
    fleet_rows("compose_shard_fleet", heavy_request);
    fleet_rows("router_chain_fleet", chain_request);
}

/// One scenario's fleet rows, `{prefix}_{1,2,4}w`, on capacity-1 TCP
/// workers. One worker is one live slot, so its Step 2 ships whole: the 1w
/// row is the whole-composition baseline. From two workers on, the
/// suspect×prefix enumeration is cut into wire shards the workers pull.
/// Every run shares one pre-warmed summary store, so the measured time is
/// dispatch + decide (+ fold) only, and the deterministic report must stay
/// byte-identical to the in-process run at every fleet size.
fn fleet_rows(prefix: &str, request: fn() -> VerifyRequest) {
    let reference = VerifyService::new()
        .with_threads(2)
        .serve(request())
        .expect("in-process reference run")
        .deterministic_json()
        .to_text();

    // One shared, pre-warmed store: every fleet run below is compose-only.
    let store = Arc::new(SummaryStore::in_memory());
    VerifyService::new()
        .with_threads(2)
        .with_store(store.clone())
        .serve(request())
        .expect("store warm-up run");

    let mut single_worker_seconds = f64::NAN;
    for workers in [1usize, 2, 4] {
        // Capacity 1: fleet size alone sets the shard parallelism.
        let fleet = WorkerFleet::sockets((0..workers).map(|_| spawn_tcp_worker(1)).collect());
        let service = VerifyService::new()
            .with_threads(2)
            .with_store(store.clone());
        let plan = service.plan_request(&request()).expect("shard plan");
        // Unmeasured warm-up session: ships the summary documents once;
        // the workers' next hello advertises them all, so the measured
        // sessions ship none (protocol-v4 dedup).
        service
            .execute_plan(&plan, &fleet)
            .expect("fleet warm-up run");
        let mut best = f64::INFINITY;
        let mut executed = None;
        for _ in 0..3 {
            let start = Instant::now();
            executed = Some(
                service
                    .execute_plan(&plan, &fleet)
                    .expect("fleet shard run"),
            );
            best = best.min(start.elapsed().as_secs_f64());
        }
        let executed = executed.expect("at least one measured run");
        assert_eq!(
            executed.deterministic_json().to_text(),
            reference,
            "{prefix}: a {workers}-worker run must reproduce the in-process report byte for byte"
        );
        let matrix = executed.matrix().expect("matrix report");
        let stats = matrix.stats.as_ref().expect("fleet runs report stats");
        if workers == 1 {
            assert_eq!(stats.compose_shards, 0, "one slot never cuts");
        } else {
            assert!(stats.compose_shards > 0, "{prefix}: two slots or more cut");
        }
        if workers == 1 {
            single_worker_seconds = best;
        }
        let name = format!("{prefix}_{workers}w");
        row(
            "e7-parallel-verification",
            &[
                ("mode", name.clone()),
                ("workers", workers.to_string()),
                ("compose_shards", stats.compose_shards.to_string()),
                ("seconds", format!("{best:.3}")),
                (
                    "summary_bytes_shipped",
                    stats.summary_bytes_shipped.to_string(),
                ),
                (
                    "speedup_vs_1w",
                    format!("{:.2}", single_worker_seconds / best),
                ),
            ],
        );
        json_record(
            &name,
            &[
                ("ns_per_op", best * 1e9),
                ("bytes_shipped", stats.summary_bytes_shipped as f64),
                ("speedup_vs_1w", single_worker_seconds / best),
            ],
        );
    }
}

/// `vericlick serve` economics: cold-plan vs warm-daemon latency for the
/// preset matrix over a real client connection, then the wire-dedup win
/// against a socket worker — the first session ships every summary
/// document, the second session's hello advertises them all and ships
/// none (worker protocol v4).
fn daemon_report() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().max(4))
        .unwrap_or(4);

    let daemon = Daemon::new(DaemonConfig {
        threads,
        ..DaemonConfig::default()
    });
    let listener = loopback_listener();
    let addr = listener.local();
    std::thread::spawn(move || daemon.serve(listener, false, Arc::new(|_: &str| {})));
    let request = || VerifyRequest::Matrix {
        scenarios: preset_scenarios(),
    };
    let explores = |reply: &dataplane_orchestrator::ClientReply| {
        reply
            .report
            .get("explore_jobs")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };

    // Session one against the cold daemon: Step-1 explorations run.
    let mut client = DaemonClient::connect(&addr, None).expect("connect to daemon");
    let start = Instant::now();
    let cold = client.verify(&request()).expect("cold daemon plan");
    let t_cold = start.elapsed();
    drop(client);

    // A new session, same daemon: the shared store is warm, zero element
    // jobs — the latency a long-lived daemon buys every client after the
    // first.
    let mut client = DaemonClient::connect(&addr, None).expect("reconnect to daemon");
    let start = Instant::now();
    let warm = client.verify(&request()).expect("warm daemon plan");
    let t_warm = start.elapsed();
    assert_eq!(explores(&warm), 0, "a warm daemon re-plans element jobs");
    for (mode, elapsed, reply) in [
        ("daemon_cold_plan", t_cold, &cold),
        ("daemon_warm_plan", t_warm, &warm),
    ] {
        row(
            "e7-parallel-verification",
            &[
                ("mode", mode.to_string()),
                ("threads", threads.to_string()),
                ("seconds", format!("{:.3}", elapsed.as_secs_f64())),
                ("explore_jobs", explores(reply).to_string()),
                (
                    "speedup_vs_cold",
                    format!("{:.2}", t_cold.as_secs_f64() / elapsed.as_secs_f64()),
                ),
            ],
        );
    }

    // Wire dedup: join a socket worker to the running daemon, then run
    // the matrix twice more on one session. Both runs are compose-only
    // (the store is warm); the first ships every summary document, the
    // second ships none — the worker's hello advertises its held set.
    let worker = spawn_tcp_worker(2);
    join_fleet(&addr, &worker).expect("worker joins the fleet");
    let mut client = DaemonClient::connect(&addr, None).expect("reconnect to daemon");
    for (mode, reply) in [
        (
            "daemon_fleet_cold_worker",
            client.verify(&request()).expect("fleet run"),
        ),
        (
            "daemon_fleet_warm_worker",
            client.verify(&request()).expect("fleet rerun"),
        ),
    ] {
        let stat = |key: &str| reply.dispatch_stat(key).unwrap_or(0);
        row(
            "e7-parallel-verification",
            &[
                ("mode", mode.to_string()),
                ("summaries_shipped", stat("summaries_shipped").to_string()),
                ("summaries_deduped", stat("summaries_deduped").to_string()),
                (
                    "summary_bytes_shipped",
                    stat("summary_bytes_shipped").to_string(),
                ),
            ],
        );
        json_record(
            mode,
            &[
                ("bytes_shipped", stat("summary_bytes_shipped") as f64),
                ("summaries_deduped", stat("summaries_deduped") as f64),
            ],
        );
    }
}

/// Conformance-fuzz throughput: the same seeded shard plan (every proven
/// preset, fixed seed) pushed through the model runtime on the shared
/// pool at 1/2/4/8 threads, then sharded over a 2-worker stdio fleet
/// (the `vericlick fuzz --workers 2` wire path).
fn fuzz_report() {
    // Proven presets only: buggy violates everything, and the firewall's
    // bundled temporal spec is a planted violation — fuzzing measures the
    // historical 12-scenario reachability/crash workload.
    let specs: Vec<ScenarioSpec> = preset_scenarios()
        .iter()
        .filter(|s| {
            s.pipeline_name != "buggy"
                && !matches!(s.property, dataplane_verifier::Property::Temporal(_))
        })
        .map(|s| ScenarioSpec::from_scenario(s).expect("preset specs serialise"))
        .collect();
    let options = VerifierOptions::default();
    let jobs = plan_fuzz_shards(&specs, 1, 50_000);

    let mut single_thread_seconds = f64::NAN;
    for fuzz_threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let shards = run_fuzz_jobs(&jobs, &options, ThreadBudget::new(fuzz_threads))
            .expect("fuzz shards run");
        let secs = start.elapsed().as_secs_f64();
        let pushed: u64 = shards.iter().map(|s| s.packets).sum();
        let contradictions: u64 = shards.iter().map(|s| s.contradiction_count).sum();
        assert_eq!(contradictions, 0, "a proven preset was contradicted");
        if fuzz_threads == 1 {
            single_thread_seconds = secs;
        }
        row(
            "e7-parallel-verification",
            &[
                ("mode", "fuzz_pool".to_string()),
                ("threads", fuzz_threads.to_string()),
                ("packets", pushed.to_string()),
                ("seconds", format!("{secs:.3}")),
                ("packets_per_second", format!("{:.0}", pushed as f64 / secs)),
                (
                    "speedup_vs_single",
                    format!("{:.2}", single_thread_seconds / secs),
                ),
            ],
        );
        json_record(
            &format!("fuzz_pool_{fuzz_threads}t"),
            &[
                ("ns_per_op", secs * 1e9),
                ("packets_per_second", pushed as f64 / secs),
            ],
        );
    }

    // The bench executable lives in target/<profile>/deps; the vericlick
    // binary the fleet spawns is one directory up.
    let vericlick = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|deps| deps.parent())
                .map(|dir| dir.join("vericlick"))
        })
        .filter(|p| p.exists());
    let Some(vericlick) = vericlick else {
        println!(
            "[e7-parallel-verification] SKIP fuzz_fleet_stdio: vericlick binary not built \
             alongside this bench (run `cargo build` for the same profile first)"
        );
        return;
    };
    let fleet = WorkerFleet::subprocess(vericlick, vec!["worker".to_string()], 2);
    let start = Instant::now();
    let shards = fleet
        .fuzz_jobs(&jobs, &options)
        .expect("worker fleets accept fuzz jobs")
        .expect("fleet fuzz run succeeds");
    let secs = start.elapsed().as_secs_f64();
    let pushed: u64 = shards.iter().map(|s| s.packets).sum();
    let contradictions: u64 = shards.iter().map(|s| s.contradiction_count).sum();
    assert_eq!(
        contradictions, 0,
        "a proven preset was contradicted on the wire"
    );
    row(
        "e7-parallel-verification",
        &[
            ("mode", "fuzz_fleet_stdio".to_string()),
            ("workers", "2".to_string()),
            ("shards", jobs.len().to_string()),
            ("packets", pushed.to_string()),
            ("seconds", format!("{secs:.3}")),
            ("packets_per_second", format!("{:.0}", pushed as f64 / secs)),
        ],
    );
    json_record(
        "fuzz_fleet_stdio",
        &[
            ("ns_per_op", secs * 1e9),
            ("packets_per_second", pushed as f64 / secs),
        ],
    );
}

fn bench(c: &mut Criterion) {
    report();
    let mut group = c.benchmark_group("e7_parallel_verification");
    group.sample_size(3);
    group.bench_function("sequential_fresh", |b| b.iter(sequential_fresh));
    group.bench_function("sequential_shared", |b| b.iter(sequential_shared));
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().max(4))
        .unwrap_or(4);
    group.bench_function("parallel_cold", |b| {
        b.iter(|| {
            // A fresh service per iteration: the store starts empty.
            let service = VerifyService::new().with_threads(threads);
            parallel(threads, &service)
        })
    });
    let warm = VerifyService::new().with_threads(threads);
    parallel(threads, &warm); // pre-warm the store
    group.bench_function("parallel_warm", |b| b.iter(|| parallel(threads, &warm)));
    group.finish();
    // `--json [PATH]` on the bench argv writes every recorded row as
    // machine-readable JSON (default BENCH_e7.json); a no-op otherwise.
    let _ = json_write("e7");
}

criterion_group!(benches, bench);
criterion_main!(benches);
