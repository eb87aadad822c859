//! The `vericlick` umbrella CLI: one binary over the whole verification
//! service (`run | diff | plan | exec-plan | watch | bound | conform |
//! fuzz | worker | serve | client`).
//!
//! Every subcommand is a thin shell over [`VerifyService`] — the examples
//! under `examples/` are in turn thin shells over this module, so the
//! scenario/flag/JSON plumbing lives exactly once.
//!
//! ```text
//! vericlick run --matrix [--selftest]      # the 20-scenario preset matrix
//! vericlick run cfg.click...               # crash+bounded for your configs
//! vericlick diff old.click new.click       # incremental re-verification
//! vericlick diff --demo                    # self-asserting demo (CI smoke)
//! vericlick plan --matrix -o plan.json     # serialise the job plan
//! vericlick exec-plan plan.json            # execute a plan (any process)
//! vericlick exec-plan - --workers 4        # ... on subprocess workers
//! vericlick watch --demo                   # rolling-baseline watch demo
//! vericlick conform report.json            # replay every counterexample
//!                                          #  of a saved deterministic
//!                                          #  matrix report concretely
//! vericlick fuzz --packets 100000          # differential-fuzz all Proven
//!                                          #  presets (seeded, sharded)
//! vericlick worker                         # stdio worker (spawned by
//!                                          #  exec-plan; speaks the
//!                                          #  line-JSON protocol)
//! vericlick serve --listen :0              # persistent daemon: warm
//!                                          #  summary store across
//!                                          #  requests, socket workers
//!                                          #  join at runtime
//! vericlick client --connect addr --matrix # submit a request to a
//!                                          #  running daemon
//! ```
//!
//! Exit codes: `0` success, `1` Unknown verdicts or failed demo assertions,
//! `2` usage or I/O errors.

use crate::orchestrator::json::Json;
use crate::orchestrator::wire::{plan_from_json, plan_to_json};
use crate::orchestrator::{
    join_fleet, preset_scenarios, serve_listener, worker_serve, ClientReply, ComposeShardMode,
    Daemon, DaemonClient, DaemonConfig, Executor, HeartbeatConfig, InProcessExecutor, NamedConfig,
    ProgressEvent, PropertySelect, Scenario, SummaryStore, VerifyOutcome, VerifyRequest,
    VerifyResponse, VerifyService, WorkerAddr, WorkerFleet,
};
use std::io::{Read, Write};
use std::sync::Arc;

/// Demo configs shared by `diff --demo` and `watch --demo`.
pub const DEMO_ROUTER: &str = r#"
    cls :: Classifier(12/0800);
    strip :: EthDecap();
    chk :: CheckIPHeader();
    rt :: IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1);
    ttl0 :: DecTTL();
    ttl1 :: DecTTL();
    out0 :: Sink();
    out1 :: Sink();
    cls -> strip -> chk -> rt;
    rt[0] -> ttl0 -> out0;
    rt[1] -> ttl1 -> out1;
"#;

const DEMO_FILTER: &str = r#"
    strip :: EthDecap();
    chk :: CheckIPHeader();
    f :: SrcFilter(203.0.113.9);
    out :: Sink();
    strip -> chk -> f -> out;
"#;

const DEMO_MINI: &str = r#"
    cnt :: Counter();
    ttl :: DecTTL();
    s0 :: Sink();
    s1 :: Sink();
    cnt -> ttl -> s0;
"#;

/// A demo/selftest expectation: on failure, report and make the enclosing
/// subcommand return the documented exit code 1 — never a panic (exit 101),
/// so wrappers can tell a failed check from a crash.
macro_rules! expect {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            eprintln!("check failed: {}", format!($($msg)+));
            return 1;
        }
    };
}

/// Run the CLI on `args` (without the program name); returns the exit
/// code. `std::process::exit` is left to the caller so tests and example
/// shims can drive this in-process.
pub fn main(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("run") => cmd_run(args.collect()),
        Some("diff") => cmd_diff(args.collect()),
        Some("plan") => cmd_plan(args.collect()),
        Some("exec-plan") => cmd_exec_plan(args.collect()),
        Some("watch") => cmd_watch(args.collect()),
        Some("bound") => cmd_bound(args.collect()),
        Some("conform") => cmd_conform(args.collect()),
        Some("fuzz") => cmd_fuzz(args.collect()),
        Some("worker") => cmd_worker(args.collect()),
        Some("serve") => cmd_serve(args.collect()),
        Some("client") => cmd_client(args.collect()),
        Some("--help" | "-h" | "help") => {
            eprintln!("{USAGE}");
            0
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
        Some(other) => {
            eprintln!("error: unknown subcommand '{other}'\n{USAGE}");
            2
        }
    }
}

const USAGE: &str = "usage: vericlick <subcommand> [options]
  run [--matrix] [cfg.click...] [--threads N] [--cache DIR] [--json PATH] [--selftest]
      [--compose-shard auto|off|N] [--connect addr] [--ltl SPEC]...
    (--ltl verifies a temporal (LTL) property instead of the default
     crash+bounded pair: repeatable, SPEC is a formula like
     'G (at(chk) -> F (forwarded | dropped))' or @FILE to read one from
     a file; with --matrix the spec(s) replace the presets' bundled
     temporal specs)
  diff <old.click> <new.click> | --demo   [--threads N] [--cache DIR] [--connect addr]
  plan [--matrix] [cfg.click...] [-o PATH] [--threads N] [--ltl SPEC]...
  exec-plan [PATH|-] [--workers N | --workers addr,addr,...] [--in-process]
            [--threads N] [--cache DIR] [--json PATH] [--det-json PATH]
            [--heartbeat-ms N] [--compose-shard auto|off|N]
    (--compose-shard splits each scenario's Step-2 check enumeration
     into shards: wire jobs the fleet load-balances and steals between,
     pool tasks for parked threads in process; `auto` — the default —
     sizes the shards from live capacity and calibrated solver costs;
     reports stay byte-identical to an unsharded run at any setting)
  watch <cfg.click...> [--poll-ms N] [--max-polls N] | --demo
            [--threads N] [--cache DIR] [--connect addr]
  bound <cfg.click...> [--threads N] [--cache DIR]
  conform <report.json>
    (replays every counterexample of a deterministic matrix report,
     e.g. `vericlick run --matrix --det-json report.json`)
  fuzz [--seed S] [--packets N] [--threads N] [--cache DIR]
       [--workers N | --workers addr,addr,...] [--json PATH] [--det-json PATH]
       [--heartbeat-ms N] [--connect addr]
    (differential conformance over the presets: replay Violated
     counterexamples, fuzz Proven scenarios with N seeded packets)
  worker [--listen addr] [--capacity N] [--once] [--join daemon-addr]
    (addr is host:port for TCP or a path / unix:PATH for a Unix socket;
     --join announces the bound address to a running daemon's fleet)
  serve --listen addr [--threads N] [--cache DIR] [--max-sessions N]
        [--max-queue N] [--workers addr,addr,...] [--heartbeat-ms N]
        [--compose-shard auto|off|N] [--once]
    (persistent daemon: a warm summary store shared across requests;
     clients connect with `client`/`--connect`, workers with `--join`)
  client --connect addr [--matrix] [cfg.click...] [--request PATH]
        [--json PATH] [--det-json PATH]
    (submit one request to a running daemon; --request sends a
     serialised VerifyRequest document instead of building a matrix)";

/// Common service flags: `--threads N`, `--cache DIR`.
struct ServiceFlags {
    threads: usize,
    cache: Option<String>,
}

impl ServiceFlags {
    fn build(&self, progress: bool) -> Result<VerifyService, i32> {
        let mut service = VerifyService::new();
        if self.threads > 0 {
            service = service.with_threads(self.threads);
        }
        if let Some(dir) = &self.cache {
            let store = SummaryStore::persistent(dir).map_err(|e| {
                eprintln!("error: cannot open cache dir {dir}: {e}");
                2
            })?;
            service = service.with_store(Arc::new(store));
        }
        if progress {
            service = service.with_progress(|event| match event {
                ProgressEvent::Planned {
                    explore_jobs,
                    cached,
                    scenarios,
                } => println!(
                    "plan: {scenarios} scenarios -> {explore_jobs} element jobs ({cached} already cached)"
                ),
                ProgressEvent::ExploreFinished {
                    type_name, elapsed, ..
                } => println!("  explored {type_name} in {elapsed:?}"),
                ProgressEvent::ComposeFinished {
                    scenario,
                    verdict,
                    elapsed,
                } => println!("  composed {scenario}: {verdict:?} in {elapsed:?}"),
                _ => {}
            });
        }
        Ok(service)
    }
}

fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}\n{USAGE}");
    2
}

fn read_file(path: &str) -> Result<String, i32> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        2
    })
}

fn write_file(path: &str, text: &str) -> i32 {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, text) {
        Ok(()) => {
            println!("wrote {path}");
            0
        }
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            2
        }
    }
}

/// Turn config file paths into named configs (name = file stem).
fn load_configs(files: &[String]) -> Result<Vec<NamedConfig>, i32> {
    let mut configs = Vec::new();
    for file in files {
        let name = std::path::Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("pipeline")
            .to_string();
        configs.push(NamedConfig::new(name, read_file(file)?));
    }
    Ok(configs)
}

/// The matrix request for `run`/`plan`: presets with `--matrix`, the given
/// config files otherwise.
fn build_request(matrix: bool, files: &[String]) -> Result<VerifyRequest, i32> {
    if matrix {
        if !files.is_empty() {
            return Err(usage_error("--matrix takes no config files"));
        }
        Ok(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
    } else if files.is_empty() {
        Err(usage_error("expected --matrix or at least one config file"))
    } else {
        let configs = load_configs(files)?;
        let scenarios = crate::orchestrator::config_scenarios(&configs, &|name| {
            PropertySelect::Default.properties_for(name)
        })
        .map_err(|e| {
            eprintln!("error: {e}");
            2
        })?;
        Ok(VerifyRequest::Matrix { scenarios })
    }
}

/// Parse `--ltl` arguments — formula text, or `@FILE` to read one from a
/// file — into temporal properties. A malformed spec is a usage error
/// carrying the parser's span-ed message.
fn parse_ltl_specs(specs: &[String]) -> Result<Vec<crate::verifier::Property>, i32> {
    let mut properties = Vec::new();
    for raw in specs {
        let text = match raw.strip_prefix('@') {
            Some(path) => read_file(path)?,
            None => raw.clone(),
        };
        match crate::verifier::LtlSpec::parse(text.trim()) {
            Ok(spec) => properties.push(crate::verifier::Property::Temporal(spec)),
            Err(e) => {
                eprintln!("error: --ltl '{}': {e}", text.trim());
                return Err(2);
            }
        }
    }
    Ok(properties)
}

/// The `run` request: [`build_request`]'s default property sets, unless
/// `--ltl` specs narrow the run to exactly those temporal properties —
/// against the preset pipelines with `--matrix`, or the given configs.
fn build_run_request(matrix: bool, files: &[String], ltl: &[String]) -> Result<VerifyRequest, i32> {
    if ltl.is_empty() {
        return build_request(matrix, files);
    }
    let properties = parse_ltl_specs(ltl)?;
    if matrix {
        if !files.is_empty() {
            return Err(usage_error("--matrix takes no config files"));
        }
        let mut scenarios = Vec::new();
        for (name, make) in crate::orchestrator::preset_pipelines() {
            for property in &properties {
                scenarios.push(Scenario::new(name, make(), property.clone()));
            }
        }
        Ok(VerifyRequest::Matrix { scenarios })
    } else if files.is_empty() {
        Err(usage_error(
            "--ltl needs --matrix or at least one config file",
        ))
    } else {
        let configs = load_configs(files)?;
        let scenarios = crate::orchestrator::config_scenarios(&configs, &|_| properties.clone())
            .map_err(|e| {
                eprintln!("error: {e}");
                2
            })?;
        Ok(VerifyRequest::Matrix { scenarios })
    }
}

/// Report a response to stdout, optionally persisting the JSON forms;
/// returns the exit code (1 when any scenario ended Unknown).
fn finish(response: &VerifyResponse, json_path: Option<&str>, det_json_path: Option<&str>) -> i32 {
    println!("{response}");
    if let Some(path) = json_path {
        let code = write_file(path, &response.to_json().to_text());
        if code != 0 {
            return code;
        }
    }
    if let Some(path) = det_json_path {
        let code = write_file(path, &response.deterministic_json().to_text());
        if code != 0 {
            return code;
        }
    }
    let (_, _, unknown) = response.verdict_counts();
    if unknown > 0 {
        if let Some(matrix) = response.matrix() {
            for s in &matrix.scenarios {
                for up in &s.report.unproven {
                    eprintln!(
                        "UNKNOWN {}: {} via [{}]",
                        s.label(),
                        up.reason,
                        up.path.join(" -> ")
                    );
                }
            }
        }
        eprintln!("{unknown} scenario(s) ended Unknown");
        1
    } else {
        0
    }
}

/// Submit one request to the daemon at `addr` and report the reply like a
/// local run: server-rendered display text, optional JSON artifacts, a
/// dispatch summary when the daemon executed on socket workers.
fn client_request(
    addr: &str,
    request: &VerifyRequest,
    json_path: Option<&str>,
    det_json_path: Option<&str>,
) -> Result<ClientReply, i32> {
    let addr = WorkerAddr::parse(addr);
    let mut client = DaemonClient::connect(&addr, None).map_err(|e| {
        eprintln!("error: {e}");
        2
    })?;
    let reply = client.verify(request).map_err(|e| {
        eprintln!("error: {e}");
        2
    })?;
    println!("{}", reply.display.trim_end());
    if let Some(shipped) = reply.dispatch_stat("summaries_shipped") {
        println!(
            "daemon fleet: {shipped} summaries shipped, {} deduped",
            reply.dispatch_stat("summaries_deduped").unwrap_or(0)
        );
    }
    if let Some(path) = json_path {
        let code = write_file(path, &reply.report.to_text());
        if code != 0 {
            return Err(code);
        }
    }
    if let Some(path) = det_json_path {
        let code = write_file(path, &reply.det_report.to_text());
        if code != 0 {
            return Err(code);
        }
    }
    Ok(reply)
}

/// Exit code for a daemon reply, matching the local subcommands: `1` for
/// Unknown verdicts (or a failed conformance run), `0` otherwise.
fn reply_code(reply: &ClientReply) -> i32 {
    if reply.request == "conformance" {
        return if reply.ok { 0 } else { 1 };
    }
    if reply.unknown > 0 {
        eprintln!("{} scenario(s) ended Unknown", reply.unknown);
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

fn cmd_run(args: Vec<String>) -> i32 {
    let mut flags = ServiceFlags {
        threads: 0,
        cache: None,
    };
    let mut matrix = false;
    let mut selftest = false;
    let mut connect: Option<String> = None;
    let mut compose_shard = ComposeShardMode::default();
    let mut json_path: Option<String> = None;
    let mut det_json_path: Option<String> = None;
    let mut ltl_specs: Vec<String> = Vec::new();
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--matrix" => matrix = true,
            "--selftest" => selftest = true,
            "--ltl" => match iter.next() {
                Some(spec) => ltl_specs.push(spec),
                None => return usage_error("--ltl needs a spec (a formula, or @FILE)"),
            },
            "--connect" => match iter.next() {
                Some(addr) => connect = Some(addr),
                None => return usage_error("--connect needs a daemon address"),
            },
            "--compose-shard" => match iter.next().as_deref().and_then(ComposeShardMode::parse) {
                Some(mode) => compose_shard = mode,
                None => {
                    return usage_error("--compose-shard needs `auto`, `off`, or a shard count")
                }
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--cache" => match iter.next() {
                Some(dir) => flags.cache = Some(dir),
                None => return usage_error("--cache needs a directory"),
            },
            "--json" => match iter.next() {
                Some(p) => json_path = Some(p),
                None => return usage_error("--json needs a path"),
            },
            "--det-json" => match iter.next() {
                Some(p) => det_json_path = Some(p),
                None => return usage_error("--det-json needs a path"),
            },
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            file => files.push(file.to_string()),
        }
    }

    let request = match build_run_request(matrix, &files, &ltl_specs) {
        Ok(r) => r,
        Err(code) => return code,
    };
    if let Some(addr) = connect {
        if selftest {
            return usage_error("--selftest runs in-process (not with --connect)");
        }
        if flags.threads != 0
            || flags.cache.is_some()
            || compose_shard != ComposeShardMode::default()
        {
            return usage_error(
                "--threads/--cache/--compose-shard are daemon-side (set them on `vericlick serve`)",
            );
        }
        return match client_request(
            &addr,
            &request,
            json_path.as_deref(),
            det_json_path.as_deref(),
        ) {
            Ok(reply) => reply_code(&reply),
            Err(code) => code,
        };
    }
    let service = match flags.build(true) {
        Ok(s) => s.with_compose_shard_mode(compose_shard),
        Err(code) => return code,
    };
    let threads = service.threads();
    println!("=== vericlick run on a {threads}-thread shared scheduler ===\n");
    let response = match service.serve(request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    if matrix && json_path.is_none() {
        // CI uploads this artifact; keep the pre-CLI path.
        json_path = Some("target/verify_matrix.json".to_string());
    }
    let code = finish(&response, json_path.as_deref(), det_json_path.as_deref());
    if code != 0 || !selftest {
        return code;
    }

    // --selftest: the warm rerun plans zero element jobs, the shared
    // scheduler respects its thread bound, and the preset verdict mix is
    // intact (the pre-CLI `verify_matrix` example's assertions).
    let matrix_report = match &response.outcome {
        VerifyOutcome::Matrix(m) => m,
        _ => unreachable!("run serves matrix requests"),
    };
    let warm =
        service.serve(build_run_request(matrix, &files, &ltl_specs).expect("request rebuilt")); // same request
    let warm = match warm {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let warm_matrix = warm.matrix().expect("matrix rerun");
    println!(
        "warm rerun: {} element jobs, {} served from cache, {:.3}s (cold was {:.3}s)",
        warm_matrix.explore_jobs,
        warm_matrix.cached_jobs,
        warm_matrix.elapsed.as_secs_f64(),
        matrix_report.elapsed.as_secs_f64()
    );
    expect!(
        warm_matrix.explore_jobs == 0,
        "warm run must skip all element jobs (ran {})",
        warm_matrix.explore_jobs
    );
    for (label, m) in [("cold", matrix_report), ("warm", warm_matrix)] {
        expect!(
            m.peak_live_threads <= m.threads,
            "{label} run exceeded the pool bound: {} > {} live threads",
            m.peak_live_threads,
            m.threads
        );
    }
    expect!(
        warm.deterministic_json().to_text() == response.deterministic_json().to_text(),
        "verdicts must not depend on cache temperature"
    );
    println!("selftest passed: warm rerun identical, thread bound respected");
    0
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

fn cmd_diff(args: Vec<String>) -> i32 {
    let mut flags = ServiceFlags {
        threads: 0,
        cache: None,
    };
    let mut demo = false;
    let mut connect: Option<String> = None;
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--connect" => match iter.next() {
                Some(addr) => connect = Some(addr),
                None => return usage_error("--connect needs a daemon address"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--cache" => match iter.next() {
                Some(dir) => flags.cache = Some(dir),
                None => return usage_error("--cache needs a directory"),
            },
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            file => files.push(file.to_string()),
        }
    }
    if connect.is_some() && demo {
        // The demo asserts on the in-process DiffReport structure.
        return usage_error("diff --demo runs in-process (not with --connect)");
    }

    let (old, new) = if demo {
        let old = vec![
            NamedConfig::new("router", DEMO_ROUTER),
            NamedConfig::new("filter", DEMO_FILTER),
            NamedConfig::new("mini", DEMO_MINI),
        ];
        let new = vec![
            // One element edit: the second route's prefix length changes.
            NamedConfig::new(
                "router",
                DEMO_ROUTER.replace("192.168.0.0/16 1", "192.168.0.0/24 1"),
            ),
            // Untouched.
            NamedConfig::new("filter", DEMO_FILTER),
            // Wiring-only: the packet now exits through the other sink.
            NamedConfig::new(
                "mini",
                DEMO_MINI.replace("cnt -> ttl -> s0;", "cnt -> ttl -> s1;"),
            ),
        ];
        (old, new)
    } else {
        if files.len() != 2 {
            return usage_error("expected exactly two config files (or --demo)");
        }
        let read = |path: &str| -> Result<NamedConfig, i32> {
            Ok(NamedConfig::new("pipeline", read_file(path)?))
        };
        match (read(&files[0]), read(&files[1])) {
            (Ok(old), Ok(new)) => (vec![old], vec![new]),
            (Err(code), _) | (_, Err(code)) => return code,
        }
    };

    if let Some(addr) = connect {
        if flags.threads != 0 || flags.cache.is_some() {
            return usage_error(
                "--threads/--cache are daemon-side (set them on `vericlick serve`)",
            );
        }
        let request = VerifyRequest::Diff {
            old,
            new,
            properties: PropertySelect::Default,
        };
        return match client_request(&addr, &request, None, None) {
            Ok(reply) => reply_code(&reply),
            Err(code) => code,
        };
    }

    let service = match flags.build(false) {
        Ok(s) => s,
        Err(code) => return code,
    };

    // Baseline: verify the old configs, warming the summary store — which
    // is what makes the diff incremental. With a persistent --cache the
    // store already *is* the baseline (an earlier process verified the old
    // configs into it), so re-running it would throw away the savings.
    if flags.cache.is_some() {
        println!("=== baseline served by the persistent cache ===\n");
    } else {
        let baseline = service.serve(VerifyRequest::Watch {
            configs: old.clone(),
            properties: PropertySelect::Default,
        });
        match baseline {
            Ok(response) => println!("=== baseline (old configs) ===\n{response}"),
            Err(e) => {
                eprintln!("old config: {e}");
                return 2;
            }
        }
    }

    // The diff: re-verify only what changed.
    let response = match service.serve(VerifyRequest::Diff {
        old: old.clone(),
        new: new.clone(),
        properties: PropertySelect::Default,
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("new config: {e}");
            return 2;
        }
    };
    let VerifyOutcome::Diff(report) = &response.outcome else {
        unreachable!("diff requests produce diff outcomes");
    };
    println!("=== incremental re-verification (new configs) ===\n{report}");
    println!(
        "element jobs: {} explored, {} served warm",
        report.matrix.explore_jobs, report.matrix.cached_jobs
    );

    let (_, _, unknown) = report.matrix.verdict_counts();
    if unknown > 0 {
        eprintln!("{unknown} re-verified scenario(s) ended Unknown");
        return 1;
    }

    if demo {
        use crate::orchestrator::DiffKind;
        let kind = |name: &str| {
            report
                .entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.kind)
        };
        expect!(
            kind("router") == Some(DiffKind::ElementsChanged),
            "router must be elements-changed, got {:?}",
            kind("router")
        );
        let router_changed: Vec<String> = report
            .entries
            .iter()
            .find(|e| e.name == "router")
            .map(|e| e.changed_elements.clone())
            .unwrap_or_default();
        expect!(
            router_changed == vec!["rt".to_string()],
            "router's changed element must be rt, got {router_changed:?}"
        );
        expect!(
            kind("filter") == Some(DiffKind::Identical),
            "untouched filter must be identical, got {:?}",
            kind("filter")
        );
        expect!(
            kind("mini") == Some(DiffKind::WiringOnly),
            "rewired mini must be wiring-only, got {:?}",
            kind("mini")
        );
        // Only the two changed configs' scenarios were re-verified; the
        // identical config's were skipped.
        expect!(
            report.reverified_scenarios() == 4,
            "partial re-verification: expected 4 scenarios, got {}",
            report.reverified_scenarios()
        );
        expect!(
            report.skipped_scenarios == 2,
            "expected 2 skipped scenarios, got {}",
            report.skipped_scenarios
        );
        // At most one element behaviour re-explores (the edited rt; the
        // wiring-only diff contributes a composition-only pass) — exactly
        // one on a cold store, zero when a persistent --cache already
        // holds the edited behaviour from an earlier demo run.
        if flags.cache.is_none() {
            expect!(
                report.matrix.explore_jobs == 1,
                "expected exactly the edited element to be re-explored, got {}",
                report.matrix.explore_jobs
            );
        }
        // With --cache the store's temperature is whatever earlier
        // processes left (cold dir: everything explores; warm dir:
        // nothing does), so no explore-count expectation applies.
        println!("\ndemo assertions passed: partial re-verification confirmed");
    }
    0
}

// ---------------------------------------------------------------------------
// plan / exec-plan
// ---------------------------------------------------------------------------

fn cmd_plan(args: Vec<String>) -> i32 {
    let mut flags = ServiceFlags {
        threads: 0,
        cache: None,
    };
    let mut matrix = false;
    let mut out: Option<String> = None;
    let mut files = Vec::new();
    let mut ltl_specs: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--matrix" => matrix = true,
            "-o" | "--out" => match iter.next() {
                Some(p) => out = Some(p),
                None => return usage_error("-o needs a path"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--ltl" => match iter.next() {
                Some(spec) => ltl_specs.push(spec),
                None => return usage_error("--ltl needs a spec (a formula, or @FILE)"),
            },
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            file => files.push(file.to_string()),
        }
    }

    let request = match build_run_request(matrix, &files, &ltl_specs) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let service = match flags.build(false) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let plan = match service.plan_request(&request) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    eprintln!(
        "planned {} scenarios -> {} distinct element jobs",
        plan.scenarios.len(),
        plan.jobs.len()
    );
    let text = plan_to_json(&plan).to_text();
    match out {
        Some(path) => write_file(&path, &text),
        None => {
            println!("{text}");
            0
        }
    }
}

fn cmd_exec_plan(args: Vec<String>) -> i32 {
    let mut flags = ServiceFlags {
        threads: 0,
        cache: None,
    };
    let mut workers: Option<String> = None;
    let mut in_process = false;
    let mut heartbeat_ms: Option<u64> = None;
    let mut compose_shard = ComposeShardMode::default();
    let mut json_path: Option<String> = None;
    let mut det_json_path: Option<String> = None;
    let mut file: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--in-process" => in_process = true,
            "--workers" => match iter.next() {
                Some(spec) => workers = Some(spec),
                None => return usage_error("--workers needs a count or address list"),
            },
            "--compose-shard" => match iter.next().as_deref().and_then(ComposeShardMode::parse) {
                Some(mode) => compose_shard = mode,
                None => {
                    return usage_error("--compose-shard needs `auto`, `off`, or a shard count")
                }
            },
            "--heartbeat-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) => heartbeat_ms = Some(ms),
                None => return usage_error("--heartbeat-ms needs a number of milliseconds"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--cache" => match iter.next() {
                Some(dir) => flags.cache = Some(dir),
                None => return usage_error("--cache needs a directory"),
            },
            "--json" => match iter.next() {
                Some(p) => json_path = Some(p),
                None => return usage_error("--json needs a path"),
            },
            "--det-json" => match iter.next() {
                Some(p) => det_json_path = Some(p),
                None => return usage_error("--det-json needs a path"),
            },
            other if other.starts_with('-') && other != "-" => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            path => {
                if file.is_some() {
                    return usage_error("exec-plan takes one plan file (or '-')");
                }
                file = Some(path.to_string());
            }
        }
    }

    // Read the plan: a file path, or stdin for "-"/no argument (what
    // `vericlick plan | vericlick exec-plan` pipes).
    let text = match file.as_deref() {
        Some("-") | None => {
            let mut text = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut text) {
                eprintln!("error: cannot read plan from stdin: {e}");
                return 2;
            }
            text
        }
        Some(path) => match read_file(path) {
            Ok(text) => text,
            Err(code) => return code,
        },
    };
    let plan = match Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|j| plan_from_json(&j).map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: bad plan: {e}");
            return 2;
        }
    };

    let service = match flags.build(false) {
        Ok(s) => s.with_compose_shard_mode(compose_shard),
        Err(code) => return code,
    };
    // Default executor: subprocess workers (the remote path). A numeric
    // --workers spawns that many stdio workers; an address list dials
    // `vericlick worker --listen` peers over TCP / Unix sockets;
    // --in-process keeps everything in this process.
    let executor: Box<dyn Executor> = if in_process {
        Box::new(InProcessExecutor::new(flags.threads))
    } else {
        // Guard the numeric branch: a bare port typed where an address
        // belongs (`--workers 8080` for `--workers host:8080`) must not
        // fork thousands of worker processes.
        const MAX_SUBPROCESS_WORKERS: usize = 256;
        let fleet = match workers.as_deref() {
            None => WorkerFleet::current_exe(0),
            Some(spec) => match spec.parse::<usize>() {
                Ok(n) if n > MAX_SUBPROCESS_WORKERS => {
                    return usage_error(&format!(
                        "--workers {n} exceeds {MAX_SUBPROCESS_WORKERS} subprocess workers \
                         (for a TCP worker, use host:port, e.g. 127.0.0.1:{n})"
                    ));
                }
                Ok(n) => WorkerFleet::current_exe(n),
                Err(_) => Ok(WorkerFleet::sockets(
                    spec.split(',')
                        .filter(|a| !a.is_empty())
                        .map(WorkerAddr::parse)
                        .collect(),
                )),
            },
        };
        match fleet {
            // Heartbeat tuning only bites on socket transports (stdio
            // pipes cannot time out), so applying it unconditionally is
            // harmless for subprocess fleets.
            Ok(fleet) => Box::new(match heartbeat_ms {
                Some(ms) => fleet.with_heartbeat(HeartbeatConfig::from_interval_ms(ms)),
                None => fleet,
            }),
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    };
    eprintln!(
        "executing {} scenarios via {}",
        plan.scenarios.len(),
        executor.describe()
    );
    let response = match service.execute_plan(&plan, executor.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    finish(&response, json_path.as_deref(), det_json_path.as_deref())
}

// ---------------------------------------------------------------------------
// watch
// ---------------------------------------------------------------------------

/// Watch real config files: a polling loop over the service's
/// rolling-baseline `Watch` request — tick 0 verifies everything, every
/// later tick re-verifies only what changed since the last good tick.
/// Each poll re-reads the files and compares *contents* (configs are
/// small; an mtime-only stamp would miss same-length edits within one
/// mtime granule on coarse filesystems). `max_polls` bounds the loop for
/// tests and scripting (0 = forever).
fn watch_files(service: &VerifyService, files: &[String], poll_ms: u64, max_polls: usize) -> i32 {
    println!(
        "=== vericlick watch: polling {} config file(s) every {poll_ms}ms ===",
        files.len()
    );
    let mut last_seen: Option<Vec<String>> = None;
    let mut tick = 0usize;
    let mut polls = 0usize;
    loop {
        match load_configs(files) {
            // Only the very first poll fails fast (startup typo); later
            // unreadable polls are an editor's atomic-save window and
            // must not kill the watcher — even before any tick verified.
            Err(code) if polls == 0 => return code,
            Err(_) => {
                eprintln!("watch: config files unreadable; retrying");
            }
            Ok(configs) => {
                let contents: Vec<String> = configs.iter().map(|c| c.config.clone()).collect();
                if last_seen.as_ref() != Some(&contents) {
                    match service.serve(VerifyRequest::Watch {
                        configs,
                        properties: PropertySelect::Default,
                    }) {
                        Ok(response) => {
                            match &response.outcome {
                                VerifyOutcome::Matrix(m) => println!(
                                    "watch tick {tick}: verified {} scenarios\n{m}",
                                    m.scenarios.len()
                                ),
                                VerifyOutcome::Diff(d) => println!(
                                    "watch tick {tick}: re-verified {} scenarios ({} skipped)\n{d}",
                                    d.reverified_scenarios(),
                                    d.skipped_scenarios
                                ),
                                _ => {}
                            }
                            let _ = std::io::stdout().flush();
                            tick += 1;
                        }
                        // A syntax error in a half-saved edit: report it,
                        // keep the baseline (the service does the same),
                        // re-verify when the file changes again.
                        Err(e) => eprintln!("watch: {e}"),
                    }
                    last_seen = Some(contents);
                }
            }
        }
        polls += 1;
        if max_polls > 0 && polls >= max_polls {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
    println!("watch: stopped after {polls} polls, {tick} ticks");
    0
}

/// The remote flavour of [`watch_files`]: the same polling loop, but each
/// tick is submitted to a daemon session — whose per-connection rolling
/// baseline makes tick 0 a full verification and every later tick an
/// incremental one, exactly like the in-process service.
fn watch_files_remote(
    client: &mut DaemonClient,
    files: &[String],
    poll_ms: u64,
    max_polls: usize,
) -> i32 {
    println!(
        "=== vericlick watch (daemon session): polling {} config file(s) every {poll_ms}ms ===",
        files.len()
    );
    let mut last_seen: Option<Vec<String>> = None;
    let mut tick = 0usize;
    let mut polls = 0usize;
    loop {
        match load_configs(files) {
            Err(code) if polls == 0 => return code,
            Err(_) => {
                eprintln!("watch: config files unreadable; retrying");
            }
            Ok(configs) => {
                let contents: Vec<String> = configs.iter().map(|c| c.config.clone()).collect();
                if last_seen.as_ref() != Some(&contents) {
                    match client.verify(&VerifyRequest::Watch {
                        configs,
                        properties: PropertySelect::Default,
                    }) {
                        Ok(reply) => {
                            println!(
                                "watch tick {tick} ({}):\n{}",
                                reply.request,
                                reply.display.trim_end()
                            );
                            let _ = std::io::stdout().flush();
                            tick += 1;
                        }
                        // A rejected tick (half-saved syntax error): the
                        // daemon keeps the session's baseline, so report
                        // and re-verify on the next change.
                        Err(e) => eprintln!("watch: {e}"),
                    }
                    last_seen = Some(contents);
                }
            }
        }
        polls += 1;
        if max_polls > 0 && polls >= max_polls {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
    println!("watch: stopped after {polls} polls, {tick} ticks");
    0
}

fn cmd_watch(args: Vec<String>) -> i32 {
    let mut flags = ServiceFlags {
        threads: 0,
        cache: None,
    };
    let mut demo = false;
    let mut connect: Option<String> = None;
    let mut poll_ms = 500u64;
    let mut max_polls = 0usize;
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--demo" => demo = true,
            "--connect" => match iter.next() {
                Some(addr) => connect = Some(addr),
                None => return usage_error("--connect needs a daemon address"),
            },
            "--poll-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => poll_ms = n,
                None => return usage_error("--poll-ms needs a number"),
            },
            "--max-polls" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_polls = n,
                None => return usage_error("--max-polls needs a number"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--cache" => match iter.next() {
                Some(dir) => flags.cache = Some(dir),
                None => return usage_error("--cache needs a directory"),
            },
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            file => files.push(file.to_string()),
        }
    }
    if let Some(addr) = connect {
        if demo {
            // The demo asserts on in-process DiffReport structure.
            return usage_error("watch --demo runs in-process (not with --connect)");
        }
        if flags.threads != 0 || flags.cache.is_some() {
            return usage_error(
                "--threads/--cache are daemon-side (set them on `vericlick serve`)",
            );
        }
        if files.is_empty() {
            return usage_error("watch needs config files (or --demo)");
        }
        let mut client = match DaemonClient::connect(&WorkerAddr::parse(&addr), None) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        return watch_files_remote(&mut client, &files, poll_ms, max_polls);
    }
    let service = match flags.build(false) {
        Ok(s) => s,
        Err(code) => return code,
    };
    if !demo {
        if files.is_empty() {
            return usage_error("watch needs config files (or --demo)");
        }
        return watch_files(&service, &files, poll_ms, max_polls);
    }
    let watch = |router: String, mini: String| VerifyRequest::Watch {
        configs: vec![
            NamedConfig::new("router", router),
            NamedConfig::new("filter", DEMO_FILTER),
            NamedConfig::new("mini", mini),
        ],
        properties: PropertySelect::Default,
    };

    // The demo's "file system": a scripted sequence of config states, each
    // submitted to the same service — whose rolling baseline makes every
    // tick an incremental re-verification of exactly what changed.
    println!("=== vericlick watch --demo: rolling-baseline re-verification ===\n");

    // Tick 0: first sight of the configs — full verification.
    let response = match service.serve(watch(DEMO_ROUTER.into(), DEMO_MINI.into())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let VerifyOutcome::Matrix(matrix) = &response.outcome else {
        eprintln!("demo failed: first watch tick must verify everything");
        return 1;
    };
    println!(
        "tick 0 (baseline): {} scenarios verified\n{matrix}",
        matrix.scenarios.len()
    );
    let full_scenarios = matrix.scenarios.len();

    // Tick 1: nothing changed — everything skipped.
    let response = match service.serve(watch(DEMO_ROUTER.into(), DEMO_MINI.into())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        eprintln!("demo failed: second tick must diff against the baseline");
        return 1;
    };
    println!("tick 1 (no edits): {diff}");
    expect!(
        diff.reverified_scenarios() == 0,
        "no-op tick re-verified {} scenarios",
        diff.reverified_scenarios()
    );
    expect!(
        diff.skipped_scenarios == full_scenarios,
        "no-op tick skipped {} of {full_scenarios} scenarios",
        diff.skipped_scenarios
    );

    // Tick 2: one element edit — only the router re-verifies, re-exploring
    // exactly the edited behaviour.
    let edited = DEMO_ROUTER.replace("192.168.0.0/16 1", "192.168.0.0/24 1");
    let response = match service.serve(watch(edited.clone(), DEMO_MINI.into())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        eprintln!("demo failed: tick 2 must diff");
        return 1;
    };
    println!("tick 2 (route edit): {diff}");
    expect!(
        diff.reverified_scenarios() == 2,
        "only the router must re-verify, got {} scenarios",
        diff.reverified_scenarios()
    );
    // Exactly the edited IPLookup re-explores on a cold in-memory store;
    // with a persistent --cache the store's temperature is whatever
    // earlier processes left, so no explore-count expectation applies.
    if flags.cache.is_none() {
        expect!(
            diff.matrix.explore_jobs == 1,
            "only the edited IPLookup must re-explore, got {}",
            diff.matrix.explore_jobs
        );
    }

    // Tick 3: a wiring-only edit of mini — composition-only pass.
    let rewired = DEMO_MINI.replace("cnt -> ttl -> s0;", "cnt -> ttl -> s1;");
    let response = match service.serve(watch(edited, rewired)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        eprintln!("demo failed: tick 3 must diff");
        return 1;
    };
    println!("tick 3 (rewire): {diff}");
    expect!(
        diff.reverified_scenarios() == 2,
        "only mini must re-verify, got {} scenarios",
        diff.reverified_scenarios()
    );
    expect!(
        diff.matrix.explore_jobs == 0,
        "wiring-only edits must be composition-only, got {} explore jobs",
        diff.matrix.explore_jobs
    );

    let (_, _, unknown) = diff.matrix.verdict_counts();
    if unknown > 0 {
        eprintln!("{unknown} scenario(s) ended Unknown");
        return 1;
    }
    println!("\nwatch demo passed: baseline rolls forward, each tick re-verifies only its edit");
    0
}

// ---------------------------------------------------------------------------
// bound
// ---------------------------------------------------------------------------

fn cmd_bound(args: Vec<String>) -> i32 {
    let mut flags = ServiceFlags {
        threads: 0,
        cache: None,
    };
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--cache" => match iter.next() {
                Some(dir) => flags.cache = Some(dir),
                None => return usage_error("--cache needs a directory"),
            },
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        return usage_error("bound needs at least one config file");
    }
    let service = match flags.build(false) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for config in match load_configs(&files) {
        Ok(c) => c,
        Err(code) => return code,
    } {
        let pipeline = match crate::pipeline::parse_config(&config.config) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {}: {e}", config.name);
                return 2;
            }
        };
        match service.serve(VerifyRequest::Bound {
            name: config.name,
            pipeline,
        }) {
            Ok(response) => println!("{response}"),
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    }
    0
}

// ---------------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// conform / fuzz (differential conformance)
// ---------------------------------------------------------------------------

fn cmd_conform(args: Vec<String>) -> i32 {
    let mut file: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            path => {
                if file.is_some() {
                    return usage_error("conform takes one report file");
                }
                file = Some(path.to_string());
            }
        }
    }
    let Some(path) = file else {
        return usage_error(
            "conform needs a deterministic matrix report (run --matrix --det-json)",
        );
    };
    let text = match read_file(&path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {path} is not JSON: {e}");
            return 2;
        }
    };
    let outcomes = match crate::orchestrator::conformance::replay_matrix_json(&doc) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut mismatches = 0usize;
    for outcome in &outcomes {
        println!(
            "replay {}/{}: {} — concrete run {} at {} ({} instructions, path [{}])",
            outcome.scenario,
            outcome.property,
            if outcome.reproduced {
                "reproduced"
            } else {
                "MISMATCH"
            },
            outcome.disposition,
            outcome.at,
            outcome.instructions,
            outcome.concrete_path.join(" -> "),
        );
        if !outcome.reproduced {
            mismatches += 1;
            eprintln!(
                "SOUNDNESS: symbolic violation '{}' via [{}] did not reproduce concretely",
                outcome.description,
                outcome.symbolic_path.join(" -> "),
            );
        }
    }
    println!(
        "conform: {} counterexamples replayed, {mismatches} mismatches",
        outcomes.len()
    );
    if mismatches > 0 {
        1
    } else {
        0
    }
}

/// Parse a seed: decimal or `0x`-prefixed hex.
fn parse_seed(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        text.replace('_', "").parse().ok()
    }
}

fn cmd_fuzz(args: Vec<String>) -> i32 {
    let mut flags = ServiceFlags {
        threads: 0,
        cache: None,
    };
    let mut seed = crate::net::DEFAULT_SEED;
    let mut packets = 100_000u64;
    let mut workers: Option<String> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut connect: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut det_json_path: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--heartbeat-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) => heartbeat_ms = Some(ms),
                None => return usage_error("--heartbeat-ms needs a number of milliseconds"),
            },
            "--connect" => match iter.next() {
                Some(addr) => connect = Some(addr),
                None => return usage_error("--connect needs a daemon address"),
            },
            "--seed" => match iter.next().as_deref().and_then(parse_seed) {
                Some(s) => seed = s,
                None => return usage_error("--seed needs a number (decimal or 0x-hex)"),
            },
            "--packets" => match iter.next().and_then(|v| v.replace('_', "").parse().ok()) {
                Some(n) => packets = n,
                None => return usage_error("--packets needs a number"),
            },
            "--workers" => match iter.next() {
                Some(spec) => workers = Some(spec),
                None => return usage_error("--workers needs a count or address list"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => flags.threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--cache" => match iter.next() {
                Some(dir) => flags.cache = Some(dir),
                None => return usage_error("--cache needs a directory"),
            },
            "--json" => match iter.next() {
                Some(p) => json_path = Some(p),
                None => return usage_error("--json needs a path"),
            },
            "--det-json" => match iter.next() {
                Some(p) => det_json_path = Some(p),
                None => return usage_error("--det-json needs a path"),
            },
            other => return usage_error(&format!("unknown option '{other}'")),
        }
    }

    if let Some(addr) = connect {
        if workers.is_some() {
            return usage_error(
                "--workers is daemon-side with --connect (join workers to the daemon)",
            );
        }
        if flags.threads != 0 || flags.cache.is_some() {
            return usage_error(
                "--threads/--cache are daemon-side (set them on `vericlick serve`)",
            );
        }
        let request = VerifyRequest::Conformance {
            scenarios: preset_scenarios(),
            seed,
            packets,
        };
        println!("=== vericlick fuzz: {packets} packets, seed {seed:#x}, daemon {addr} ===\n");
        return match client_request(
            &addr,
            &request,
            json_path.as_deref(),
            det_json_path.as_deref(),
        ) {
            Ok(reply) => reply_code(&reply),
            Err(code) => code,
        };
    }

    // `--workers` dispatches the fuzz shards over a fleet (subprocess
    // stdio workers for a count, `vericlick worker --listen` peers for an
    // address list); without it the shards run on the in-process pool.
    // Same guard as exec-plan: a bare port typed where an address belongs
    // must not fork thousands of processes.
    const MAX_SUBPROCESS_WORKERS: usize = 256;
    let fleet: Option<WorkerFleet> = match workers.as_deref() {
        None => None,
        Some(spec) => {
            let fleet = match spec.parse::<usize>() {
                Ok(n) if n > MAX_SUBPROCESS_WORKERS => {
                    return usage_error(&format!(
                        "--workers {n} exceeds {MAX_SUBPROCESS_WORKERS} subprocess workers \
                         (for a TCP worker, use host:port, e.g. 127.0.0.1:{n})"
                    ));
                }
                Ok(n) => WorkerFleet::current_exe(n),
                Err(_) => Ok(WorkerFleet::sockets(
                    spec.split(',')
                        .filter(|a| !a.is_empty())
                        .map(WorkerAddr::parse)
                        .collect(),
                )),
            };
            match fleet {
                Ok(fleet) => Some(match heartbeat_ms {
                    Some(ms) => fleet.with_heartbeat(HeartbeatConfig::from_interval_ms(ms)),
                    None => fleet,
                }),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            }
        }
    };

    let service = match flags.build(false) {
        Ok(s) => s,
        Err(code) => return code,
    };
    println!(
        "=== vericlick fuzz: {packets} packets, seed {seed:#x}, {} ===\n",
        match &fleet {
            Some(fleet) => fleet.describe(),
            None => format!("in-process pool ({} threads)", service.threads()),
        }
    );
    let report = match service.run_conformance(
        preset_scenarios(),
        seed,
        packets,
        fleet.as_ref().map(|f| f as &dyn Executor),
    ) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    print!("{report}");
    if let Some(path) = &json_path {
        let code = write_file(path, &report.to_json().to_text());
        if code != 0 {
            return code;
        }
    }
    if let Some(path) = &det_json_path {
        let code = write_file(path, &report.deterministic_json().to_text());
        if code != 0 {
            return code;
        }
    }
    if report.ok() {
        println!("conformance: OK");
        0
    } else {
        eprintln!(
            "conformance FAILED: {} replay mismatches, {} fuzz contradictions",
            report.replay_mismatches(),
            report.contradictions()
        );
        1
    }
}

fn cmd_worker(args: Vec<String>) -> i32 {
    let mut listen: Option<String> = None;
    let mut join: Option<String> = None;
    let mut capacity = 0usize;
    let mut once = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => match iter.next() {
                Some(addr) => listen = Some(addr),
                None => return usage_error("--listen needs an address"),
            },
            "--join" => match iter.next() {
                Some(addr) => join = Some(addr),
                None => return usage_error("--join needs a daemon address"),
            },
            "--capacity" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => capacity = n,
                None => return usage_error("--capacity needs a number"),
            },
            "--once" => once = true,
            other => return usage_error(&format!("unknown option '{other}'")),
        }
    }
    if join.is_some() && listen.is_none() {
        return usage_error("--join needs --listen (the daemon dials the worker back)");
    }
    match listen {
        // Socket worker: bind, announce the actual address (`:0` picks a
        // port), serve coordinator sessions.
        Some(addr) => {
            let addr = WorkerAddr::parse(&addr);
            let daemon = join.map(|d| WorkerAddr::parse(&d));
            // Logs are best-effort: a worker must keep serving even if
            // whoever spawned it stopped reading its stdout.
            let mut log = |line: &str| {
                let mut out = std::io::stdout();
                let _ = writeln!(out, "worker: {line}");
                let _ = out.flush();
                // The first log line carries the *actual* bound address
                // (`:0` picks a port) — the moment the worker is
                // dialable, announce it to the daemon's fleet.
                if let Some(daemon) = &daemon {
                    if let Some(bound) = line.strip_prefix("listening on ") {
                        match join_fleet(daemon, &WorkerAddr::parse(bound)) {
                            Ok(n) => {
                                let _ = writeln!(out, "worker: joined {daemon} (fleet of {n})");
                                let _ = out.flush();
                            }
                            Err(e) => {
                                eprintln!("worker: join {daemon} failed: {e}");
                            }
                        }
                    }
                }
            };
            match serve_listener(&addr, capacity, once, &mut log) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("worker: {e}");
                    2
                }
            }
        }
        // Stdio worker: one session over stdin/stdout (spawned by
        // `exec-plan --workers N`).
        None => {
            let stdin = std::io::stdin();
            match worker_serve(stdin.lock(), std::io::stdout(), capacity) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("worker: {e}");
                    2
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// serve / client (the persistent daemon)
// ---------------------------------------------------------------------------

fn cmd_serve(args: Vec<String>) -> i32 {
    let mut listen: Option<String> = None;
    let mut threads = 0usize;
    let mut cache: Option<String> = None;
    let mut max_sessions = 4usize;
    let mut max_queue = 4usize;
    let mut workers: Option<String> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut compose_shard = ComposeShardMode::default();
    let mut once = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => match iter.next() {
                Some(addr) => listen = Some(addr),
                None => return usage_error("--listen needs an address"),
            },
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => return usage_error("--threads needs a number"),
            },
            "--cache" => match iter.next() {
                Some(dir) => cache = Some(dir),
                None => return usage_error("--cache needs a directory"),
            },
            "--max-sessions" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_sessions = n,
                None => return usage_error("--max-sessions needs a number (0 = unlimited)"),
            },
            "--max-queue" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_queue = n,
                None => return usage_error("--max-queue needs a number (0 = refuse when full)"),
            },
            "--workers" => match iter.next() {
                Some(spec) => workers = Some(spec),
                None => return usage_error("--workers needs an address list"),
            },
            "--heartbeat-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) => heartbeat_ms = Some(ms),
                None => return usage_error("--heartbeat-ms needs a number of milliseconds"),
            },
            "--compose-shard" => match iter.next().as_deref().and_then(ComposeShardMode::parse) {
                Some(mode) => compose_shard = mode,
                None => {
                    return usage_error("--compose-shard needs `auto`, `off`, or a shard count")
                }
            },
            "--once" => once = true,
            other => return usage_error(&format!("unknown option '{other}'")),
        }
    }
    let Some(listen) = listen else {
        return usage_error("serve needs --listen (host:port, a path, or unix:PATH)");
    };
    let store = match &cache {
        None => None,
        Some(dir) => match SummaryStore::persistent(dir) {
            Ok(store) => Some(Arc::new(store)),
            Err(e) => {
                eprintln!("error: cannot open cache dir {dir}: {e}");
                return 2;
            }
        },
    };
    let config = DaemonConfig {
        threads,
        store,
        max_sessions,
        max_queue,
        workers: workers
            .map(|spec| {
                spec.split(',')
                    .filter(|a| !a.is_empty())
                    .map(WorkerAddr::parse)
                    .collect()
            })
            .unwrap_or_default(),
        heartbeat: heartbeat_ms
            .map(HeartbeatConfig::from_interval_ms)
            .unwrap_or_default(),
        compose_shard,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::new(config);
    // Logs are best-effort, like the worker's: the daemon must keep
    // serving even if whoever spawned it stopped reading its stdout.
    let log: Arc<dyn Fn(&str) + Send + Sync> = Arc::new(|line: &str| {
        let mut out = std::io::stdout();
        let _ = writeln!(out, "serve: {line}");
        let _ = out.flush();
    });
    match daemon.serve(&WorkerAddr::parse(&listen), once, log) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            2
        }
    }
}

fn cmd_client(args: Vec<String>) -> i32 {
    let mut connect: Option<String> = None;
    let mut matrix = false;
    let mut request_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut det_json_path: Option<String> = None;
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--connect" => match iter.next() {
                Some(addr) => connect = Some(addr),
                None => return usage_error("--connect needs a daemon address"),
            },
            "--matrix" => matrix = true,
            "--request" => match iter.next() {
                Some(p) => request_path = Some(p),
                None => return usage_error("--request needs a path"),
            },
            "--json" => match iter.next() {
                Some(p) => json_path = Some(p),
                None => return usage_error("--json needs a path"),
            },
            "--det-json" => match iter.next() {
                Some(p) => det_json_path = Some(p),
                None => return usage_error("--det-json needs a path"),
            },
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option '{other}'"))
            }
            file => files.push(file.to_string()),
        }
    }
    let Some(addr) = connect else {
        return usage_error("client needs --connect (the daemon's address)");
    };
    // The request: a serialised VerifyRequest document with --request,
    // the run-style matrix shape otherwise.
    let request = match request_path {
        Some(path) => {
            if matrix || !files.is_empty() {
                return usage_error("--request replaces --matrix/config files");
            }
            let text = match read_file(&path) {
                Ok(text) => text,
                Err(code) => return code,
            };
            match Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|doc| VerifyRequest::from_json(&doc).map_err(|e| e.to_string()))
            {
                Ok(request) => request,
                Err(e) => {
                    eprintln!("error: bad request: {e}");
                    return 2;
                }
            }
        }
        None => match build_request(matrix, &files) {
            Ok(r) => r,
            Err(code) => return code,
        },
    };
    match client_request(
        &addr,
        &request,
        json_path.as_deref(),
        det_json_path.as_deref(),
    ) {
        Ok(reply) => {
            println!(
                "daemon served a {} request: {} proven, {} violated, {} unknown",
                reply.request, reply.proven, reply.violated, reply.unknown
            );
            reply_code(&reply)
        }
        Err(code) => code,
    }
}
