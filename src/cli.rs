//! The `vericlick` umbrella CLI: one binary over the whole verification
//! service (`run | diff | plan | exec-plan | watch | bound | conform |
//! fuzz | worker | serve | client`).
//!
//! Every subcommand is a thin shell over [`VerifyService`], so the
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
    join_fleet, preset_scenarios, serve_listener, worker_serve, ClientReply, Daemon, DaemonClient,
    DaemonConfig, ExecError, Executor, HeartbeatConfig, InProcessExecutor, Listener, NamedConfig,
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
            return Err(1);
        }
    };
}

/// Run the CLI on `args` (without the program name); returns the exit
/// code. `std::process::exit` is left to the caller so tests and harnesses
/// can drive this in-process.
pub fn main(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    let outcome = match args.next().as_deref() {
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
            Ok(())
        }
        None => {
            eprintln!("{USAGE}");
            Err(2)
        }
        Some(other) => usage_error(&format!("unknown subcommand '{other}'")),
    };
    match outcome {
        Ok(()) => 0,
        Err(code) => code,
    }
}

const USAGE: &str = "usage: vericlick <subcommand> [options]
  run [--matrix] [cfg.click...] [--threads N] [--cache DIR] [--json PATH] [--selftest]
      [--connect addr] [--ltl SPEC]...
    (--ltl verifies a temporal (LTL) property instead of the default
     crash+bounded pair: repeatable, SPEC is a formula like
     'G (at(chk) -> F (forwarded | dropped))' or @FILE to read one from
     a file; with --matrix the spec(s) replace the presets' bundled
     temporal specs)
  diff <old.click> <new.click> | --demo   [--threads N] [--cache DIR] [--connect addr]
  plan [--matrix] [cfg.click...] [-o PATH] [--threads N] [--ltl SPEC]...
  exec-plan [PATH|-] [--workers N | --workers addr,addr,...] [--in-process]
            [--threads N] [--cache DIR] [--json PATH] [--det-json PATH]
            [--heartbeat-ms N]
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
        [--max-queue N] [--workers addr,addr,...] [--heartbeat-ms N] [--once]
    (persistent daemon: a warm summary store shared across requests;
     clients connect with `client`/`--connect`, workers with `--join`)
  client --connect addr [--matrix] [cfg.click...] [--request PATH]
        [--json PATH] [--det-json PATH]
    (submit one request to a running daemon; --request sends a
     serialised VerifyRequest document instead of building a matrix)";

/// How a subcommand ends: `Err` carries a non-zero exit code whose cause is
/// already on stderr, so every step that can stop a subcommand is a `?`.
type Exit<T = ()> = Result<T, i32>;

/// The flags several subcommands share, parsed in one place: a subcommand
/// offers each argument to [`CommonFlags::take`] together with the subset it
/// accepts, and handles only what comes back.
#[derive(Default)]
struct CommonFlags {
    threads: usize,
    cache: Option<String>,
    connect: Option<String>,
    json: Option<String>,
    det_json: Option<String>,
    workers: Option<String>,
    heartbeat_ms: Option<u64>,
}

impl CommonFlags {
    /// Parse `arg` if it is one of the `accepted` common flags, taking its
    /// value from `rest`: `true` when consumed, `false` when it is not one
    /// of them, a usage error when its value is missing or malformed.
    fn take(
        &mut self,
        accepted: &[&str],
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Exit<bool> {
        if !accepted.contains(&arg) {
            return Ok(false);
        }
        let needs = |what: &str| format!("{arg} needs {what}");
        match arg {
            "--threads" => self.threads = value(rest, number, &needs("a number"))?,
            "--cache" => self.cache = Some(value(rest, text, &needs("a directory"))?),
            "--connect" => self.connect = Some(value(rest, text, &needs("a daemon address"))?),
            "--json" => self.json = Some(value(rest, text, &needs("a path"))?),
            "--det-json" => self.det_json = Some(value(rest, text, &needs("a path"))?),
            "--workers" => {
                self.workers = Some(value(rest, text, &needs("a count or address list"))?)
            }
            "--heartbeat-ms" => {
                let needs = needs("a number of milliseconds");
                self.heartbeat_ms = Some(value(rest, number, &needs)?)
            }
            other => unreachable!("{other} is not a common flag"),
        }
        Ok(true)
    }

    /// With `--connect` the request runs on the daemon, so the flags that
    /// size a local service are refused — by the names this subcommand
    /// accepts.
    fn daemon_side(&self, accepted: &[&str]) -> Exit {
        if self.threads == 0 && self.cache.is_none() {
            return Ok(());
        }
        let names: Vec<&str> = ["--threads", "--cache"]
            .into_iter()
            .filter(|flag| accepted.contains(flag))
            .collect();
        usage_error(&format!(
            "{} are daemon-side (set them on `vericlick serve`)",
            names.join("/")
        ))
    }

    /// The store `--cache` names, if any.
    fn store(&self) -> Exit<Option<Arc<SummaryStore>>> {
        let Some(dir) = &self.cache else {
            return Ok(None);
        };
        match SummaryStore::persistent(dir) {
            Ok(store) => Ok(Some(Arc::new(store))),
            Err(e) => Err(fail(format!("cannot open cache dir {dir}: {e}"))),
        }
    }

    /// The service `--threads` and `--cache` describe.
    fn service(&self, progress: bool) -> Exit<VerifyService> {
        let mut service = VerifyService::new();
        if self.threads > 0 {
            service = service.with_threads(self.threads);
        }
        if let Some(store) = self.store()? {
            service = service.with_store(store);
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

    /// The fleet `--workers SPEC` names — SPEC stdio subprocess workers for
    /// a count, `vericlick worker --listen` peers for an address list —
    /// probed every `--heartbeat-ms` (which only bites on socket
    /// transports: stdio pipes cannot time out).
    fn fleet(&self, spec: &str) -> Exit<WorkerFleet> {
        // Guard the numeric branch: a bare port typed where an address
        // belongs (`--workers 8080` for `--workers host:8080`) must not
        // fork thousands of worker processes.
        const MAX_SUBPROCESS_WORKERS: usize = 256;
        let fleet = match spec.parse::<usize>() {
            Ok(n) if n > MAX_SUBPROCESS_WORKERS => {
                return usage_error(&format!(
                    "--workers {n} exceeds {MAX_SUBPROCESS_WORKERS} subprocess workers \
                     (for a TCP worker, use host:port, e.g. 127.0.0.1:{n})"
                ));
            }
            Ok(n) => WorkerFleet::current_exe(n).map_err(fail)?,
            Err(_) => WorkerFleet::sockets(worker_addrs(spec)),
        };
        Ok(match self.heartbeat_ms {
            Some(ms) => fleet.with_heartbeat(HeartbeatConfig::from_interval_ms(ms)),
            None => fleet,
        })
    }

    /// Persist the documents `--json` and `--det-json` ask for.
    fn write_reports(&self, json: impl Fn() -> String, det: impl Fn() -> String) -> Exit {
        if let Some(path) = &self.json {
            write_file(path, &json())?;
        }
        if let Some(path) = &self.det_json {
            write_file(path, &det())?;
        }
        Ok(())
    }
}

/// The next argument as a flag's value; a usage error saying what the flag
/// `needs` when it is missing or `parse` rejects it.
fn value<T>(
    rest: &mut impl Iterator<Item = String>,
    parse: impl Fn(&str) -> Option<T>,
    needs: &str,
) -> Exit<T> {
    match rest.next().as_deref().and_then(parse) {
        Some(value) => Ok(value),
        None => usage_error(needs),
    }
}

fn number<T: std::str::FromStr>(value: &str) -> Option<T> {
    value.parse().ok()
}

fn text(value: &str) -> Option<String> {
    Some(value.to_string())
}

/// The addresses of a comma-separated `--workers` list.
fn worker_addrs(spec: &str) -> Vec<WorkerAddr> {
    spec.split(',')
        .filter(|a| !a.is_empty())
        .map(WorkerAddr::parse)
        .collect()
}

/// What `--ltl` says when its value is missing.
const LTL_NEEDS: &str = "--ltl needs a spec (a formula, or @FILE)";

fn unknown_option<T>(option: &str) -> Exit<T> {
    usage_error(&format!("unknown option '{option}'"))
}

fn usage_error<T>(message: &str) -> Exit<T> {
    eprintln!("error: {message}\n{USAGE}");
    Err(2)
}

/// Report why a step failed; the exit code of I/O and request errors.
fn fail(error: impl std::fmt::Display) -> i32 {
    eprintln!("error: {error}");
    2
}

fn read_file(path: &str) -> Exit<String> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))
}

fn write_file(path: &str, text: &str) -> Exit {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    std::fs::write(path, text).map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// Turn config file paths into named configs (name = file stem).
fn load_configs(files: &[String]) -> Exit<Vec<NamedConfig>> {
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
fn build_request(matrix: bool, files: &[String]) -> Exit<VerifyRequest> {
    if matrix {
        if !files.is_empty() {
            return usage_error("--matrix takes no config files");
        }
        Ok(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
    } else if files.is_empty() {
        usage_error("expected --matrix or at least one config file")
    } else {
        let configs = load_configs(files)?;
        let scenarios = crate::orchestrator::config_scenarios(&configs, &|name| {
            PropertySelect::Default.properties_for(name)
        })
        .map_err(fail)?;
        Ok(VerifyRequest::Matrix { scenarios })
    }
}

/// Parse `--ltl` arguments — formula text, or `@FILE` to read one from a
/// file — into temporal properties. A malformed spec is a usage error
/// carrying the parser's span-ed message.
fn parse_ltl_specs(specs: &[String]) -> Exit<Vec<crate::verifier::Property>> {
    let mut properties = Vec::new();
    for raw in specs {
        let text = match raw.strip_prefix('@') {
            Some(path) => read_file(path)?,
            None => raw.clone(),
        };
        let spec = crate::verifier::LtlSpec::parse(text.trim())
            .map_err(|e| fail(format!("--ltl '{}': {e}", text.trim())))?;
        properties.push(crate::verifier::Property::Temporal(spec));
    }
    Ok(properties)
}

/// The `run` request: [`build_request`]'s default property sets, unless
/// `--ltl` specs narrow the run to exactly those temporal properties —
/// against the preset pipelines with `--matrix`, or the given configs.
fn build_run_request(matrix: bool, files: &[String], ltl: &[String]) -> Exit<VerifyRequest> {
    if ltl.is_empty() {
        return build_request(matrix, files);
    }
    let properties = parse_ltl_specs(ltl)?;
    if matrix {
        if !files.is_empty() {
            return usage_error("--matrix takes no config files");
        }
        let mut scenarios = Vec::new();
        for (name, make) in crate::orchestrator::preset_pipelines() {
            for property in &properties {
                scenarios.push(Scenario::new(name, make(), property.clone()));
            }
        }
        Ok(VerifyRequest::Matrix { scenarios })
    } else if files.is_empty() {
        usage_error("--ltl needs --matrix or at least one config file")
    } else {
        let configs = load_configs(files)?;
        let scenarios = crate::orchestrator::config_scenarios(&configs, &|_| properties.clone())
            .map_err(fail)?;
        Ok(VerifyRequest::Matrix { scenarios })
    }
}

/// Report a response to stdout, persisting the JSON forms `flags` ask for;
/// exit code 1 when any scenario ended Unknown.
fn finish(response: &VerifyResponse, flags: &CommonFlags) -> Exit {
    println!("{response}");
    flags.write_reports(
        || response.to_json().to_text(),
        || response.deterministic_json().to_text(),
    )?;
    let (_, _, unknown) = response.verdict_counts();
    if unknown == 0 {
        return Ok(());
    }
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
    Err(1)
}

/// Submit one request to the daemon at `addr` and report the reply like a
/// local run: server-rendered display text, the JSON artifacts `flags` ask
/// for, a dispatch summary when the daemon executed on socket workers.
fn client_request(addr: &str, request: &VerifyRequest, flags: &CommonFlags) -> Exit<ClientReply> {
    let mut client = DaemonClient::connect(&WorkerAddr::parse(addr), None).map_err(fail)?;
    let reply = client.verify(request).map_err(fail)?;
    println!("{}", reply.display.trim_end());
    if let Some(shipped) = reply.dispatch_stat("summaries_shipped") {
        println!(
            "daemon fleet: {shipped} summaries shipped, {} deduped",
            reply.dispatch_stat("summaries_deduped").unwrap_or(0)
        );
    }
    flags.write_reports(|| reply.report.to_text(), || reply.det_report.to_text())?;
    Ok(reply)
}

/// Exit code for a daemon reply, matching the local subcommands: `1` for
/// Unknown verdicts (or a failed conformance run), `0` otherwise.
fn reply_code(reply: &ClientReply) -> Exit {
    if reply.request == "conformance" {
        return if reply.ok { Ok(()) } else { Err(1) };
    }
    if reply.unknown > 0 {
        eprintln!("{} scenario(s) ended Unknown", reply.unknown);
        return Err(1);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

fn cmd_run(args: Vec<String>) -> Exit {
    const FLAGS: &[&str] = &["--threads", "--cache", "--connect", "--json", "--det-json"];
    let mut flags = CommonFlags::default();
    let mut matrix = false;
    let mut selftest = false;
    let mut ltl_specs: Vec<String> = Vec::new();
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(FLAGS, &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--matrix" => matrix = true,
            "--selftest" => selftest = true,
            "--ltl" => ltl_specs.push(value(&mut iter, text, LTL_NEEDS)?),
            other if other.starts_with('-') => return unknown_option(other),
            file => files.push(file.to_string()),
        }
    }

    let request = build_run_request(matrix, &files, &ltl_specs)?;
    if let Some(addr) = &flags.connect {
        if selftest {
            return usage_error("--selftest runs in-process (not with --connect)");
        }
        flags.daemon_side(FLAGS)?;
        return reply_code(&client_request(addr, &request, &flags)?);
    }
    let service = flags.service(true)?;
    let threads = service.threads();
    println!("=== vericlick run on a {threads}-thread shared scheduler ===\n");
    let response = service.serve(request).map_err(fail)?;

    if matrix && flags.json.is_none() {
        // CI uploads this artifact; keep the pre-CLI path.
        flags.json = Some("target/verify_matrix.json".to_string());
    }
    finish(&response, &flags)?;
    if !selftest {
        return Ok(());
    }

    // --selftest: the warm rerun plans zero element jobs, the shared
    // scheduler respects its thread bound, and the preset verdict mix is
    // intact.
    let matrix_report = match &response.outcome {
        VerifyOutcome::Matrix(m) => m,
        _ => unreachable!("run serves matrix requests"),
    };
    // The same request again.
    let warm = service
        .serve(build_run_request(matrix, &files, &ltl_specs)?)
        .map_err(fail)?;
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
    Ok(())
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

fn cmd_diff(args: Vec<String>) -> Exit {
    const FLAGS: &[&str] = &["--threads", "--cache", "--connect"];
    let mut flags = CommonFlags::default();
    let mut demo = false;
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(FLAGS, &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--demo" => demo = true,
            other if other.starts_with('-') => return unknown_option(other),
            file => files.push(file.to_string()),
        }
    }
    if flags.connect.is_some() && demo {
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
        let (old, new) = (read_file(&files[0]), read_file(&files[1]));
        (
            vec![NamedConfig::new("pipeline", old?)],
            vec![NamedConfig::new("pipeline", new?)],
        )
    };

    if let Some(addr) = &flags.connect {
        flags.daemon_side(FLAGS)?;
        let request = VerifyRequest::Diff {
            old,
            new,
            properties: PropertySelect::Default,
        };
        return reply_code(&client_request(addr, &request, &flags)?);
    }

    let service = flags.service(false)?;

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
        let response = baseline.map_err(|e| {
            eprintln!("old config: {e}");
            2
        })?;
        println!("=== baseline (old configs) ===\n{response}");
    }

    // The diff: re-verify only what changed.
    let request = VerifyRequest::Diff {
        old,
        new,
        properties: PropertySelect::Default,
    };
    let response = service.serve(request).map_err(|e| {
        eprintln!("new config: {e}");
        2
    })?;
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
        return Err(1);
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
    Ok(())
}

// ---------------------------------------------------------------------------
// plan / exec-plan
// ---------------------------------------------------------------------------

fn cmd_plan(args: Vec<String>) -> Exit {
    let mut flags = CommonFlags::default();
    let mut matrix = false;
    let mut out: Option<String> = None;
    let mut files = Vec::new();
    let mut ltl_specs: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(&["--threads"], &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--matrix" => matrix = true,
            "-o" | "--out" => out = Some(value(&mut iter, text, "-o needs a path")?),
            "--ltl" => ltl_specs.push(value(&mut iter, text, LTL_NEEDS)?),
            other if other.starts_with('-') => return unknown_option(other),
            file => files.push(file.to_string()),
        }
    }

    let request = build_run_request(matrix, &files, &ltl_specs)?;
    let plan = flags.service(false)?.plan_request(&request).map_err(fail)?;
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
            Ok(())
        }
    }
}

fn cmd_exec_plan(args: Vec<String>) -> Exit {
    const FLAGS: &[&str] = &[
        "--threads",
        "--cache",
        "--json",
        "--det-json",
        "--workers",
        "--heartbeat-ms",
    ];
    let mut flags = CommonFlags::default();
    let mut in_process = false;
    let mut file: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(FLAGS, &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--in-process" => in_process = true,
            other if other.starts_with('-') && other != "-" => return unknown_option(other),
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
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| fail(format!("cannot read plan from stdin: {e}")))?;
            text
        }
        Some(path) => read_file(path)?,
    };
    let plan = Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|j| plan_from_json(&j).map_err(|e| e.to_string()))
        .map_err(|e| fail(format!("bad plan: {e}")))?;

    let service = flags.service(false)?;
    // Default executor: subprocess workers (the remote path), one per core
    // unless --workers says otherwise; --in-process keeps everything on
    // this process's shared scheduler, where a composition is never cut.
    let executor: Box<dyn Executor> = if in_process {
        Box::new(InProcessExecutor)
    } else {
        Box::new(flags.fleet(flags.workers.as_deref().unwrap_or("0"))?)
    };
    eprintln!(
        "executing {} scenarios via {}",
        plan.scenarios.len(),
        executor.describe()
    );
    let response = service
        .execute_plan(&plan, executor.as_ref())
        .map_err(fail)?;
    finish(&response, &flags)
}

// ---------------------------------------------------------------------------
// watch
// ---------------------------------------------------------------------------

/// Watch real config files: a polling loop over the rolling-baseline `Watch`
/// request — tick 0 verifies everything, every later tick re-verifies only
/// what changed since the last good tick. `submit` sends one tick and
/// prints what came back: to the in-process service, or to a daemon session
/// (`whose` says which in the banner) — either keeps the baseline.
/// Each poll re-reads the files and compares *contents* (configs are
/// small; an mtime-only stamp would miss same-length edits within one
/// mtime granule on coarse filesystems). `max_polls` bounds the loop for
/// tests and scripting (0 = forever).
fn watch_files(
    whose: &str,
    files: &[String],
    poll_ms: u64,
    max_polls: usize,
    mut submit: impl FnMut(usize, VerifyRequest) -> Result<(), String>,
) -> Exit {
    println!(
        "=== vericlick watch{whose}: polling {} config file(s) every {poll_ms}ms ===",
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
            Err(code) if polls == 0 => return Err(code),
            Err(_) => {
                eprintln!("watch: config files unreadable; retrying");
            }
            Ok(configs) => {
                let contents: Vec<String> = configs.iter().map(|c| c.config.clone()).collect();
                if last_seen.as_ref() != Some(&contents) {
                    let request = VerifyRequest::Watch {
                        configs,
                        properties: PropertySelect::Default,
                    };
                    match submit(tick, request) {
                        Ok(()) => {
                            let _ = std::io::stdout().flush();
                            tick += 1;
                        }
                        // A syntax error in a half-saved edit: report it,
                        // keep the baseline (the service and the daemon do
                        // the same), re-verify when the file changes again.
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
    Ok(())
}

fn cmd_watch(args: Vec<String>) -> Exit {
    const FLAGS: &[&str] = &["--threads", "--cache", "--connect"];
    let mut flags = CommonFlags::default();
    let mut demo = false;
    let mut poll_ms = 500u64;
    let mut max_polls = 0usize;
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(FLAGS, &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--demo" => demo = true,
            "--poll-ms" => poll_ms = value(&mut iter, number, "--poll-ms needs a number")?,
            "--max-polls" => max_polls = value(&mut iter, number, "--max-polls needs a number")?,
            other if other.starts_with('-') => return unknown_option(other),
            file => files.push(file.to_string()),
        }
    }
    if let Some(addr) = &flags.connect {
        if demo {
            // The demo asserts on in-process DiffReport structure.
            return usage_error("watch --demo runs in-process (not with --connect)");
        }
        flags.daemon_side(FLAGS)?;
        if files.is_empty() {
            return usage_error("watch needs config files (or --demo)");
        }
        // Each tick goes to one daemon session, whose per-connection
        // rolling baseline works exactly like the in-process service's.
        let mut client = DaemonClient::connect(&WorkerAddr::parse(addr), None).map_err(fail)?;
        return watch_files(
            " (daemon session)",
            &files,
            poll_ms,
            max_polls,
            |tick, request| {
                let reply = client.verify(&request).map_err(|e| e.to_string())?;
                println!(
                    "watch tick {tick} ({}):\n{}",
                    reply.request,
                    reply.display.trim_end()
                );
                Ok(())
            },
        );
    }
    let service = flags.service(false)?;
    if !demo {
        if files.is_empty() {
            return usage_error("watch needs config files (or --demo)");
        }
        return watch_files("", &files, poll_ms, max_polls, |tick, request| {
            let response = service.serve(request).map_err(|e| e.to_string())?;
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
            Ok(())
        });
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
    let response = service
        .serve(watch(DEMO_ROUTER.into(), DEMO_MINI.into()))
        .map_err(fail)?;
    let VerifyOutcome::Matrix(matrix) = &response.outcome else {
        eprintln!("demo failed: first watch tick must verify everything");
        return Err(1);
    };
    println!(
        "tick 0 (baseline): {} scenarios verified\n{matrix}",
        matrix.scenarios.len()
    );
    let full_scenarios = matrix.scenarios.len();

    // Tick 1: nothing changed — everything skipped.
    let response = service
        .serve(watch(DEMO_ROUTER.into(), DEMO_MINI.into()))
        .map_err(fail)?;
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        eprintln!("demo failed: second tick must diff against the baseline");
        return Err(1);
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
    let response = service
        .serve(watch(edited.clone(), DEMO_MINI.into()))
        .map_err(fail)?;
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        eprintln!("demo failed: tick 2 must diff");
        return Err(1);
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
    let response = service.serve(watch(edited, rewired)).map_err(fail)?;
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        eprintln!("demo failed: tick 3 must diff");
        return Err(1);
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
        return Err(1);
    }
    println!("\nwatch demo passed: baseline rolls forward, each tick re-verifies only its edit");
    Ok(())
}

// ---------------------------------------------------------------------------
// bound
// ---------------------------------------------------------------------------

fn cmd_bound(args: Vec<String>) -> Exit {
    let mut flags = CommonFlags::default();
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(&["--threads", "--cache"], &arg, &mut iter)? {
            continue;
        }
        if arg.starts_with('-') {
            return unknown_option(&arg);
        }
        files.push(arg);
    }
    if files.is_empty() {
        return usage_error("bound needs at least one config file");
    }
    let service = flags.service(false)?;
    for config in load_configs(&files)? {
        let pipeline = crate::pipeline::parse_config(&config.config)
            .map_err(|e| fail(format!("{}: {e}", config.name)))?;
        let request = VerifyRequest::Bound {
            name: config.name,
            pipeline,
        };
        println!("{}", service.serve(request).map_err(fail)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// conform / fuzz (differential conformance)
// ---------------------------------------------------------------------------

fn cmd_conform(args: Vec<String>) -> Exit {
    let mut file: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            other if other.starts_with('-') => return unknown_option(other),
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
    let doc =
        Json::parse(&read_file(&path)?).map_err(|e| fail(format!("{path} is not JSON: {e}")))?;
    let outcomes = crate::orchestrator::conformance::replay_matrix_json(&doc).map_err(fail)?;
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
        return Err(1);
    }
    Ok(())
}

/// Parse a seed: decimal or `0x`-prefixed hex.
fn parse_seed(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        text.replace('_', "").parse().ok()
    }
}

fn cmd_fuzz(args: Vec<String>) -> Exit {
    const FLAGS: &[&str] = &[
        "--threads",
        "--cache",
        "--connect",
        "--json",
        "--det-json",
        "--workers",
        "--heartbeat-ms",
    ];
    let mut flags = CommonFlags::default();
    let mut seed = crate::net::DEFAULT_SEED;
    let mut packets = 100_000u64;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(FLAGS, &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--seed" => {
                seed = value(
                    &mut iter,
                    parse_seed,
                    "--seed needs a number (decimal or 0x-hex)",
                )?
            }
            "--packets" => {
                let parse = |v: &str| v.replace('_', "").parse().ok();
                packets = value(&mut iter, parse, "--packets needs a number")?
            }
            other => return unknown_option(other),
        }
    }

    if let Some(addr) = &flags.connect {
        if flags.workers.is_some() {
            return usage_error(
                "--workers is daemon-side with --connect (join workers to the daemon)",
            );
        }
        flags.daemon_side(FLAGS)?;
        let request = VerifyRequest::Conformance {
            scenarios: preset_scenarios(),
            seed,
            packets,
        };
        println!("=== vericlick fuzz: {packets} packets, seed {seed:#x}, daemon {addr} ===\n");
        return reply_code(&client_request(addr, &request, &flags)?);
    }

    // `--workers` dispatches the fuzz shards over a fleet; without it the
    // shards run on the in-process pool.
    let fleet = match &flags.workers {
        Some(spec) => Some(flags.fleet(spec)?),
        None => None,
    };
    let service = flags.service(false)?;
    println!(
        "=== vericlick fuzz: {packets} packets, seed {seed:#x}, {} ===\n",
        match &fleet {
            Some(fleet) => fleet.describe(),
            None => format!("in-process pool ({} threads)", service.threads()),
        }
    );
    let executor = fleet.as_ref().map(|f| f as &dyn Executor);
    let report = service
        .run_conformance(preset_scenarios(), seed, packets, executor)
        .map_err(fail)?;
    print!("{report}");
    flags.write_reports(
        || report.to_json().to_text(),
        || report.deterministic_json().to_text(),
    )?;
    if !report.ok() {
        eprintln!(
            "conformance FAILED: {} replay mismatches, {} fuzz contradictions",
            report.replay_mismatches(),
            report.contradictions()
        );
        return Err(1);
    }
    println!("conformance: OK");
    Ok(())
}

// ---------------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------------

fn cmd_worker(args: Vec<String>) -> Exit {
    let mut listen: Option<String> = None;
    let mut join: Option<String> = None;
    let mut capacity = 0usize;
    let mut once = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--listen" => listen = Some(value(&mut iter, text, "--listen needs an address")?),
            "--join" => join = Some(value(&mut iter, text, "--join needs a daemon address")?),
            "--capacity" => capacity = value(&mut iter, number, "--capacity needs a number")?,
            "--once" => once = true,
            other => return unknown_option(other),
        }
    }
    if join.is_some() && listen.is_none() {
        return usage_error("--join needs --listen (the daemon dials the worker back)");
    }
    let served = match listen {
        // Socket worker: bind, announce the actual address (`:0` picks a
        // port), join the daemon's fleet, serve coordinator sessions.
        Some(addr) => Listener::bind(&WorkerAddr::parse(&addr)).map(|listener| {
            // Logs are best-effort: a worker must keep serving even if
            // whoever spawned it stopped reading its stdout.
            let mut log = |line: &str| {
                let mut out = std::io::stdout();
                let _ = writeln!(out, "worker: {line}");
                let _ = out.flush();
            };
            let local = listener.local();
            log(&format!("listening on {local}"));
            // Dialable from here on: announce it to the daemon's fleet.
            if let Some(daemon) = join.map(|d| WorkerAddr::parse(&d)) {
                match join_fleet(&daemon, &local) {
                    Ok(n) => log(&format!("joined {daemon} (fleet of {n})")),
                    Err(e) => eprintln!("worker: join {daemon} failed: {e}"),
                }
            }
            serve_listener(listener, capacity, once, &mut log);
        }),
        // Stdio worker: one session over stdin/stdout (spawned by
        // `exec-plan --workers N`).
        None => worker_serve(std::io::stdin().lock(), std::io::stdout(), capacity),
    };
    served.map_err(|e| {
        eprintln!("worker: {e}");
        2
    })
}

// ---------------------------------------------------------------------------
// serve / client (the persistent daemon)
// ---------------------------------------------------------------------------

fn cmd_serve(args: Vec<String>) -> Exit {
    const FLAGS: &[&str] = &["--threads", "--cache", "--heartbeat-ms"];
    let mut flags = CommonFlags::default();
    let mut listen: Option<String> = None;
    let mut max_sessions = 4usize;
    let mut max_queue = 4usize;
    let mut once = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(FLAGS, &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--listen" => listen = Some(value(&mut iter, text, "--listen needs an address")?),
            "--max-sessions" => {
                let needs = "--max-sessions needs a number (0 = unlimited)";
                max_sessions = value(&mut iter, number, needs)?
            }
            "--max-queue" => {
                let needs = "--max-queue needs a number (0 = refuse when full)";
                max_queue = value(&mut iter, number, needs)?
            }
            // A daemon's pool is socket workers only: no subprocess count.
            "--workers" => {
                flags.workers = Some(value(&mut iter, text, "--workers needs an address list")?)
            }
            "--once" => once = true,
            other => return unknown_option(other),
        }
    }
    let Some(listen) = listen else {
        return usage_error("serve needs --listen (host:port, a path, or unix:PATH)");
    };
    let config = DaemonConfig {
        threads: flags.threads,
        store: flags.store()?,
        max_sessions,
        max_queue,
        workers: flags
            .workers
            .as_deref()
            .map(worker_addrs)
            .unwrap_or_default(),
        heartbeat: flags
            .heartbeat_ms
            .map(HeartbeatConfig::from_interval_ms)
            .unwrap_or_default(),
        ..DaemonConfig::default()
    };
    let failed = |e: ExecError| {
        eprintln!("serve: {e}");
        2
    };
    let listener = Listener::bind(&WorkerAddr::parse(&listen)).map_err(failed)?;
    // Logs are best-effort, like the worker's: the daemon must keep
    // serving even if whoever spawned it stopped reading its stdout.
    let log: Arc<dyn Fn(&str) + Send + Sync> = Arc::new(|line: &str| {
        let mut out = std::io::stdout();
        let _ = writeln!(out, "serve: {line}");
        let _ = out.flush();
    });
    log(&format!("listening on {}", listener.local()));
    Daemon::new(config).serve(listener, once, log);
    Ok(())
}

fn cmd_client(args: Vec<String>) -> Exit {
    let mut flags = CommonFlags::default();
    let mut matrix = false;
    let mut request_path: Option<String> = None;
    let mut files = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if flags.take(&["--connect", "--json", "--det-json"], &arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "--matrix" => matrix = true,
            "--request" => request_path = Some(value(&mut iter, text, "--request needs a path")?),
            other if other.starts_with('-') => return unknown_option(other),
            file => files.push(file.to_string()),
        }
    }
    let Some(addr) = &flags.connect else {
        return usage_error("client needs --connect (the daemon's address)");
    };
    // The request: a serialised VerifyRequest document with --request,
    // the run-style matrix shape otherwise.
    let request = match request_path {
        Some(path) => {
            if matrix || !files.is_empty() {
                return usage_error("--request replaces --matrix/config files");
            }
            Json::parse(&read_file(&path)?)
                .map_err(|e| e.to_string())
                .and_then(|doc| VerifyRequest::from_json(&doc).map_err(|e| e.to_string()))
                .map_err(|e| fail(format!("bad request: {e}")))?
        }
        None => build_request(matrix, &files)?,
    };
    let reply = client_request(addr, &request, &flags)?;
    println!(
        "daemon served a {} request: {} proven, {} violated, {} unknown",
        reply.request, reply.proven, reply.violated, reply.unknown
    );
    reply_code(&reply)
}
