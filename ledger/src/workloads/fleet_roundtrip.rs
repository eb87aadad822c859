//! `fleet_roundtrip` — the same watch session, distributed.
//!
//! Who it stands for: the same developer as `reverify_warm`, but with
//! their editor talking to a shared `vericlick serve` daemon that farms
//! work out to a worker. It is the same tick script sent through
//! `DaemonClient` → daemon → one capacity-1 worker over host-loopback
//! TCP, so `fleet_roundtrip/op_ms_p50 − reverify_warm/op_ms_p50` is what
//! distribution costs a request: codecs (`json`/`wire`/`persist`),
//! transport, dispatch, the worker protocol and the daemon, with the
//! solver doing as little as in `reverify_warm`.
//!
//! The op spans three processes and kernel socket timers, so it is timed
//! in raw wall-clock: most of it is waiting, which no CPU-speed probe can
//! correct.

use crate::clock::TimeSource;
use crate::harness::{Steps, Workload};
use crate::rss::peak_rss_mb;
use crate::variants::EditScript;
use crate::workloads::reverify_warm::{check_tick, establish_baseline, watch_request, Shadow};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use vericlick::orchestrator::{
    ClientReply, DaemonClient, ExecError, NamedConfig, PropertySelect, VerifyRequest,
    VerifyService, WorkerAddr,
};

/// Ticks served through the fleet before the window opens.
pub const WARM_UP_TICKS: usize = 2;

/// First argument that makes the ledger binary act as the `vericlick`
/// CLI: daemon and worker are re-execs of this binary, so the benchmark
/// needs no second build and measures the code it was compiled against.
pub const CLI_ARG: &str = "vericlick";

/// A child process that is killed and reaped when dropped, however the
/// run ends.
pub struct Reaped(Child);

impl Reaped {
    pub fn id(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        // Errors mean the child is already gone; either way it is reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `ledger vericlick <args>` and feed its stdout lines to `ready`
/// until that returns the address the process serves on. The pipe is
/// closed afterwards — both daemon and worker treat their log lines as
/// best-effort.
fn spawn_cli(
    args: &[&str],
    mut ready: impl FnMut(&str) -> Option<String>,
) -> Result<(Reaped, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg(CLI_ARG)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let child = Reaped(child);
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("{args:?}: {e}"))?;
        if let Some(addr) = ready(&line) {
            return Ok((child, addr));
        }
    }
    Err(format!("{args:?} exited before it was ready"))
}

/// A daemon and one worker joined to it, both on loopback TCP.
pub struct Fleet {
    // Dropped in this order: the worker first, then the daemon.
    worker: Reaped,
    daemon: Reaped,
    pub daemon_addr: WorkerAddr,
    pub worker_addr: WorkerAddr,
}

impl Fleet {
    pub fn spawn() -> Result<Fleet, String> {
        let (daemon, daemon_addr) = spawn_cli(
            &["serve", "--listen", "127.0.0.1:0", "--threads", "1"],
            |line| {
                line.strip_prefix("serve: listening on ")
                    .map(|addr| addr.trim().to_string())
            },
        )?;
        // The worker prints where it listens first; once it prints
        // `joined`, the daemon has it in its pool.
        let mut listening = None;
        let (worker, worker_addr) = spawn_cli(
            &[
                "worker",
                "--listen",
                "127.0.0.1:0",
                "--capacity",
                "1",
                "--join",
                &daemon_addr,
            ],
            |line| {
                if let Some(addr) = line.strip_prefix("worker: listening on ") {
                    listening = Some(addr.trim().to_string());
                }
                line.starts_with("worker: joined ")
                    .then(|| listening.clone())
                    .flatten()
            },
        )?;
        Ok(Fleet {
            worker,
            daemon,
            daemon_addr: WorkerAddr::parse(&daemon_addr),
            worker_addr: WorkerAddr::parse(&worker_addr),
        })
    }

    /// Peak resident memory of daemon plus worker, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.daemon.id()).unwrap_or(0.0) + peak_rss_mb(self.worker.id()).unwrap_or(0.0)
    }
}

pub struct FleetRoundtrip {
    // Field order is drop order: hang up before the processes are killed.
    client: DaemonClient,
    fleet: Fleet,
    /// The same session served in-process, one tick behind the fleet until
    /// each op's check catches it up: the reference every reply must equal
    /// byte for byte.
    local: VerifyService,
    script: EditScript,
    /// Warm-up ticks, then the window's.
    ticks: Vec<Vec<NamedConfig>>,
    shadow: Shadow,
}

impl FleetRoundtrip {
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    pub fn script(&self) -> &EditScript {
        &self.script
    }

    pub fn tick(&self, index: usize) -> &[NamedConfig] {
        &self.ticks[WARM_UP_TICKS + index]
    }

    /// The config set the session's baseline holds when op `index` runs.
    pub fn previous_tick(&self, index: usize) -> &[NamedConfig] {
        &self.ticks[WARM_UP_TICKS + index - 1]
    }

    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    /// Serve `tick` in-process and hold the fleet's reply against it.
    fn check_reply(
        &mut self,
        tick: &[NamedConfig],
        reply: Result<ClientReply, ExecError>,
    ) -> Result<(), String> {
        // The local session advances whatever the fleet did, so one failed
        // op does not put every later reference out of step.
        let local = self
            .local
            .serve(watch_request(tick))
            .map_err(|e| format!("in-process reference: {e}"))?;
        check_tick(&local).map_err(|why| format!("in-process reference: {why}"))?;
        let reply = reply.map_err(|e| e.to_string())?;
        if reply.unknown != 0 {
            return Err(format!("{} scenarios Unknown", reply.unknown));
        }
        if reply.det_report.to_text() != local.deterministic_json().to_text() {
            return Err("reply differs from the in-process report of the same tick".into());
        }
        Ok(())
    }
}

impl Workload for FleetRoundtrip {
    const NAME: &'static str = "fleet_roundtrip";
    const ROUND_LEN: usize = 1;
    const NOMINAL_OP_MS: f64 = 515.0;
    /// One: the set-up is five seconds of waiting on the same kernel
    /// timers as the ops (three set-ups of one run agreed within 1 %), and
    /// each repeat would start and stop two more processes.
    const SET_UPS: usize = 1;
    const CORRECTED: bool = false;
    type Out = Result<ClientReply, ExecError>;

    fn set_up<T: TimeSource>(seed: u64, ops: usize, steps: &mut Steps<T>) -> Result<Self, String> {
        let script = EditScript::new(seed);
        let ticks: Vec<Vec<NamedConfig>> = steps.step("generate edit script", || {
            (0..WARM_UP_TICKS + ops).map(|t| script.tick(t)).collect()
        });
        let local = VerifyService::new().with_threads(1);
        steps.step("reference baseline", || establish_baseline(&local, &script))?;
        let fleet = steps.step("spawn daemon and worker", Fleet::spawn)?;
        let mut client = steps
            .step("connect", || {
                DaemonClient::connect(&fleet.daemon_addr, None)
            })
            .map_err(|e| e.to_string())?;
        let baseline = steps
            .step("fleet baseline", || {
                client.verify(&VerifyRequest::Watch {
                    configs: script.baseline(),
                    properties: PropertySelect::Preset,
                })
            })
            .map_err(|e| e.to_string())?;
        if (baseline.proven, baseline.violated, baseline.unknown) != (15, 5, 0) {
            return Err(format!(
                "fleet baseline: {} proven, {} violated, {} unknown",
                baseline.proven, baseline.violated, baseline.unknown
            ));
        }
        let mut workload = FleetRoundtrip {
            client,
            fleet,
            local,
            script,
            ticks,
            shadow: Shadow::default(),
        };
        for t in 0..WARM_UP_TICKS {
            let tick = workload.ticks[t].clone();
            let reply = steps.step("warm-up tick", || {
                workload.client.verify(&watch_request(&tick))
            });
            workload
                .check_reply(&tick, reply)
                .map_err(|why| format!("warm-up tick {t}: {why}"))?;
        }
        Ok(workload)
    }

    fn op(&mut self, index: usize) -> Self::Out {
        self.client
            .verify(&watch_request(&self.ticks[WARM_UP_TICKS + index]))
    }

    fn check(&mut self, index: usize, out: Self::Out) -> Result<(), String> {
        let tick = self.tick(index).to_vec();
        self.check_reply(&tick, out)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(std::process::id()).unwrap_or(0.0) + self.fleet.peak_rss_mb()
    }
}
