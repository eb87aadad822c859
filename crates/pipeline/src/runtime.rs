//! Concrete pipeline runtimes: single-threaded and multi-threaded
//! (SMPClick-style) execution of packet streams, plus a model-interpreting
//! runtime used for differential testing and instruction accounting.

use crate::element::{build_model_state, lower, run_program, Action};
use crate::pipeline::{Disposition, Pipeline, PipelineOutcome};
use dataplane_ir::{ElementState, Lowered, Scratch};
use dataplane_net::Packet;
use parking_lot::Mutex;
use std::fmt;
use std::time::{Duration, Instant};

/// Aggregate statistics from running a packet stream through a pipeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets that exited the pipeline through an unconnected port.
    pub forwarded: u64,
    /// Packets dropped by some element.
    pub dropped: u64,
    /// Packets whose processing crashed.
    pub crashed: u64,
    /// Total element hops (a proxy for per-packet work).
    pub hops: u64,
}

impl RunStats {
    fn absorb(&mut self, outcome: &PipelineOutcome) {
        self.injected += 1;
        self.hops += outcome.hops.len() as u64;
        match outcome.disposition {
            Disposition::Exited { .. } => self.forwarded += 1,
            Disposition::Dropped { .. } => self.dropped += 1,
            Disposition::Crashed { .. } => self.crashed += 1,
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.injected += other.injected;
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
        self.crashed += other.crashed;
        self.hops += other.hops;
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {}, forwarded {}, dropped {}, crashed {}, hops {}",
            self.injected, self.forwarded, self.dropped, self.crashed, self.hops
        )
    }
}

/// Result of a timed run: statistics plus wall-clock duration.
#[derive(Clone, Debug)]
pub struct TimedRun {
    /// Aggregate packet statistics.
    pub stats: RunStats,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
}

impl TimedRun {
    /// Packets per second achieved.
    pub fn packets_per_second(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.stats.injected as f64 / self.elapsed.as_secs_f64()
    }
}

/// Run a batch of packets through the pipeline on the calling thread.
pub fn run_single_threaded(pipeline: &mut Pipeline, packets: Vec<Packet>) -> TimedRun {
    let start = Instant::now();
    let mut stats = RunStats::default();
    for pkt in packets {
        let outcome = pipeline.push(pkt);
        stats.absorb(&outcome);
    }
    TimedRun {
        stats,
        elapsed: start.elapsed(),
    }
}

/// Run a batch of packets using `threads` worker threads, each with its own
/// replica of the pipeline (built by `make_pipeline`).
///
/// This mirrors how SMPClick parallelises packet processing: because elements
/// share no mutable state with each other, the only cross-thread state is the
/// packet queue itself. Per-element private state (flow tables, NAT maps) is
/// replicated per thread, exactly as a thread-partitioned dataplane would.
pub fn run_parallel<F>(make_pipeline: F, packets: Vec<Packet>, threads: usize) -> TimedRun
where
    F: Fn() -> Pipeline + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let start = Instant::now();
    let queue: crossbeam::queue::SegQueue<Packet> = crossbeam::queue::SegQueue::new();
    for p in packets {
        queue.push(p);
    }
    let total_stats = Mutex::new(RunStats::default());

    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut pipeline = make_pipeline();
                let mut local = RunStats::default();
                while let Some(pkt) = queue.pop() {
                    let outcome = pipeline.push(pkt);
                    local.absorb(&outcome);
                }
                total_stats.lock().merge(&local);
            });
        }
    })
    .expect("worker thread panicked");

    TimedRun {
        stats: total_stats.into_inner(),
        elapsed: start.elapsed(),
    }
}

/// Push one packet through a *fresh* model state: the replay primitive of
/// differential conformance, where no prior packet's element state may
/// influence the verdict. Equivalent to `ModelRuntime::new(pipeline).push(p)`
/// but names the intent at the call site.
pub fn model_run_fresh(pipeline: &Pipeline, packet: Packet) -> ModelRun {
    ModelRuntime::new(pipeline).push(packet)
}

/// How one packet fared when executed through the pipeline *via the element
/// models* (IR interpretation) rather than the native implementations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelRun {
    /// Terminal disposition (same shape as the native runtime's).
    pub disposition: Disposition,
    /// The sequence of elements visited.
    pub hops: Vec<usize>,
    /// Total IR instructions executed across all visited elements — the
    /// "number of instructions per packet" metric of the paper's bounded-
    /// latency experiment.
    pub instructions: u64,
}

/// A model-interpreting runtime: executes every element's IR model instead of
/// its native code, maintaining per-element model state across packets.
///
/// Used (a) by differential tests that check native ≡ model at the pipeline
/// level, and (b) to measure concrete per-packet instruction counts that the
/// verifier's bounded-instruction proof can be compared against.
///
/// Each element's model is built and lowered once, in
/// [`ModelRuntime::new`]; a push only runs the lowered code, on one scratch
/// shared by every node and packet, so it allocates nothing beyond the
/// packet's hop list (and a crash's reason).
pub struct ModelRuntime<'p> {
    pipeline: &'p Pipeline,
    /// Each node's lowered model.
    codes: Vec<Lowered>,
    states: Vec<ElementState>,
    scratch: Scratch,
}

impl<'p> ModelRuntime<'p> {
    /// Build the model runtime for a pipeline (instantiating and lowering
    /// each element's model program, and building its model state).
    pub fn new(pipeline: &'p Pipeline) -> Self {
        let (codes, states) = pipeline
            .iter()
            .map(|(_, node)| {
                let program = node.element.model();
                let state = build_model_state(node.element.as_ref(), &program);
                (lower(&program), state)
            })
            .unzip();
        ModelRuntime {
            pipeline,
            codes,
            states,
            scratch: Scratch::default(),
        }
    }

    /// Execute one packet through the element models.
    pub fn push(&mut self, packet: Packet) -> ModelRun {
        let mut current = self.pipeline.entry();
        let mut pkt = packet;
        let mut hops = Vec::with_capacity(self.pipeline.len());
        let mut instructions = 0u64;
        loop {
            hops.push(current);
            let node = self.pipeline.node(current);
            let (action, count) = run_program(
                &self.codes[current],
                pkt,
                &mut self.states[current],
                &mut self.scratch,
            );
            instructions += count;
            match action {
                Action::Drop => {
                    return ModelRun {
                        disposition: Disposition::Dropped { at: current },
                        hops,
                        instructions,
                    }
                }
                Action::Crash(reason) => {
                    return ModelRun {
                        disposition: Disposition::Crashed {
                            at: current,
                            reason,
                        },
                        hops,
                        instructions,
                    }
                }
                Action::Emit(port, out) => match node.successors.get(port as usize) {
                    Some(Some(next)) => {
                        current = *next;
                        pkt = out;
                    }
                    _ => {
                        return ModelRun {
                            disposition: Disposition::Exited {
                                at: current,
                                port,
                                packet: out,
                            },
                            hops,
                            instructions,
                        }
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{DsContents, Element};
    use crate::elements::Sink;
    use crate::pipeline::PipelineBuilder;
    use crate::presets::{
        buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
        middlebox_pipeline, router_element_chain,
    };
    use dataplane_ir::{DsId, Program};
    use dataplane_net::{PacketBuilder, PacketMeta, WorkloadGen};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_threaded_run_counts_everything() {
        let mut pipeline = ip_router_pipeline();
        let packets = WorkloadGen::adversarial(11).batch(200);
        let run = run_single_threaded(&mut pipeline, packets);
        assert_eq!(run.stats.injected, 200);
        assert_eq!(
            run.stats.injected,
            run.stats.forwarded + run.stats.dropped + run.stats.crashed
        );
        assert_eq!(run.stats.crashed, 0);
        assert!(run.stats.hops >= run.stats.injected);
        assert!(run.packets_per_second() > 0.0);
        assert!(!run.stats.to_string().is_empty());
    }

    #[test]
    fn parallel_run_processes_all_packets() {
        let packets = WorkloadGen::clean(5).batch(400);
        let run = run_parallel(ip_router_pipeline, packets, 4);
        assert_eq!(run.stats.injected, 400);
        assert_eq!(run.stats.crashed, 0);
        // Every packet ends at a Sink (which drops) or is dropped earlier;
        // clean traffic must traverse the full 8-element path on average.
        assert_eq!(run.stats.dropped, 400);
        assert!(run.stats.hops > 400 * 6);
    }

    #[test]
    #[should_panic]
    fn parallel_run_needs_a_thread() {
        run_parallel(ip_router_pipeline, vec![], 0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = RunStats {
            injected: 1,
            forwarded: 1,
            dropped: 0,
            crashed: 0,
            hops: 3,
        };
        let b = RunStats {
            injected: 2,
            forwarded: 0,
            dropped: 1,
            crashed: 1,
            hops: 4,
        };
        a.merge(&b);
        assert_eq!(a.injected, 3);
        assert_eq!(a.hops, 7);
    }

    #[test]
    fn model_runtime_agrees_with_native_runtime() {
        let presets = [
            ("ip_router", ip_router_pipeline as fn() -> Pipeline),
            ("linear_router", linear_router_pipeline),
            ("middlebox", middlebox_pipeline),
            ("firewall", || firewall_pipeline(vec![])),
            ("buggy", buggy_pipeline),
        ];
        for (name, build) in presets {
            let mut native = build();
            let model_pipeline = build();
            let mut model = ModelRuntime::new(&model_pipeline);
            let packets = WorkloadGen::adversarial(23).batch(150);
            for pkt in packets {
                let n = native.push(pkt.clone());
                let m = model.push(pkt);
                assert_eq!(n.hops, m.hops, "{name}: element paths diverged");
                match (&n.disposition, &m.disposition) {
                    (
                        Disposition::Exited { packet: np, .. },
                        Disposition::Exited { packet: mp, .. },
                    ) => {
                        assert_eq!(np, mp, "{name}: output packets diverged");
                    }
                    (Disposition::Dropped { at: na }, Disposition::Dropped { at: ma }) => {
                        assert_eq!(na, ma)
                    }
                    (Disposition::Crashed { at: na, .. }, Disposition::Crashed { at: ma, .. }) => {
                        assert_eq!(na, ma)
                    }
                    other => panic!("{name}: dispositions diverged: {other:?}"),
                }
                assert!(m.instructions > 0);
            }
        }
    }

    /// Wraps an element and counts how often its model program and its
    /// model tables are built.
    struct Counted {
        inner: Box<dyn Element>,
        models: Arc<AtomicUsize>,
        tables: Arc<AtomicUsize>,
    }

    impl Element for Counted {
        fn type_name(&self) -> &'static str {
            self.inner.type_name()
        }
        fn config_key(&self) -> String {
            self.inner.config_key()
        }
        fn output_ports(&self) -> usize {
            self.inner.output_ports()
        }
        fn process(&mut self, packet: Packet) -> Action {
            self.inner.process(packet)
        }
        fn model(&self) -> Program {
            self.models.fetch_add(1, Ordering::Relaxed);
            self.inner.model()
        }
        fn model_state(&self) -> BTreeMap<DsId, DsContents> {
            self.tables.fetch_add(1, Ordering::Relaxed);
            self.inner.model_state()
        }
    }

    /// The router's element chain, without a final sink.
    fn chain_pipeline(elements: Vec<(&str, Box<dyn Element>)>) -> Pipeline {
        let mut b = PipelineBuilder::new();
        let nodes: Vec<_> = elements.into_iter().map(|(n, e)| b.add(n, e)).collect();
        b.chain(&nodes);
        b.build().expect("a chain is a valid pipeline")
    }

    #[test]
    fn a_model_runtime_builds_each_model_once_however_many_packets() {
        let models = Arc::new(AtomicUsize::new(0));
        let tables = Arc::new(AtomicUsize::new(0));
        let mut chain = router_element_chain();
        chain.push(("sink", Box::new(Sink::new())));
        let counted = chain
            .into_iter()
            .map(|(name, inner)| {
                let counted = Counted {
                    inner,
                    models: models.clone(),
                    tables: tables.clone(),
                };
                (name, Box::new(counted) as Box<dyn Element>)
            })
            .collect();
        let pipeline = chain_pipeline(counted);
        let mut runtime = ModelRuntime::new(&pipeline);
        let mut hops = 0;
        for pkt in WorkloadGen::adversarial(5).batch(1000) {
            hops += runtime.push(pkt).hops.len();
        }
        assert!(hops > 1000, "packets must cross several elements");
        assert_eq!(models.load(Ordering::Relaxed), pipeline.len());
        assert_eq!(tables.load(Ordering::Relaxed), pipeline.len());
    }

    #[test]
    fn an_exited_model_run_keeps_the_packet_metadata() {
        // Without a sink a routed packet leaves through the encapsulator's
        // unconnected port.
        let pipeline = chain_pipeline(router_element_chain());
        let meta = PacketMeta {
            input_port: 3,
            paint: 7,
            sequence: 42,
        };
        let bytes = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 1, 2, 3),
            1,
            2,
            b"x",
        )
        .build()
        .into_bytes();
        let packet = Packet::with_meta(bytes, meta.clone());
        let run = ModelRuntime::new(&pipeline).push(packet.clone());
        let Disposition::Exited { packet: out, .. } = &run.disposition else {
            panic!("a routed packet must exit: {:?}", run.disposition);
        };
        assert_eq!(out.meta(), &meta);
        let native = chain_pipeline(router_element_chain()).push(packet);
        let Disposition::Exited {
            packet: expected, ..
        } = &native.disposition
        else {
            panic!("the native run must exit too: {:?}", native.disposition);
        };
        assert_eq!(out, expected);
    }

    #[test]
    fn model_runtime_keeps_stateful_elements_consistent() {
        // Through the middlebox (NetFlow + NAT) the model runtime must match
        // the native pipeline packet-for-packet even though behaviour depends
        // on accumulated private state.
        let mut native = middlebox_pipeline();
        let model_pipeline = middlebox_pipeline();
        let mut model = ModelRuntime::new(&model_pipeline);
        let packets = WorkloadGen::clean(99).batch(100);
        for pkt in packets {
            let n = native.push(pkt.clone());
            let m = model.push(pkt);
            match (&n.disposition, &m.disposition) {
                (
                    Disposition::Exited { packet: np, .. },
                    Disposition::Exited { packet: mp, .. },
                ) => {
                    assert_eq!(np.bytes(), mp.bytes());
                }
                (a, b) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "dispositions diverged"
                ),
            }
        }
    }

    #[test]
    fn instruction_counts_reflect_packet_complexity() {
        let pipeline = ip_router_pipeline();
        let mut model = ModelRuntime::new(&pipeline);
        let plain = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            b"x",
        )
        .build();
        let with_options = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            b"x",
        )
        .ip_options(&[7, 15, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
        .build();
        let a = model.push(plain);
        let b = model.push(with_options);
        assert!(
            b.instructions > a.instructions,
            "options packet must execute more instructions ({} vs {})",
            b.instructions,
            a.instructions
        );
    }
}
