//! Shared helpers for the benchmark harness.
//!
//! Each bench target in `benches/` regenerates one of the paper's evaluation
//! artefacts; its module doc names the experiment and the claim it
//! reproduces. The helpers here build the toy programs of the paper's
//! figures and the router-element chains used by the scaling experiments.

#![forbid(unsafe_code)]

use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::Program;
use dataplane_pipeline::elements::*;
use dataplane_pipeline::presets::router_hop;
use dataplane_pipeline::{Element, Pipeline, PipelineBuilder};
use std::net::Ipv4Addr;

/// The toy program of Figure 1 (three feasible paths, one crashing).
pub fn figure1_program() -> Program {
    let mut pb = ProgramBuilder::new("Figure1", 1);
    let input = pb.local("in", 32);
    let out = pb.local("out", 32);
    let mut b = Block::new();
    b.assign(input, pkt(0, 4));
    b.assert(sle(c(32, 0), l(input)), "in >= 0");
    b.if_else(
        slt(l(input), c(32, 10)),
        Block::with(|bb| {
            bb.assign(out, c(32, 10));
        }),
        Block::with(|bb| {
            bb.assign(out, l(input));
        }),
    );
    b.pkt_store(0, 4, l(out));
    b.emit(0);
    pb.finish(b).expect("figure 1 program is valid")
}

/// Element E1 of Figure 2 (clamps negative inputs to zero).
pub struct ToyE1;
/// Element E2 of Figure 2 (crashes on negative inputs).
pub struct ToyE2;

impl Element for ToyE1 {
    fn type_name(&self) -> &'static str {
        "ToyE1"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, mut packet: dataplane_net::Packet) -> dataplane_pipeline::Action {
        let v = packet.get_u32(0).unwrap_or(0) as i32;
        let out = if v < 0 { 0 } else { v as u32 };
        packet.set_u32(0, out);
        dataplane_pipeline::Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("ToyE1", 1);
        let input = pb.local("in", 32);
        let out = pb.local("out", 32);
        let mut b = Block::new();
        b.assign(input, pkt(0, 4));
        b.if_else(
            slt(l(input), c(32, 0)),
            Block::with(|bb| {
                bb.assign(out, c(32, 0));
            }),
            Block::with(|bb| {
                bb.assign(out, l(input));
            }),
        );
        b.pkt_store(0, 4, l(out));
        b.emit(0);
        pb.finish(b).expect("toy E1 model is valid")
    }
}

impl Element for ToyE2 {
    fn type_name(&self) -> &'static str {
        "ToyE2"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, mut packet: dataplane_net::Packet) -> dataplane_pipeline::Action {
        let v = packet.get_u32(0).unwrap_or(0) as i32;
        if v < 0 {
            return dataplane_pipeline::Action::Crash(dataplane_ir::CrashReason::AssertionFailed {
                message: "in >= 0".into(),
            });
        }
        let out = if v < 10 { 10 } else { v as u32 };
        packet.set_u32(0, out);
        dataplane_pipeline::Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("ToyE2", 1);
        let input = pb.local("in", 32);
        let out = pb.local("out", 32);
        let mut b = Block::new();
        b.assign(input, pkt(0, 4));
        b.assert(sle(c(32, 0), l(input)), "in >= 0");
        b.if_else(
            slt(l(input), c(32, 10)),
            Block::with(|bb| {
                bb.assign(out, c(32, 10));
            }),
            Block::with(|bb| {
                bb.assign(out, l(input));
            }),
        );
        b.pkt_store(0, 4, l(out));
        b.emit(0);
        pb.finish(b).expect("toy E2 model is valid")
    }
}

/// The Figure-2 pipeline: a length guard, then E1 → E2, then a sink.
pub fn figure2_pipeline() -> Pipeline {
    let mut b = Pipeline::builder();
    let pad = b.add("pad", Box::new(CheckLength::new(4, 4096)));
    let e1 = b.add("e1", Box::new(ToyE1));
    let e2 = b.add("e2", Box::new(ToyE2));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[pad, e1, e2, out]);
    b.build().expect("figure 2 pipeline is valid")
}

/// Build the router-chain pipeline of length `k` (1..=7) followed by a
/// sink: the first `k` of `cls` and one [`router_hop`], which the scaling
/// experiments grow one element at a time.
pub fn router_prefix_pipeline(k: usize) -> Pipeline {
    assert!((1..=7).contains(&k), "prefix length out of range");
    let cls: (&str, Box<dyn Element>) = ("cls", Box::new(Classifier::ipv4_only()));
    let hop = router_hop(Ipv4Addr::new(10, 255, 255, 254));
    let mut b = PipelineBuilder::new();
    let mut idxs: Vec<_> = std::iter::once(cls)
        .chain(hop)
        .take(k)
        .map(|(name, element)| b.add(name, element))
        .collect();
    idxs.push(b.add("sink", Box::new(Sink::new())));
    b.chain(&idxs);
    b.build().expect("router prefix pipeline is valid")
}

/// Print a result row in the uniform `key=value` style the benches use, so
/// their output can be grepped and quoted directly.
pub fn row(experiment: &str, fields: &[(&str, String)]) {
    let mut line = format!("[{experiment}]");
    for (k, v) in fields {
        line.push_str(&format!(" {k}={v}"));
    }
    println!("{line}");
}

use std::sync::Mutex;

/// One recorded bench row: name plus its numeric metrics.
type JsonRow = (String, Vec<(&'static str, f64)>);

static JSON_ROWS: Mutex<Vec<JsonRow>> = Mutex::new(Vec::new());

/// Record one machine-readable bench row (row name → numeric metrics such
/// as `ns_per_op`, `packets_per_second`, `bytes_shipped`). Rows accumulate
/// across the whole bench run; [`json_write`] emits them at the end. A
/// name recorded twice keeps its latest metrics.
pub fn json_record(name: &str, metrics: &[(&'static str, f64)]) {
    let mut rows = JSON_ROWS.lock().expect("bench json rows");
    rows.retain(|(n, _)| n != name);
    rows.push((name.to_string(), metrics.to_vec()));
}

/// When the bench's argv contains `--json [PATH]`, write every recorded
/// row as one JSON object `{row: {metric: value}}` to PATH (default
/// `BENCH_<tag>.json` in the working directory) and return the path.
/// Without `--json` this is a no-op — the human-readable [`row`] lines
/// stay the only output. Hand-rendered: the bench harness stays free of
/// serialisation dependencies.
pub fn json_write(tag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--json")?;
    let path = match args.get(at + 1) {
        Some(p) if !p.starts_with('-') => p.clone(),
        _ => format!("BENCH_{tag}.json"),
    };
    let rows = JSON_ROWS.lock().expect("bench json rows");
    let mut text = String::from("{\n");
    for (i, (name, metrics)) in rows.iter().enumerate() {
        text.push_str(&format!("  {:?}: {{", name));
        for (j, (key, value)) in metrics.iter().enumerate() {
            // f64 Display never uses exponent notation, so every value is
            // a plain JSON number.
            text.push_str(&format!(
                "{}{:?}: {}",
                if j > 0 { ", " } else { "" },
                key,
                value
            ));
        }
        text.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    text.push_str("}\n");
    match std::fs::write(&path, text) {
        Ok(()) => {
            println!("bench json written to {path}");
            Some(path)
        }
        Err(e) => {
            eprintln!("bench json: cannot write {path}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_valid_artifacts() {
        assert_eq!(figure1_program().name, "Figure1");
        assert_eq!(figure2_pipeline().len(), 4);
        for k in 1..=7 {
            assert_eq!(router_prefix_pipeline(k).len(), k + 1);
        }
        row("test", &[("a", "1".into())]);
    }

    #[test]
    #[should_panic]
    fn prefix_length_is_checked() {
        router_prefix_pipeline(0);
    }
}
