//! Programs shared by the Step-1 tests: every element model of the preset
//! pipelines, and hand-built programs for what no library element does: a
//! loop nested in a loop, a drop inside a loop body, and a `Select` whose
//! arms differ in cost and can each crash.

#![allow(dead_code)] // each test file uses some of these

use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::{ElementState, Program};
use dataplane_pipeline::presets::{
    buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
    middlebox_pipeline, router_chain,
};
use dataplane_pipeline::{build_model_state, Pipeline};

/// `(pipeline/node, model, model state)` for every node of the five preset
/// pipelines and `router_chain(2)`, in pipeline order.
pub fn preset_elements() -> Vec<(String, Program, ElementState)> {
    let pipelines: [(&str, Pipeline); 6] = [
        ("ip_router", ip_router_pipeline()),
        ("linear_router", linear_router_pipeline()),
        ("middlebox", middlebox_pipeline()),
        ("firewall", firewall_pipeline(vec![])),
        ("buggy", buggy_pipeline()),
        ("router_chain2", router_chain(2)),
    ];
    let mut out = Vec::new();
    for (name, pipeline) in &pipelines {
        for (_, node) in pipeline.iter() {
            let program = node.element.model();
            let state = build_model_state(node.element.as_ref(), &program);
            out.push((format!("{name}/{}", node.name), program, state));
        }
    }
    out
}

/// Two nested loops over packet-derived trip counts, each bounded by 2: the
/// outer runs 0–2 times, the inner 0–3 times (a fourth trip crashes on the
/// inner bound). The inner body branches on a packet byte at a loop-carried
/// offset and divides by another (a crash when that byte is zero); the
/// result is stored back into the packet and picks the output port.
pub fn nested_loop_program() -> Program {
    let mut pb = ProgramBuilder::new("NestedLoops", 2);
    let n = pb.local("n", 8);
    let m = pb.local("m", 8);
    let i = pb.local("i", 8);
    let j = pb.local("j", 8);
    let acc = pb.local("acc", 8);
    let mut b = Block::new();
    b.assign(n, urem(pkt(0, 1), c(8, 3)));
    b.assign(m, urem(pkt(1, 1), c(8, 4)));
    b.loop_bounded(
        2,
        ult(l(i), l(n)),
        Block::with(|outer| {
            outer.assign(j, c(8, 0));
            outer.loop_bounded(
                2,
                ult(l(j), l(m)),
                Block::with(|inner| {
                    inner.if_else(
                        eq(pkt_at(zext(add(l(j), c(8, 2)), 32), 1), c(8, 0)),
                        Block::with(|t| {
                            t.assign(acc, add(l(acc), c(8, 1)));
                        }),
                        Block::with(|e| {
                            e.assign(
                                acc,
                                add(
                                    l(acc),
                                    udiv(c(8, 200), pkt_at(zext(add(l(i), c(8, 2)), 32), 1)),
                                ),
                            );
                        }),
                    );
                    inner.assign(j, add(l(j), c(8, 1)));
                }),
            );
            outer.assign(i, add(l(i), c(8, 1)));
        }),
    );
    b.pkt_store(0, 1, l(acc));
    b.if_else(
        ult(l(acc), c(8, 8)),
        Block::with(|t| {
            t.emit(0);
        }),
        Block::with(|e| {
            e.emit(1);
        }),
    );
    pb.finish(b).expect("the nested-loop program is valid")
}

/// A loop of at most ten iterations that counts `i` up and drops the packet
/// once `i` equals the first packet byte, so byte `k` in 1..=10 drops in
/// iteration `k`; other packets emit after the loop.
pub fn loop_body_drop_program() -> Program {
    let mut pb = ProgramBuilder::new("LoopBodyDrop", 1);
    let i = pb.local("i", 8);
    let mut b = Block::new();
    b.loop_bounded(
        10,
        ult(l(i), c(8, 10)),
        Block::with(|lb| {
            lb.assign(i, add(l(i), c(8, 1)));
            lb.if_then(
                eq(l(i), pkt(0, 1)),
                Block::with(|t| {
                    t.drop_packet();
                }),
            );
        }),
    );
    b.emit(0);
    pb.finish(b).expect("the loop-body drop program is valid")
}

/// `x := pkt[0] == 0 ? pkt[1] : pkt[2] + pkt[3]`, then emit: the arms cost
/// 2 and 5 instructions, and each can read past the end of a short packet.
pub fn select_crash_program() -> Program {
    let mut pb = ProgramBuilder::new("SelectCrash", 1);
    let x = pb.local("x", 8);
    let mut b = Block::new();
    b.assign(
        x,
        select(eq(pkt(0, 1), c(8, 0)), pkt(1, 1), add(pkt(2, 1), pkt(3, 1))),
    );
    b.emit(0);
    pb.finish(b).expect("the select program is valid")
}
