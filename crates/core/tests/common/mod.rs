//! Programs shared by the Step-1 tests: every element model of the preset
//! pipelines, and a hand-built program with a loop nested in a loop (no
//! library element nests loops).

use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::Program;
use dataplane_pipeline::presets::{
    buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
    middlebox_pipeline, router_chain,
};
use dataplane_pipeline::Pipeline;

/// `(pipeline/node, model)` for every node of the five preset pipelines and
/// `router_chain(2)`, in pipeline order.
pub fn preset_elements() -> Vec<(String, Program)> {
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
            out.push((format!("{name}/{}", node.name), node.element.model()));
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
