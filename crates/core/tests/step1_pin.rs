//! Step-1 pins: an FNV-1a digest of the complete debug rendering of
//! `explore` — every segment's constraint, outcome, packet transformation,
//! data-structure records, instruction count and approximation flag, the
//! branch count, or the budget error — for every element of the preset
//! pipelines and for a hand-built nested-loop program.
//!
//! Any change to the symbolic executor that moves the order in which paths
//! are visited, the numbering of fresh variables, the instruction or branch
//! accounting, or where a budget trips moves a digest. A refactor of the
//! engine must keep every pin as it is.

mod common;

use dataplane_symbex::{explore, EngineConfig};

/// The bounded unrolling: small enough that the loop-heavy elements trip a
/// budget within a few seconds of a debug build.
fn unroll() -> EngineConfig {
    EngineConfig::monolithic(5_000, 200_000)
}

/// FNV-1a, 64-bit.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(program, decomposed digest, unrolled digest)`.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64)] = &[
    ("ip_router/cls", 0xca474e95298e7e87, 0xca474e95298e7e87),
    ("ip_router/strip", 0xe2d3cfaec765f2ef, 0xe2d3cfaec765f2ef),
    ("ip_router/chk", 0xb8b1d837c34a0959, 0x99943ef9cb73cafa),
    ("ip_router/opts", 0xfaf98a0d4ac557f2, 0xb0eafa07dbedcb27),
    ("ip_router/rt", 0xecc58b115af3b796, 0xecc58b115af3b796),
    ("ip_router/ttl0", 0xeec588f8c89948cb, 0xeec588f8c89948cb),
    ("ip_router/ttl1", 0xeec588f8c89948cb, 0xeec588f8c89948cb),
    ("ip_router/enc0", 0xcd0893b42e62dda8, 0xcd0893b42e62dda8),
    ("ip_router/enc1", 0xcd0893b42e62dda8, 0xcd0893b42e62dda8),
    ("ip_router/out0", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
    ("ip_router/out1", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
    ("linear_router/cls", 0xca474e95298e7e87, 0xca474e95298e7e87),
    ("linear_router/strip", 0xe2d3cfaec765f2ef, 0xe2d3cfaec765f2ef),
    ("linear_router/chk", 0xb8b1d837c34a0959, 0x99943ef9cb73cafa),
    ("linear_router/opts", 0xfaf98a0d4ac557f2, 0xb0eafa07dbedcb27),
    ("linear_router/rt", 0xecc58b115af3b796, 0xecc58b115af3b796),
    ("linear_router/ttl", 0xeec588f8c89948cb, 0xeec588f8c89948cb),
    ("linear_router/enc", 0xcd0893b42e62dda8, 0xcd0893b42e62dda8),
    ("linear_router/sink", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
    ("middlebox/strip", 0xe2d3cfaec765f2ef, 0xe2d3cfaec765f2ef),
    ("middlebox/chk", 0xb8b1d837c34a0959, 0x99943ef9cb73cafa),
    ("middlebox/flow", 0x8fca061d858c7510, 0x8fca061d858c7510),
    ("middlebox/nat", 0x6282680d598c337b, 0x95a8e0aa67d3e39b),
    ("middlebox/enc", 0xcd0893b42e62dda8, 0xcd0893b42e62dda8),
    ("middlebox/out", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
    ("firewall/strip", 0xe2d3cfaec765f2ef, 0xe2d3cfaec765f2ef),
    ("firewall/chk", 0xb8b1d837c34a0959, 0x99943ef9cb73cafa),
    ("firewall/filter", 0x631bda43e2b9a34b, 0x631bda43e2b9a34b),
    ("firewall/rt", 0xecc58b115af3b796, 0xecc58b115af3b796),
    ("firewall/ttl", 0xeec588f8c89948cb, 0xeec588f8c89948cb),
    ("firewall/enc", 0xcd0893b42e62dda8, 0xcd0893b42e62dda8),
    ("firewall/out0", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
    ("firewall/out1", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
    ("buggy/cls", 0xca474e95298e7e87, 0xca474e95298e7e87),
    ("buggy/strip", 0xe2d3cfaec765f2ef, 0xe2d3cfaec765f2ef),
    ("buggy/opts", 0x9e545e1af640cdff, 0xb0eafa07dbedcb27),
    ("buggy/ttl", 0x2f8968b36f97a0aa, 0x2f8968b36f97a0aa),
    ("buggy/out", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
    ("router_chain2/cls", 0xca474e95298e7e87, 0xca474e95298e7e87),
    ("router_chain2/strip0", 0xe2d3cfaec765f2ef, 0xe2d3cfaec765f2ef),
    ("router_chain2/chk0", 0xb8b1d837c34a0959, 0x99943ef9cb73cafa),
    ("router_chain2/opts0", 0xfaf98a0d4ac557f2, 0xb0eafa07dbedcb27),
    ("router_chain2/rt0", 0xecc58b115af3b796, 0xecc58b115af3b796),
    ("router_chain2/ttl0", 0xeec588f8c89948cb, 0xeec588f8c89948cb),
    ("router_chain2/enc0", 0xcd0893b42e62dda8, 0xcd0893b42e62dda8),
    ("router_chain2/strip1", 0xe2d3cfaec765f2ef, 0xe2d3cfaec765f2ef),
    ("router_chain2/chk1", 0xb8b1d837c34a0959, 0x99943ef9cb73cafa),
    ("router_chain2/opts1", 0xfaf98a0d4ac557f2, 0xb0eafa07dbedcb27),
    ("router_chain2/rt1", 0xecc58b115af3b796, 0xecc58b115af3b796),
    ("router_chain2/ttl1", 0xeec588f8c89948cb, 0xeec588f8c89948cb),
    ("router_chain2/enc1", 0xcd0893b42e62dda8, 0xcd0893b42e62dda8),
    ("router_chain2/sink", 0x5fcbf0614ed8c92c, 0x5fcbf0614ed8c92c),
];

/// The decomposed digest of the nested-loop program.
const NESTED_PIN: u64 = 0xf86537a30737b7c8;

#[test]
fn every_preset_element_explores_to_its_pinned_digest() {
    let actual: Vec<(String, u64, u64)> = common::preset_elements()
        .iter()
        .map(|(name, program, _)| {
            let decomposed = fnv(&format!(
                "{:?}",
                explore(program, &EngineConfig::decomposed())
            ));
            let unrolled = fnv(&format!("{:?}", explore(program, &unroll())));
            (name.clone(), decomposed, unrolled)
        })
        .collect();
    let expected: Vec<(String, u64, u64)> = PINS
        .iter()
        .map(|(name, d, u)| (name.to_string(), *d, *u))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d, u)| format!("    (\"{name}\", {d:#018x}, {u:#018x}),\n"))
        .collect();
    assert_eq!(actual, expected, "actual pins:\n{table}");
}

#[test]
fn the_nested_loop_program_explores_to_its_pinned_digest() {
    let program = common::nested_loop_program();
    let exploration = explore(&program, &EngineConfig::decomposed());
    let digest = fnv(&format!("{exploration:?}"));
    assert_eq!(digest, NESTED_PIN, "actual pin: {digest:#018x}");
}
