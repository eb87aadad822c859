//! A seeded stream of hostile packets through every preset's model
//! runtime, pinned by a digest of each run's disposition (crash reason
//! included), hop list and instruction count.
//!
//! The golden fuzz report carries no crash and few counterexamples, so it
//! says little about how the concrete interpreter counts on crash paths.
//! This stream reaches them: random bytes of random length (0–80), with
//! IPv4 framing stamped in often enough to get past the classifier and the
//! header check. One runtime serves the whole stream, so stateful elements
//! (flow accounting, NAT) see their maps grow across packets. The pins were
//! recorded with the tree-walking interpreter; any interpreter of the same
//! IR semantics must reproduce them exactly.

use dataplane_net::ipv4::Ipv4Header;
use dataplane_net::Packet;
use dataplane_pipeline::presets::{
    buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
    middlebox_pipeline,
};
use dataplane_pipeline::{Disposition, ModelRun, ModelRuntime, Pipeline};

/// Packets per preset.
const PACKETS: usize = 10_000;

/// SplitMix64: a fixed, dependency-free stream for the packet generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One hostile packet: random bytes, and (each with its own odds) an IPv4
/// ethertype, a version-4 first header byte with a legal IHL (often 5), a total
/// length that matches the frame, a routable destination (10/8) and a
/// correct header checksum.
fn hostile_packet(rng: &mut Rng) -> Vec<u8> {
    let len = rng.below(81) as usize;
    let mut bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    if len >= 14 && rng.below(8) != 0 {
        bytes[12..14].copy_from_slice(&[0x08, 0x00]);
    }
    if len >= 15 && rng.below(8) != 0 {
        let ihl = if rng.below(2) == 0 {
            5
        } else {
            5 + rng.below(11)
        };
        bytes[14] = 0x40 | ihl as u8;
    }
    if len >= 18 && rng.below(4) != 0 {
        bytes[16..18].copy_from_slice(&((len - 14) as u16).to_be_bytes());
    }
    if len >= 34 && rng.below(2) == 0 {
        bytes[30] = 10;
    }
    if len >= 14 && rng.below(4) != 0 {
        Ipv4Header::rewrite_checksum(&mut bytes[14..]);
    }
    bytes
}

/// FNV-1a, 64-bit.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The canonical text of one run: everything a `ModelRun` reports.
fn describe(run: &ModelRun) -> String {
    let disposition = match &run.disposition {
        Disposition::Exited { at, port, packet } => {
            format!("exit {at} {port} {:02x?}", packet.bytes())
        }
        Disposition::Dropped { at } => format!("drop {at}"),
        Disposition::Crashed { at, reason } => format!("crash {at} {reason:?}"),
    };
    format!("{disposition} {:?} {}\n", run.hops, run.instructions)
}

/// What a stream pins: crashes, total instructions, and the digest of
/// every run.
type Pin = (usize, u64, u64);

/// Push the stream through one runtime.
fn digest(pipeline: &Pipeline) -> Pin {
    let mut runtime = ModelRuntime::new(pipeline);
    let mut rng = Rng(0x5eed_0045);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let (mut crashes, mut instructions) = (0, 0);
    for _ in 0..PACKETS {
        let run = runtime.push(Packet::from_bytes(hostile_packet(&mut rng)));
        crashes += matches!(run.disposition, Disposition::Crashed { .. }) as usize;
        instructions += run.instructions;
        fnv(&mut hash, describe(&run).as_bytes());
    }
    (crashes, instructions, hash)
}

#[test]
fn every_preset_runs_a_hostile_stream_exactly_as_pinned() {
    let mut wrong = Vec::new();
    let mut check = |name: &str, pipeline: Pipeline, pinned: Pin| {
        let got = digest(&pipeline);
        if got != pinned {
            wrong.push(format!("{name}: got {got:?}, pinned {pinned:?}"));
        }
    };
    let ip_router = (0, 1_125_259, 4395915419508740872);
    check("ip_router", ip_router_pipeline(), ip_router);
    let linear_router = (0, 1_125_259, 17804817581994651675);
    check("linear_router", linear_router_pipeline(), linear_router);
    let middlebox = (0, 1_319_263, 9523337065107803564);
    check("middlebox", middlebox_pipeline(), middlebox);
    let firewall = (0, 1_191_415, 5289808133882012204);
    check("firewall", firewall_pipeline(vec![]), firewall);
    let buggy = (1169, 471_661, 18217190692054866510);
    check("buggy", buggy_pipeline(), buggy);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
