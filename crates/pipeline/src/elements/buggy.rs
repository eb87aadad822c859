//! Deliberately defective elements used for **failure injection**.
//!
//! The paper's verifier exists to catch exactly these defect classes — "a
//! segmentation fault, a kernel panic, a division by 0, a failed assertion, a
//! counter overflow" — before they reach the network. The test suite and the
//! benches plant these elements into otherwise-correct pipelines and check
//! that the verifier (a) reports the violation and (b) produces a witness
//! packet that really does trigger it when replayed concretely.
//!
//! None of these elements should ever be deployed; they are test fixtures.

use crate::element::{Action, Element};
use crate::elements::common::ip_field;
use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::{CrashReason, Program};
use dataplane_net::Packet;

/// A TTL decrementer that divides by the TTL before checking it, crashing on
/// TTL = 0 (division by zero — the real-world analog is a normalisation step
/// that assumes "TTL is always positive here").
#[derive(Debug, Default)]
pub struct BuggyDecTTL;

impl BuggyDecTTL {
    /// New buggy element.
    pub fn new() -> Self {
        BuggyDecTTL
    }
}

impl Element for BuggyDecTTL {
    fn type_name(&self) -> &'static str {
        "BuggyDecTTL"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, mut packet: Packet) -> Action {
        // Shorter than the first 12 header bytes: dropped, as the model does.
        if packet.len() < 12 {
            return Action::Drop;
        }
        let ttl = packet.bytes()[ip_field::TTL as usize];
        // BUG: divides by the TTL before checking it is non-zero.
        if ttl == 0 {
            return Action::Crash(CrashReason::DivisionByZero);
        }
        let _budget = 255 / ttl;
        if ttl == 1 {
            return Action::Drop;
        }
        packet.set_u8(ip_field::TTL as usize, ttl - 1);
        Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("BuggyDecTTL", 1);
        let ttl = pb.local("ttl", 8);
        let budget = pb.local("budget", 8);
        let mut b = Block::new();
        b.if_then(
            ult(pkt_len(), c(32, 12)),
            Block::with(|bb| {
                bb.drop_packet();
            }),
        );
        b.assign(ttl, pkt(ip_field::TTL, 1));
        // BUG: the division happens before the TTL check.
        b.assign(budget, udiv(c(8, 255), l(ttl)));
        b.if_then(
            eq(l(ttl), c(8, 1)),
            Block::with(|bb| {
                bb.drop_packet();
            }),
        );
        b.pkt_store(ip_field::TTL, 1, sub(l(ttl), c(8, 1)));
        b.emit(0);
        pb.finish(b).expect("BuggyDecTTL model is valid")
    }
}

/// An IP-options walker that trusts the option length byte without checking
/// it stays inside the header, so a crafted packet makes it read (and write)
/// past the end of the buffer — the segmentation-fault class.
#[derive(Debug, Default)]
pub struct UncheckedOptions;

impl UncheckedOptions {
    /// New buggy element.
    pub fn new() -> Self {
        UncheckedOptions
    }
}

impl Element for UncheckedOptions {
    fn type_name(&self) -> &'static str {
        "UncheckedOptions"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, packet: Packet) -> Action {
        let bytes = packet.bytes();
        let Some(ver_ihl) = bytes.first().copied() else {
            return Action::Drop;
        };
        let ihl = (ver_ihl & 0x0f) as usize;
        if ihl <= 5 {
            return Action::Emit(0, packet);
        }
        let hl = ihl * 4;
        let mut i = 20usize;
        let mut iters = 0;
        while i < hl {
            iters += 1;
            if iters > 40 {
                return Action::Crash(CrashReason::LoopBoundExceeded { max_iters: 40 });
            }
            let Some(kind) = bytes.get(i).copied() else {
                return Action::Crash(CrashReason::PacketOutOfBounds {
                    offset: i as u64,
                    width_bytes: 1,
                    packet_len: bytes.len() as u64,
                });
            };
            if kind == 0 {
                break;
            }
            if kind == 1 {
                i += 1;
                continue;
            }
            // BUG: reads the length byte without checking i+1 < hl and never
            // validates the length itself.
            let Some(optlen) = bytes.get(i + 1).copied() else {
                return Action::Crash(CrashReason::PacketOutOfBounds {
                    offset: (i + 1) as u64,
                    width_bytes: 1,
                    packet_len: bytes.len() as u64,
                });
            };
            if optlen == 0 {
                // BUG: a zero length loops forever; the bounded model crashes
                // on the loop bound instead.
                return Action::Crash(CrashReason::LoopBoundExceeded { max_iters: 40 });
            }
            i += optlen as usize;
        }
        Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("UncheckedOptions", 1);
        let ihl = pb.local("ihl", 32);
        let hl = pb.local("hl", 32);
        let i = pb.local("i", 32);
        let kind = pb.local("kind", 8);
        let optlen = pb.local("optlen", 32);
        let mut b = Block::new();
        b.if_then(
            ult(pkt_len(), c(32, 1)),
            Block::with(|bb| {
                bb.drop_packet();
            }),
        );
        b.assign(ihl, zext(and(pkt(ip_field::VER_IHL, 1), c(8, 0x0f)), 32));
        b.if_then(
            ule(l(ihl), c(32, 5)),
            Block::with(|bb| {
                bb.emit(0);
            }),
        );
        b.assign(hl, mul(l(ihl), c(32, 4)));
        b.assign(i, c(32, 20));
        b.loop_bounded(
            40,
            ult(l(i), l(hl)),
            Block::with(|lb| {
                lb.assign(kind, pkt_at(l(i), 1));
                lb.if_else(
                    eq(l(kind), c(8, 0)),
                    Block::with(|eol| {
                        eol.assign(i, l(hl));
                    }),
                    Block::with(|not_eol| {
                        not_eol.if_else(
                            eq(l(kind), c(8, 1)),
                            Block::with(|nop| {
                                nop.assign(i, add(l(i), c(32, 1)));
                            }),
                            Block::with(|multi| {
                                // BUG: no bounds or sanity checks at all.
                                multi.assign(optlen, zext(pkt_at(add(l(i), c(32, 1)), 1), 32));
                                multi.assign(i, add(l(i), l(optlen)));
                            }),
                        );
                    }),
                );
            }),
        );
        b.emit(0);
        pb.finish(b).expect("UncheckedOptions model is valid")
    }
}

/// A classifier that peeks at byte 60 of the packet without checking the
/// packet is that long — crashes on every short frame.
#[derive(Debug, Default)]
pub struct BrokenClassifier;

impl BrokenClassifier {
    /// New buggy element.
    pub fn new() -> Self {
        BrokenClassifier
    }
}

impl Element for BrokenClassifier {
    fn type_name(&self) -> &'static str {
        "BrokenClassifier"
    }
    fn output_ports(&self) -> usize {
        2
    }
    fn process(&mut self, packet: Packet) -> Action {
        // BUG: unconditional deep read.
        match packet.get_u16(60) {
            Some(0xBEEF) => Action::Emit(1, packet),
            Some(_) => Action::Emit(0, packet),
            None => Action::Crash(CrashReason::PacketOutOfBounds {
                offset: 60,
                width_bytes: 2,
                packet_len: packet.len() as u64,
            }),
        }
    }
    fn model(&self) -> Program {
        let pb = ProgramBuilder::new("BrokenClassifier", 2);
        let mut b = Block::new();
        b.if_else(
            eq(pkt(60, 2), c(16, 0xBEEF)),
            Block::with(|bb| {
                bb.emit(1);
            }),
            Block::with(|bb| {
                bb.emit(0);
            }),
        );
        pb.finish(b).expect("BrokenClassifier model is valid")
    }
}

/// A flow counter whose per-flow counter is only 8 bits wide and asserts it
/// never wraps — the "counter overflow" defect class from the paper. The
/// 257th packet of a flow fails the assertion.
#[derive(Debug, Default)]
pub struct OverflowingCounter {
    counts: std::collections::HashMap<u64, u64>,
}

impl OverflowingCounter {
    /// New buggy element.
    pub fn new() -> Self {
        OverflowingCounter::default()
    }
}

impl Element for OverflowingCounter {
    fn type_name(&self) -> &'static str {
        "OverflowingCounter"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, packet: Packet) -> Action {
        let Some(src) = packet.get_u32(ip_field::SRC as usize) else {
            return Action::Drop;
        };
        let count = self.counts.entry(src as u64).or_insert(0);
        if *count >= 255 {
            return Action::Crash(CrashReason::AssertionFailed {
                message: "per-flow counter overflow".to_string(),
            });
        }
        *count += 1;
        Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("OverflowingCounter", 1);
        let counts = pb.private_map("counts", 64, 8, 0);
        let src = pb.local("src", 32);
        let count = pb.local("count", 8);
        let mut b = Block::new();
        b.if_then(
            ult(pkt_len(), c(32, 16)),
            Block::with(|bb| {
                bb.drop_packet();
            }),
        );
        b.assign(src, pkt(ip_field::SRC, 4));
        b.assign(count, ds_read(counts, zext(l(src), 64)));
        b.assert(ult(l(count), c(8, 255)), "per-flow counter overflow");
        b.ds_write(counts, zext(l(src), 64), add(l(count), c(8, 1)));
        b.emit(0);
        pb.finish(b).expect("OverflowingCounter model is valid")
    }
    fn reset(&mut self) {
        self.counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::run_model;
    use dataplane_net::ethernet::ETHERNET_HEADER_LEN;
    use dataplane_net::PacketBuilder;
    use std::net::Ipv4Addr;

    fn ip_packet(ttl: u8) -> Packet {
        let frame = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 0, 1),
            1,
            2,
            b"x",
        )
        .ttl(ttl)
        .build();
        Packet::from_bytes(frame.bytes()[ETHERNET_HEADER_LEN..].to_vec())
    }

    #[test]
    fn buggy_dec_ttl_crashes_only_on_zero_ttl() {
        let mut e = BuggyDecTTL::new();
        assert!(e.process(ip_packet(0)).is_crash());
        assert_eq!(e.process(ip_packet(1)), Action::Drop);
        assert_eq!(e.process(ip_packet(64)).port(), Some(0));
        // Model agrees.
        let model_el = BuggyDecTTL::new();
        for ttl in [0u8, 1, 5] {
            let (m, _) = run_model(&model_el, &ip_packet(ttl));
            let mut n = BuggyDecTTL::new();
            let native = n.process(ip_packet(ttl));
            assert_eq!(m.is_crash(), native.is_crash(), "ttl {ttl}");
            assert_eq!(m.port(), native.port(), "ttl {ttl}");
        }
    }

    #[test]
    fn unchecked_options_crashes_on_crafted_header() {
        let mut e = UncheckedOptions::new();
        // Claims a 40-byte header but the buffer is only 22 bytes.
        let mut bytes = vec![0u8; 22];
        bytes[0] = 0x4a;
        bytes[20] = 7; // a multi-byte option kind
        bytes[21] = 4; // next option sits past the end of the buffer
        assert!(e.process(Packet::from_bytes(bytes.clone())).is_crash());
        let (m, _) = run_model(&UncheckedOptions::new(), &Packet::from_bytes(bytes));
        assert!(m.is_crash());
        // Well-formed packets still pass.
        assert_eq!(e.process(ip_packet(64)).port(), Some(0));
    }

    #[test]
    fn unchecked_options_zero_length_loops() {
        let mut e = UncheckedOptions::new();
        let frame = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 0, 1),
            1,
            2,
            b"x",
        )
        .ip_options(&[7, 0, 0, 0])
        .build();
        let p = Packet::from_bytes(frame.bytes()[ETHERNET_HEADER_LEN..].to_vec());
        assert!(e.process(p.clone()).is_crash());
        let (m, _) = run_model(&UncheckedOptions::new(), &p);
        assert!(m.is_crash());
    }

    #[test]
    fn broken_classifier_crashes_on_short_frames() {
        let mut e = BrokenClassifier::new();
        assert!(e.process(Packet::from_bytes(vec![0u8; 40])).is_crash());
        assert_eq!(e.process(Packet::from_bytes(vec![0u8; 64])).port(), Some(0));
        let mut tagged = vec![0u8; 64];
        tagged[60] = 0xBE;
        tagged[61] = 0xEF;
        assert_eq!(e.process(Packet::from_bytes(tagged)).port(), Some(1));
        // Model agrees on both dispositions.
        for len in [10usize, 64] {
            let p = Packet::from_bytes(vec![0u8; len]);
            let (m, _) = run_model(&BrokenClassifier::new(), &p);
            let mut n = BrokenClassifier::new();
            assert_eq!(m.is_crash(), n.process(p).is_crash(), "len {len}");
        }
    }

    #[test]
    fn overflowing_counter_crashes_on_the_256th_packet() {
        let mut e = OverflowingCounter::new();
        let p = ip_packet(64);
        for i in 0..255 {
            assert_eq!(e.process(p.clone()).port(), Some(0), "packet {i}");
        }
        assert!(e.process(p.clone()).is_crash());
        e.reset();
        assert_eq!(e.process(p).port(), Some(0));
    }
}
