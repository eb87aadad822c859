//! `Nat` — source network address and port translation for outbound UDP/TCP
//! traffic, the second stateful element the paper mentions ("a map in an
//! element that performs Network Address Translation").
//!
//! Translation state (flow → allocated external port, plus the next-port
//! allocator) is private state; the external address is configuration. Both
//! the native implementation and the model:
//!
//! 1. compute the same 64-bit flow key as `NetFlow`,
//! 2. allocate external ports sequentially from a base,
//! 3. rewrite the source address and source port,
//! 4. recompute the IPv4 header checksum, and
//! 5. zero the UDP checksum (legal per RFC 768) / leave TCP checksums to a
//!    downstream element (documented limitation).
//!
//! Non-TCP/UDP packets and packets too short to carry ports pass through
//! unmodified. Expects the IP header at offset 0.

use crate::element::{Action, Element};
use crate::elements::common::{self, ip_field};
use crate::elements::netflow::NetFlow;
use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::Program;
use dataplane_net::ipv4::{PROTO_TCP, PROTO_UDP};
use dataplane_net::Packet;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Maximum number of 16-bit words in an IPv4 header.
const MAX_HEADER_WORDS: u32 = 30;

/// The NAT element.
#[derive(Debug)]
pub struct Nat {
    external_ip: Ipv4Addr,
    port_base: u16,
    table: HashMap<u64, u16>,
    next_port: u16,
}

impl Nat {
    /// Create a NAT that rewrites sources to `external_ip` and allocates
    /// external ports starting at `port_base`.
    pub fn new(external_ip: Ipv4Addr, port_base: u16) -> Self {
        Nat {
            external_ip,
            port_base,
            table: HashMap::new(),
            next_port: 0,
        }
    }

    /// A default configuration used by tests and examples.
    pub fn with_defaults() -> Self {
        Nat::new(Ipv4Addr::new(203, 0, 113, 1), 20000)
    }

    /// Number of active translations.
    pub fn translation_count(&self) -> usize {
        self.table.len()
    }

    /// The external port assigned to a flow key, if any.
    pub fn translation_for(&self, key: u64) -> Option<u16> {
        self.table.get(&key).copied()
    }
}

impl Element for Nat {
    fn type_name(&self) -> &'static str {
        "Nat"
    }
    fn config_key(&self) -> String {
        format!("{}:{}", self.external_ip, self.port_base)
    }
    fn config_args(&self) -> Option<String> {
        Some(format!("{}, {}", self.external_ip, self.port_base))
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, mut packet: Packet) -> Action {
        if packet.len() < 20 {
            return Action::Emit(0, packet);
        }
        let proto = packet.get_u8(ip_field::PROTOCOL as usize).unwrap_or(0);
        let ver_ihl = packet.get_u8(0).unwrap_or(0);
        let ihl = (ver_ihl & 0x0f) as usize;
        let hl = ihl * 4;
        let translatable =
            (proto == PROTO_UDP || proto == PROTO_TCP) && ihl >= 5 && packet.len() >= hl + 4;
        if !translatable {
            return Action::Emit(0, packet);
        }
        let key = NetFlow::key_of(&packet).expect("length checked above");
        let ext_port = match self.table.get(&key) {
            Some(p) => *p,
            None => {
                let p = self.port_base.wrapping_add(self.next_port);
                self.next_port = self.next_port.wrapping_add(1);
                self.table.insert(key, p);
                p
            }
        };
        // Rewrite source address and source port.
        packet.set_u32(ip_field::SRC as usize, u32::from(self.external_ip));
        packet.set_u16(hl, ext_port);
        if proto == PROTO_UDP && packet.len() >= hl + 8 {
            // Zero the UDP checksum (permitted for IPv4 UDP).
            packet.set_u16(hl + 6, 0);
        }
        // Recompute the IP header checksum.
        if packet.len() >= hl {
            packet.set_u16(ip_field::CHECKSUM as usize, 0);
            let c = common::native_ip_checksum(packet.bytes(), ihl * 2);
            packet.set_u16(ip_field::CHECKSUM as usize, c);
        }
        Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let external = u32::from(self.external_ip) as u64;
        let mut pb = ProgramBuilder::new("Nat", 1);
        let table = pb.private_map("nat_table", 64, 16, 0);
        let allocator = pb.private_array("next_port", 1, 8, 16, 0);
        let src = pb.local("src", 32);
        let dst = pb.local("dst", 32);
        let proto = pb.local("proto", 8);
        let ihl = pb.local("ihl", 32);
        let hl = pb.local("hl", 32);
        let sport = pb.local("sport", 16);
        let dport = pb.local("dport", 16);
        let key = pb.local("key", 64);
        let ext_port = pb.local("ext_port", 16);
        let sum = pb.local("sum", 32);
        let idx = pb.local("idx", 32);

        let mut b = Block::new();
        b.if_then(
            ult(pkt_len(), c(32, 20)),
            Block::with(|bb| {
                bb.emit(0);
            }),
        );
        b.assign(proto, pkt(ip_field::PROTOCOL, 1));
        b.assign(ihl, zext(and(pkt(ip_field::VER_IHL, 1), c(8, 0x0f)), 32));
        b.assign(hl, mul(l(ihl), c(32, 4)));
        // Pass through anything we do not translate.
        b.if_then(
            bnot(band(
                band(
                    bor(
                        eq(l(proto), c(8, PROTO_UDP as u64)),
                        eq(l(proto), c(8, PROTO_TCP as u64)),
                    ),
                    uge(l(ihl), c(32, 5)),
                ),
                uge(pkt_len(), add(l(hl), c(32, 4))),
            )),
            Block::with(|bb| {
                bb.emit(0);
            }),
        );
        b.assign(src, pkt(ip_field::SRC, 4));
        b.assign(dst, pkt(ip_field::DST, 4));
        b.assign(sport, pkt_at(l(hl), 2));
        b.assign(dport, pkt_at(add(l(hl), c(32, 2)), 2));
        // Same key as NetFlow::flow_key.
        b.assign(
            key,
            xor(
                xor(
                    xor(
                        or(shl(zext(l(src), 64), c(64, 32)), zext(l(dst), 64)),
                        shl(zext(l(sport), 64), c(64, 24)),
                    ),
                    shl(zext(l(dport), 64), c(64, 8)),
                ),
                zext(l(proto), 64),
            ),
        );
        b.assign(ext_port, ds_read(table, l(key)));
        b.if_then(
            eq(l(ext_port), c(16, 0)),
            Block::with(|alloc| {
                alloc.assign(
                    ext_port,
                    add(c(16, self.port_base as u64), ds_read(allocator, c(8, 0))),
                );
                alloc.ds_write(
                    allocator,
                    c(8, 0),
                    add(ds_read(allocator, c(8, 0)), c(16, 1)),
                );
                alloc.ds_write(table, l(key), l(ext_port));
            }),
        );
        // Rewrite source address and port.
        b.pkt_store(ip_field::SRC, 4, c(32, external));
        b.pkt_store_at(l(hl), 2, l(ext_port));
        // Zero the UDP checksum when present.
        b.if_then(
            band(
                eq(l(proto), c(8, PROTO_UDP as u64)),
                uge(pkt_len(), add(l(hl), c(32, 8))),
            ),
            Block::with(|bb| {
                bb.pkt_store_at(add(l(hl), c(32, 6)), 2, c(16, 0));
            }),
        );
        // Recompute the IP header checksum.
        b.pkt_store(ip_field::CHECKSUM, 2, c(16, 0));
        common::model_ip_checksum_sum(&mut b, 0, sum, idx, mul(l(ihl), c(32, 2)), MAX_HEADER_WORDS);
        b.pkt_store(ip_field::CHECKSUM, 2, trunc(not(l(sum)), 16));
        b.emit(0);
        pb.finish(b).expect("Nat model is valid")
    }
    fn reset(&mut self) {
        self.table.clear();
        self.next_port = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{build_model_state, run_model_with_state};
    use dataplane_net::checksum;
    use dataplane_net::ethernet::ETHERNET_HEADER_LEN;
    use dataplane_net::PacketBuilder;

    fn udp_packet(src: Ipv4Addr, sport: u16) -> Packet {
        let frame = PacketBuilder::udp(src, Ipv4Addr::new(8, 8, 8, 8), sport, 53, b"q").build();
        Packet::from_bytes(frame.bytes()[ETHERNET_HEADER_LEN..].to_vec())
    }

    #[test]
    fn rewrites_source_and_allocates_sequential_ports() {
        let mut nat = Nat::new(Ipv4Addr::new(203, 0, 113, 9), 40000);
        let out1 = match nat.process(udp_packet(Ipv4Addr::new(10, 0, 0, 1), 1111)) {
            Action::Emit(0, p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            out1.get_u32(12).unwrap(),
            u32::from(Ipv4Addr::new(203, 0, 113, 9))
        );
        assert_eq!(out1.get_u16(20).unwrap(), 40000);
        assert!(checksum::verify(&out1.bytes()[..20]));

        let out2 = match nat.process(udp_packet(Ipv4Addr::new(10, 0, 0, 2), 2222)) {
            Action::Emit(0, p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(out2.get_u16(20).unwrap(), 40001);
        assert_eq!(nat.translation_count(), 2);
    }

    #[test]
    fn same_flow_reuses_translation() {
        let mut nat = Nat::with_defaults();
        let p = udp_packet(Ipv4Addr::new(10, 0, 0, 1), 5555);
        let a = nat.process(p.clone());
        let b = nat.process(p.clone());
        match (a, b) {
            (Action::Emit(0, x), Action::Emit(0, y)) => {
                assert_eq!(x.get_u16(20), y.get_u16(20));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(nat.translation_count(), 1);
        nat.reset();
        assert_eq!(nat.translation_count(), 0);
    }

    #[test]
    fn non_transport_packets_pass_unmodified() {
        let mut nat = Nat::with_defaults();
        let frame =
            PacketBuilder::icmp_echo(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(8, 8, 8, 8)).build();
        let p = Packet::from_bytes(frame.bytes()[ETHERNET_HEADER_LEN..].to_vec());
        match nat.process(p.clone()) {
            Action::Emit(0, out) => assert_eq!(out.bytes(), p.bytes()),
            other => panic!("unexpected {other:?}"),
        }
        let short = Packet::from_bytes(vec![0x45; 10]);
        match nat.process(short.clone()) {
            Action::Emit(0, out) => assert_eq!(out.bytes(), short.bytes()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn model_matches_native_across_a_flow_sequence() {
        let element = Nat::with_defaults();
        let mut native = Nat::with_defaults();
        let mut model_state = build_model_state(&element, &element.model());

        let packets: Vec<Packet> = vec![
            udp_packet(Ipv4Addr::new(10, 0, 0, 1), 1111),
            udp_packet(Ipv4Addr::new(10, 0, 0, 2), 2222),
            udp_packet(Ipv4Addr::new(10, 0, 0, 1), 1111), // repeat of flow 1
            udp_packet(Ipv4Addr::new(10, 0, 0, 3), 3333),
        ];
        for p in &packets {
            let n = native.process(p.clone());
            let (m, _) = run_model_with_state(&element, p, &mut model_state);
            match (n, m) {
                (Action::Emit(0, x), Action::Emit(0, y)) => {
                    assert_eq!(x.bytes(), y.bytes(), "rewritten packets differ");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn translated_packet_keeps_valid_ip_checksum() {
        let mut nat = Nat::with_defaults();
        for i in 0..10u8 {
            let p = udp_packet(Ipv4Addr::new(10, 0, 0, i + 1), 1000 + i as u16);
            match nat.process(p) {
                Action::Emit(0, out) => assert!(checksum::verify(&out.bytes()[..20])),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(nat.translation_for(0).is_none());
        assert!(nat.config_key().contains("203.0.113.1"));
    }
}
