//! `NetFlow` — per-flow packet counting, the canonical *stateful* element the
//! paper uses to motivate the data-structure abstraction ("a hash table for
//! per-flow statistics").
//!
//! The flow table is **private state**: owned by this element, mutated on
//! every packet, never shared. Both the native implementation and the model
//! key the table by the same 64-bit fold of the 5-tuple so that their
//! collision behaviour is identical.
//!
//! Expects the IP header at offset 0.

use crate::element::{Action, Element};
use crate::elements::common::ip_field;
use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::Program;
use dataplane_net::ipv4::{PROTO_TCP, PROTO_UDP};
use dataplane_net::Packet;
use std::collections::HashMap;

/// The NetFlow element.
#[derive(Debug, Default)]
pub struct NetFlow {
    flows: HashMap<u64, u64>,
    total: u64,
}

impl NetFlow {
    /// New flow counter.
    pub fn new() -> Self {
        NetFlow::default()
    }

    /// Number of distinct flow keys observed.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Total packets counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Packets counted for one flow key.
    pub fn count_for(&self, key: u64) -> u64 {
        self.flows.get(&key).copied().unwrap_or(0)
    }

    /// The 64-bit flow key: `(src_ip, dst_ip)` in the high/low words XORed
    /// with the ports and protocol. The model computes exactly this.
    pub fn flow_key(src: u32, dst: u32, sport: u16, dport: u16, proto: u8) -> u64 {
        let base = ((src as u64) << 32) | dst as u64;
        base ^ ((sport as u64) << 24) ^ ((dport as u64) << 8) ^ proto as u64
    }

    /// Extract the key fields from a packet the same way the model does.
    /// Ports are read only when the protocol is TCP/UDP and the packet is
    /// long enough; otherwise they are zero.
    pub fn key_of(packet: &Packet) -> Option<u64> {
        let src = packet.get_u32(ip_field::SRC as usize)?;
        let dst = packet.get_u32(ip_field::DST as usize)?;
        let proto = packet.get_u8(ip_field::PROTOCOL as usize)?;
        let ver_ihl = packet.get_u8(0)?;
        let hl = ((ver_ihl & 0x0f) as usize) * 4;
        let (sport, dport) = if (proto == PROTO_UDP || proto == PROTO_TCP) && packet.len() >= hl + 4
        {
            (
                packet.get_u16(hl).unwrap_or(0),
                packet.get_u16(hl + 2).unwrap_or(0),
            )
        } else {
            (0, 0)
        };
        Some(Self::flow_key(src, dst, sport, dport, proto))
    }
}

impl Element for NetFlow {
    fn type_name(&self) -> &'static str {
        "NetFlow"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, packet: Packet) -> Action {
        if packet.len() < 20 {
            // Not an IP header we can account; pass through uncounted.
            return Action::Emit(0, packet);
        }
        if let Some(key) = Self::key_of(&packet) {
            *self.flows.entry(key).or_insert(0) += 1;
            self.total += 1;
        }
        Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("NetFlow", 1);
        let flows = pb.private_map("flows", 64, 64, 0);
        let src = pb.local("src", 32);
        let dst = pb.local("dst", 32);
        let proto = pb.local("proto", 8);
        let hl = pb.local("hl", 32);
        let sport = pb.local("sport", 16);
        let dport = pb.local("dport", 16);
        let key = pb.local("key", 64);

        let mut b = Block::new();
        b.if_then(
            ult(pkt_len(), c(32, 20)),
            Block::with(|bb| {
                bb.emit(0);
            }),
        );
        b.assign(src, pkt(ip_field::SRC, 4));
        b.assign(dst, pkt(ip_field::DST, 4));
        b.assign(proto, pkt(ip_field::PROTOCOL, 1));
        b.assign(
            hl,
            mul(
                zext(and(pkt(ip_field::VER_IHL, 1), c(8, 0x0f)), 32),
                c(32, 4),
            ),
        );
        b.assign(sport, c(16, 0));
        b.assign(dport, c(16, 0));
        b.if_then(
            band(
                bor(
                    eq(l(proto), c(8, PROTO_UDP as u64)),
                    eq(l(proto), c(8, PROTO_TCP as u64)),
                ),
                uge(pkt_len(), add(l(hl), c(32, 4))),
            ),
            Block::with(|bb| {
                bb.assign(sport, pkt_at(l(hl), 2));
                bb.assign(dport, pkt_at(add(l(hl), c(32, 2)), 2));
            }),
        );
        // key = (src << 32 | dst) ^ (sport << 24) ^ (dport << 8) ^ proto
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
        b.ds_write(flows, l(key), add(ds_read(flows, l(key)), c(64, 1)));
        b.emit(0);
        pb.finish(b).expect("NetFlow model is valid")
    }
    fn reset(&mut self) {
        self.flows.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{build_model_state, run_model, run_model_with_state};
    use dataplane_ir::DsId;
    use dataplane_net::ethernet::ETHERNET_HEADER_LEN;
    use dataplane_net::PacketBuilder;
    use std::net::Ipv4Addr;

    fn udp_packet(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> Packet {
        let frame = PacketBuilder::udp(src, dst, sport, dport, b"data").build();
        Packet::from_bytes(frame.bytes()[ETHERNET_HEADER_LEN..].to_vec())
    }

    #[test]
    fn counts_packets_per_flow() {
        let mut e = NetFlow::new();
        let a = udp_packet(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 1, 2);
        let b = udp_packet(Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 0, 0, 4), 5, 6);
        e.process(a.clone());
        e.process(a.clone());
        e.process(b.clone());
        assert_eq!(e.flow_count(), 2);
        assert_eq!(e.total(), 3);
        let key_a = NetFlow::key_of(&a).unwrap();
        let key_b = NetFlow::key_of(&b).unwrap();
        assert_eq!(e.count_for(key_a), 2);
        assert_eq!(e.count_for(key_b), 1);
        assert_eq!(e.count_for(12345), 0);
        e.reset();
        assert_eq!(e.flow_count(), 0);
        assert_eq!(e.total(), 0);
    }

    #[test]
    fn flow_key_distinguishes_directions_and_ports() {
        let k1 = NetFlow::flow_key(1, 2, 10, 20, 17);
        let k2 = NetFlow::flow_key(2, 1, 20, 10, 17);
        let k3 = NetFlow::flow_key(1, 2, 10, 21, 17);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn short_and_non_transport_packets_pass_through() {
        let mut e = NetFlow::new();
        assert_eq!(
            e.process(Packet::from_bytes(vec![0x45; 10])).port(),
            Some(0)
        );
        let frame =
            PacketBuilder::icmp_echo(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2)).build();
        let icmp = Packet::from_bytes(frame.bytes()[ETHERNET_HEADER_LEN..].to_vec());
        assert_eq!(e.process(icmp).port(), Some(0));
        assert_eq!(e.total(), 1); // ICMP counted (ports zero), short packet not
    }

    #[test]
    fn model_counts_like_native_across_a_stream() {
        let e = NetFlow::new();
        let mut native = NetFlow::new();
        let mut model_state = build_model_state(&e, &e.model());

        let packets: Vec<Packet> = (0..20)
            .map(|i| {
                udp_packet(
                    Ipv4Addr::new(10, 0, 0, (i % 3) as u8 + 1),
                    Ipv4Addr::new(192, 168, 0, 1),
                    1000 + (i % 3) as u16,
                    53,
                )
            })
            .collect();

        for p in &packets {
            let n = native.process(p.clone());
            let (m, _) = run_model_with_state(&e, p, &mut model_state);
            assert_eq!(n.port(), m.port());
        }
        // The model's flow map and the native map agree on every key.
        let store = model_state.store(DsId(0)).unwrap();
        assert_eq!(store.populated_entries(), native.flow_count());
        for (key, count) in store.iter_populated() {
            assert_eq!(native.count_for(key), count);
        }
    }

    #[test]
    fn single_packet_model_matches_native_disposition() {
        let e = NetFlow::new();
        let p = udp_packet(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2), 9, 9);
        let (m, instructions) = run_model(&e, &p);
        assert_eq!(m.port(), Some(0));
        assert!(instructions > 10);
    }
}
