//! # dataplane-net — packet substrate for the verifiable software dataplane
//!
//! This crate provides everything the dataplane framework and its element
//! library need to handle real packets: byte buffers with metadata, codecs
//! for Ethernet II, IPv4 (including options), UDP, TCP, and ICMP, the
//! Internet checksum, flow (5-tuple) extraction, a packet builder, and a
//! deterministic synthetic workload generator.
//!
//! In the paper the workload comes from a hardware testbed; here the
//! [`workload`] module produces the equivalent packet classes in software,
//! seeded so every run sees the same packets.
//!
//! ## Example
//!
//! ```
//! use dataplane_net::pktbuild::PacketBuilder;
//! use dataplane_net::flow::extract_five_tuple;
//! use std::net::Ipv4Addr;
//!
//! let pkt = PacketBuilder::udp(
//!     Ipv4Addr::new(10, 0, 0, 1),
//!     Ipv4Addr::new(192, 168, 0, 1),
//!     5000,
//!     53,
//!     b"payload",
//! )
//! .build();
//! let flow = extract_five_tuple(&pkt).unwrap();
//! assert_eq!(flow.dst_port, 53);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod packet;
pub mod pktbuild;
pub mod transport;
pub mod workload;

pub use ethernet::{EthernetHeader, MacAddr, ETHERNET_HEADER_LEN, ETHERTYPE_IPV4};
pub use flow::{extract_five_tuple, FiveTuple};
pub use ipv4::{Ipv4Error, Ipv4Header, IPV4_MIN_HEADER_LEN, PROTO_ICMP, PROTO_TCP, PROTO_UDP};
pub use packet::{Packet, PacketMeta};
pub use pktbuild::PacketBuilder;
pub use transport::{IcmpHeader, TcpHeader, UdpHeader};
pub use workload::{PacketClass, WorkloadConfig, WorkloadGen, WorkloadMix, DEFAULT_SEED};
