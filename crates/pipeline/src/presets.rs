//! Pre-built pipelines used across the test suite, the examples, and the
//! benchmark harness — most importantly the reference IP router whose
//! verification the paper reports on.

use crate::element::Element;
use crate::elements::*;
use crate::pipeline::{Pipeline, PipelineBuilder};
use std::net::Ipv4Addr;

/// The Click-style configuration text for the reference IP router (also
/// exercised by the config-language tests and the examples).
pub const IP_ROUTER_CONFIG: &str = r#"
    // Reference IP router (paper: Classifier, EthDecap/EthEncap,
    // CheckIPHeader, IPLookup, DecTTL, IPOptions).
    cls   :: Classifier(12/0800);
    strip :: EthDecap();
    chk   :: CheckIPHeader();
    opts  :: IPOptions(10.255.255.254);
    rt    :: IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1);
    ttl0  :: DecTTL();
    ttl1  :: DecTTL();
    enc0  :: EthEncap();
    enc1  :: EthEncap();
    out0  :: Sink();
    out1  :: Sink();

    cls[0] -> strip -> chk -> opts -> rt;
    rt[0] -> ttl0 -> enc0 -> out0;
    rt[1] -> ttl1 -> enc1 -> out1;
"#;

/// Build the reference IP-router pipeline programmatically (equivalent to
/// [`IP_ROUTER_CONFIG`]).
pub fn ip_router_pipeline() -> Pipeline {
    let mut b = Pipeline::builder();
    let cls = b.add("cls", Box::new(Classifier::ipv4_only()));
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let chk = b.add("chk", Box::new(CheckIPHeader::new()));
    let opts = b.add(
        "opts",
        Box::new(IPOptions::new(Ipv4Addr::new(10, 255, 255, 254))),
    );
    let rt = b.add("rt", Box::new(IPLookup::two_port_default()));
    let ttl0 = b.add("ttl0", Box::new(DecTTL::new()));
    let ttl1 = b.add("ttl1", Box::new(DecTTL::new()));
    let enc0 = b.add("enc0", Box::new(EthEncap::ipv4_default()));
    let enc1 = b.add("enc1", Box::new(EthEncap::ipv4_default()));
    let out0 = b.add("out0", Box::new(Sink::new()));
    let out1 = b.add("out1", Box::new(Sink::new()));
    b.chain(&[cls, strip, chk, opts, rt]);
    b.connect(rt, 0, ttl0)
        .connect(ttl0, 0, enc0)
        .connect(enc0, 0, out0)
        .connect(rt, 1, ttl1)
        .connect(ttl1, 0, enc1)
        .connect(enc1, 0, out1);
    b.build().expect("reference router is a valid pipeline")
}

/// The paper's "longest pipeline": the full set of router elements arranged
/// as a single linear chain (no branching), convenient for the scaling
/// experiments where verification cost is measured against pipeline length.
pub fn linear_router_pipeline() -> Pipeline {
    let elements = router_element_chain();
    linear_pipeline(elements)
}

/// The ordered element chain of the linear router — one instance of every
/// element type the paper's evaluation uses, in processing order.
pub fn router_element_chain() -> Vec<(&'static str, Box<dyn Element>)> {
    vec![
        ("cls", Box::new(Classifier::ipv4_only()) as Box<dyn Element>),
        ("strip", Box::new(EthDecap::new())),
        ("chk", Box::new(CheckIPHeader::new())),
        (
            "opts",
            Box::new(IPOptions::new(Ipv4Addr::new(10, 255, 255, 254))),
        ),
        ("rt", Box::new(IPLookup::two_port_default())),
        ("ttl", Box::new(DecTTL::new())),
        ("enc", Box::new(EthEncap::ipv4_default())),
    ]
}

/// Build a linear pipeline from named elements, connecting port 0 of each to
/// the next and appending a final `Sink`.
pub fn linear_pipeline(elements: Vec<(&str, Box<dyn Element>)>) -> Pipeline {
    let mut b = PipelineBuilder::new();
    let mut idxs = Vec::new();
    for (name, e) in elements {
        idxs.push(b.add(name, e));
    }
    let sink = b.add("sink", Box::new(Sink::new()));
    idxs.push(sink);
    b.chain(&idxs);
    b.build().expect("linear pipeline is valid")
}

/// One router hop as it follows the classifier: [`strip`, `chk`, `opts`,
/// `rt`, `ttl`, `enc`], with `opts` answering for `address`.
pub fn router_hop(address: Ipv4Addr) -> [(&'static str, Box<dyn Element>); 6] {
    [
        ("strip", Box::new(EthDecap::new())),
        ("chk", Box::new(CheckIPHeader::new())),
        ("opts", Box::new(IPOptions::new(address))),
        ("rt", Box::new(IPLookup::two_port_default())),
        ("ttl", Box::new(DecTTL::new())),
        ("enc", Box::new(EthEncap::ipv4_default())),
    ]
}

/// The multi-hop router chain: `cls`, then `hops` [`router_hop`]s — each
/// hop's `IPOptions` with its own address, `10.255.<hop>.254` — then
/// `sink`. The first shape of the scale family: composed paths grow about
/// 3.7× per hop.
pub fn router_chain(hops: u8) -> Pipeline {
    let mut b = PipelineBuilder::new();
    let mut chain = vec![b.add("cls", Box::new(Classifier::ipv4_only()))];
    for hop in 0..hops {
        for (name, element) in router_hop(Ipv4Addr::new(10, 255, hop, 254)) {
            chain.push(b.add(format!("{name}{hop}"), element));
        }
    }
    chain.push(b.add("sink", Box::new(Sink::new())));
    b.chain(&chain);
    b.build().expect("router chain is valid")
}

/// A stateful middlebox pipeline: header check, flow accounting, NAT, then a
/// sink — the configuration the paper describes as "currently experimenting
/// with" (NetFlow-style statistics and NAT functionality).
pub fn middlebox_pipeline() -> Pipeline {
    let mut b = Pipeline::builder();
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let chk = b.add("chk", Box::new(CheckIPHeader::new()));
    let flow = b.add("flow", Box::new(NetFlow::new()));
    let nat = b.add("nat", Box::new(Nat::with_defaults()));
    let enc = b.add("enc", Box::new(EthEncap::ipv4_default()));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[strip, chk, flow, nat, enc, out]);
    b.build().expect("middlebox pipeline is valid")
}

/// A firewall-style pipeline with a source blocklist, used by the
/// reachability experiments.
pub fn firewall_pipeline(blocked: Vec<Ipv4Addr>) -> Pipeline {
    let mut b = Pipeline::builder();
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let chk = b.add("chk", Box::new(CheckIPHeader::new()));
    let filter = b.add("filter", Box::new(SrcFilter::new(blocked)));
    let rt = b.add("rt", Box::new(IPLookup::two_port_default()));
    let ttl = b.add("ttl", Box::new(DecTTL::new()));
    let enc = b.add("enc", Box::new(EthEncap::ipv4_default()));
    let out0 = b.add("out0", Box::new(Sink::new()));
    let out1 = b.add("out1", Box::new(Sink::new()));
    b.chain(&[strip, chk, filter, rt]);
    b.connect(rt, 0, ttl)
        .connect(ttl, 0, enc)
        .connect(enc, 0, out0)
        .connect(rt, 1, out1);
    b.build().expect("firewall pipeline is valid")
}

/// A pipeline with a planted bug (an unchecked IP-options walker downstream
/// of a correct classifier but **without** the protective `CheckIPHeader`),
/// used by failure-injection tests: the verifier must find the crash and
/// produce a witness packet.
pub fn buggy_pipeline() -> Pipeline {
    let mut b = Pipeline::builder();
    let cls = b.add("cls", Box::new(Classifier::ipv4_only()));
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let opts = b.add("opts", Box::new(UncheckedOptions::new()));
    let ttl = b.add("ttl", Box::new(BuggyDecTTL::new()));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[cls, strip, opts, ttl, out]);
    b.build().expect("buggy pipeline is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::parse_config;
    use dataplane_net::{PacketBuilder, WorkloadGen};

    #[test]
    fn programmatic_and_config_routers_agree_on_traffic() {
        let mut from_code = ip_router_pipeline();
        let mut from_config = parse_config(IP_ROUTER_CONFIG).unwrap();
        assert_eq!(from_code.len(), from_config.len());

        let mut gen = WorkloadGen::adversarial(42);
        for pkt in gen.batch(300) {
            let a = from_code.push(pkt.clone());
            let b = from_config.push(pkt);
            assert_eq!(a.is_crash(), b.is_crash());
            assert_eq!(a.is_forwarded(), b.is_forwarded());
            assert_eq!(a.hops.len(), b.hops.len());
        }
    }

    #[test]
    fn router_forwards_and_never_crashes_on_adversarial_traffic() {
        let mut router = ip_router_pipeline();
        let out0 = router.find("out0").unwrap();
        let out1 = router.find("out1").unwrap();
        let mut gen = WorkloadGen::adversarial(7);
        let mut delivered = 0;
        for pkt in gen.batch(500) {
            let out = router.push(pkt);
            assert!(!out.is_crash(), "router crashed: {:?}", out.disposition);
            // "Forwarded" in this pipeline means the packet reached one of
            // the sinks (the paper's setup drops packets at a sink element).
            let last = *out.hops.last().unwrap();
            if last == out0 || last == out1 {
                delivered += 1;
            }
        }
        // The clean fraction of the adversarial mix should reach a sink.
        assert!(delivered > 50, "only {delivered} packets delivered");
    }

    #[test]
    fn linear_router_has_the_full_chain() {
        let p = linear_router_pipeline();
        assert_eq!(p.len(), 8); // 7 elements + sink
        assert_eq!(p.longest_path_len(), 8);
    }

    #[test]
    fn middlebox_counts_and_translates() {
        let mut p = middlebox_pipeline();
        let pkt = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(8, 8, 8, 8),
            5555,
            53,
            b"q",
        )
        .build();
        let out = p.push(pkt);
        assert!(!out.is_crash());
        assert_eq!(out.hops.len(), 6);
    }

    #[test]
    fn firewall_blocks_and_forwards() {
        let mut p = firewall_pipeline(vec![Ipv4Addr::new(10, 0, 0, 66)]);
        let blocked = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 66),
            Ipv4Addr::new(192, 168, 0, 1),
            1,
            2,
            b"x",
        )
        .build();
        let allowed = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 65),
            Ipv4Addr::new(192, 168, 0, 1),
            1,
            2,
            b"x",
        )
        .build();
        let out = p.push(blocked);
        assert!(!out.is_forwarded());
        let out = p.push(allowed);
        assert!(!out.is_crash());
    }

    #[test]
    fn buggy_pipeline_crashes_on_crafted_packet() {
        let mut p = buggy_pipeline();
        // A frame whose IP header claims options but is truncated.
        let mut bytes = vec![0u8; 14 + 22];
        bytes[12] = 0x08; // IPv4 ethertype
        bytes[13] = 0x00;
        bytes[14] = 0x4a; // IHL 10
        bytes[34] = 7; // option kind
        bytes[35] = 30; // bogus length
        let out = p.push(dataplane_net::Packet::from_bytes(bytes));
        assert!(out.is_crash());

        // TTL-zero packet trips the division bug.
        let pkt = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 0, 1),
            1,
            2,
            b"x",
        )
        .ttl(0)
        .build();
        let out = p.push(pkt);
        assert!(out.is_crash());
    }
}
