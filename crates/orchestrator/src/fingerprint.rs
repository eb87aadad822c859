//! Content-addressed identities for element summaries.
//!
//! A summary is fully determined by the element's verification-relevant
//! behaviour (its IR model, configuration, and initial table contents — the
//! [`dataplane_pipeline::Element::fingerprint_material`] text) plus the
//! engine configuration it was explored under. Hashing that material gives a
//! stable 128-bit key: equal keys mean the cached summary can be reused,
//! changed element code or configuration changes the key and forces a fresh
//! exploration — which is exactly what makes incremental re-verification
//! sound.

use crate::codec::Spelled;
use dataplane_pipeline::Element;
use dataplane_symbex::EngineConfig;
use std::fmt;

/// A 128-bit content hash (two independent 64-bit FNV-1a streams).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({self})")
    }
}

impl Fingerprint {
    /// Parse the hex form produced by `Display` — exactly 32 lowercase hex
    /// digits, nothing else (used to map persisted cache file names back to
    /// keys, and on every fingerprint a peer sends).
    pub fn parse(text: &str) -> Option<Fingerprint> {
        let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
        if text.len() != 32 || !text.bytes().all(lower_hex) {
            return None;
        }
        let hi = u64::from_str_radix(&text[..16], 16).ok()?;
        let lo = u64::from_str_radix(&text[16..], 16).ok()?;
        Some(Fingerprint(hi, lo))
    }
}

const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(bytes: impl Iterator<Item = u8> + Clone, basis: u64) -> u64 {
    let mut hash = basis;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hash arbitrary material into a fingerprint.
pub fn fingerprint_bytes(material: &str) -> Fingerprint {
    // Two streams with different bases; a collision must defeat both.
    Fingerprint(
        fnv1a(material.bytes(), 0xcbf2_9ce4_8422_2325),
        fnv1a(material.bytes(), 0x6c62_272e_07bb_0142),
    )
}

/// Canonical text for an engine configuration (part of the summary
/// identity: the same element explored under a different loop mode or budget
/// may produce different segments).
pub fn engine_key(config: &EngineConfig) -> String {
    format!(
        "segments={};branches={};loops={}",
        config.max_segments,
        config.max_branches,
        config.loop_mode.spelling()
    )
}

/// The content-addressed identity of `element`'s summary under `config`.
pub fn element_fingerprint(element: &dyn Element, config: &EngineConfig) -> Fingerprint {
    let material = format!(
        "{}\u{1e}{}",
        element.fingerprint_material(),
        engine_key(config)
    );
    fingerprint_bytes(&material)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_pipeline::elements::{DecTTL, IPLookup, Route};
    use std::net::Ipv4Addr;

    #[test]
    fn display_and_parse_round_trip() {
        let fp = fingerprint_bytes("hello");
        let text = fp.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(Fingerprint::parse(&text), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse(&"0".repeat(31)), None);
        // 32 bytes, but `é` straddles the midpoint: rejected, not a panic.
        let straddling = format!("{}\u{e9}{}", "a".repeat(15), "a".repeat(15));
        assert_eq!(straddling.len(), 32);
        assert_eq!(Fingerprint::parse(&straddling), None);
        // Signs and upper case are not what `Display` writes.
        assert_eq!(Fingerprint::parse("+000000000000001+000000000000001"), None);
        assert_eq!(Fingerprint::parse(&text.to_uppercase()), None);
    }

    #[test]
    fn equal_material_equal_hash() {
        assert_eq!(fingerprint_bytes("abc"), fingerprint_bytes("abc"));
        assert_ne!(fingerprint_bytes("abc"), fingerprint_bytes("abd"));
        assert_ne!(fingerprint_bytes(""), fingerprint_bytes("\u{0}"));
    }

    #[test]
    fn elements_hash_by_behaviour() {
        let config = EngineConfig::decomposed();
        // Same type and configuration: same fingerprint.
        assert_eq!(
            element_fingerprint(&DecTTL::new(), &config),
            element_fingerprint(&DecTTL::new(), &config)
        );
        // Different element type: different fingerprint.
        assert_ne!(
            element_fingerprint(&DecTTL::new(), &config),
            element_fingerprint(&IPLookup::two_port_default(), &config)
        );
        // Same type, different configuration: different fingerprint.
        assert_ne!(
            element_fingerprint(&IPLookup::two_port_default(), &config),
            element_fingerprint(
                &IPLookup::new(vec![Route::new(Ipv4Addr::new(10, 0, 0, 0), 8, 0)]),
                &config
            )
        );
        // Same element, different engine configuration: different fingerprint.
        assert_ne!(
            element_fingerprint(&DecTTL::new(), &EngineConfig::decomposed()),
            element_fingerprint(&DecTTL::new(), &EngineConfig::monolithic(10, 10))
        );
    }
}
