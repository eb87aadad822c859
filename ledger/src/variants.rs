//! Seeded inputs: verdict-preserving variants of the five preset families,
//! and the watch edit script.
//!
//! The seed picks *values*, never structure: the extra `/24` routes of an
//! `IPLookup` (two per family that has one), the `IPOptions` router
//! address, and the `Nat` public address and port base. Element
//! fingerprints therefore differ between variants, while every variant
//! has its family's element graph, its family's cost, and its family's
//! row of the verdict table ([`crate::expected::TABLE`]).
//!
//! `buggy` has no element that takes a value, so it has one variant: its
//! preset. (Matching extra destination-MAC words in its classifier was
//! tried; the solver's model search then ends `Unknown` on the temporal
//! property, which breaks the table.)

use std::net::Ipv4Addr;
use vericlick::orchestrator::NamedConfig;

/// splitmix64: the seed-derivation mixer and the generator.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0) % bound
    }
}

/// The preset families, in the preset table's order.
pub const FAMILIES: [&str; 5] = [
    "ip_router",
    "linear_router",
    "middlebox",
    "firewall",
    "buggy",
];

/// The `(family, element)` pairs every watch tick edits. Re-verifying
/// these two families is light (no `IPOptions` walker to compose), so a
/// tick's cost is planning, diffing, fingerprinting, the store and the
/// temporal product rather than the solver. `buggy` is as light but has
/// nothing to edit.
///
/// Every tick edits *both*, and no tick reverts. A firewall tick costs
/// about 5 ms in-process and a middlebox tick about 14 ms, and through a
/// worker fleet an edit (which ships explore jobs) costs half again as
/// much as a revert (which ships none): alternating between any of these
/// would put the median op on the boundary between two modes, where it is
/// not a stable statistic. One kind of tick makes every op the same work.
pub const EDITED: [(&str, &str); 2] = [("firewall", "rt"), ("middlebox", "nat")];

/// Value codes are split in two halves: variants draw from the lower one,
/// edits from the upper one, so an edit is never a value its baseline
/// already holds.
const HALF: u32 = 1 << 31;

/// `/24` prefixes a code can name: first octet 11..=110, which keeps
/// clear of every address the presets and their reachability properties
/// mention (8.8.8.8, 10/8, 192.168/16, 203.0.113/24).
const PREFIXES: u32 = 100 << 16;

fn prefix24(code: u32) -> Ipv4Addr {
    let code = code % PREFIXES;
    Ipv4Addr::new(11 + (code >> 16) as u8, (code >> 8) as u8, code as u8, 0)
}

/// The values one variant of one family is built from. A family uses the
/// fields its elements have and ignores the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Params {
    /// `IPOptions` router address (both routers).
    pub options_addr: Ipv4Addr,
    /// Codes of the two extra `/24` routes (both routers, firewall).
    pub routes: [u32; 2],
    /// `Nat` public address code and port base (middlebox).
    pub nat: (u32, u16),
}

impl Params {
    /// The values `seed` picks for variant `variant` of `family`.
    pub fn seeded(seed: u64, family: &str, variant: u32) -> Params {
        let family_index = FAMILIES
            .iter()
            .position(|f| *f == family)
            .expect("a preset family") as u64;
        let mut rng = Rng::new(mix(seed) ^ mix(family_index << 32 | u64::from(variant)));
        let mut code = || rng.below(u64::from(HALF)) as u32;
        let options = code();
        Params {
            options_addr: Ipv4Addr::new(10, 255, (options >> 8) as u8, options as u8 | 1),
            routes: [code(), code()],
            nat: (code(), 1024 + (code() % 60_000) as u16),
        }
    }
}

/// The config text of `family` with `params`' values. Every family keeps
/// its preset's element graph and instance names (the preset properties
/// name `deliver_to` / `may_drop` instances).
pub fn family_config(family: &str, params: &Params) -> String {
    let routes = format!(
        "10.0.0.0/8 0, 192.168.0.0/16 1, {}/24 0, {}/24 1",
        prefix24(params.routes[0]),
        prefix24(params.routes[1])
    );
    match family {
        "ip_router" => format!(
            "cls :: Classifier(12/0800);\nstrip :: EthDecap();\nchk :: CheckIPHeader();\n\
             opts :: IPOptions({});\nrt :: IPLookup({routes});\n\
             ttl0 :: DecTTL();\nttl1 :: DecTTL();\nenc0 :: EthEncap();\nenc1 :: EthEncap();\n\
             out0 :: Sink();\nout1 :: Sink();\n\
             cls[0] -> strip -> chk -> opts -> rt;\n\
             rt[0] -> ttl0 -> enc0 -> out0;\nrt[1] -> ttl1 -> enc1 -> out1;\n",
            params.options_addr
        ),
        "linear_router" => format!(
            "cls :: Classifier(12/0800);\nstrip :: EthDecap();\nchk :: CheckIPHeader();\n\
             opts :: IPOptions({});\nrt :: IPLookup({routes});\n\
             ttl :: DecTTL();\nenc :: EthEncap();\nsink :: Sink();\n\
             cls[0] -> strip -> chk -> opts -> rt;\nrt[0] -> ttl -> enc -> sink;\n",
            params.options_addr
        ),
        "middlebox" => {
            let public = prefix24(params.nat.0).octets();
            format!(
                "strip :: EthDecap();\nchk :: CheckIPHeader();\nflow :: NetFlow();\n\
                 nat :: Nat({}.{}.{}.1, {});\nenc :: EthEncap();\nout :: Sink();\n\
                 strip -> chk -> flow -> nat -> enc -> out;\n",
                public[0], public[1], public[2], params.nat.1
            )
        }
        "firewall" => format!(
            "strip :: EthDecap();\nchk :: CheckIPHeader();\nfilter :: SrcFilter();\n\
             rt :: IPLookup({routes});\nttl :: DecTTL();\nenc :: EthEncap();\n\
             out0 :: Sink();\nout1 :: Sink();\n\
             strip -> chk -> filter -> rt;\nrt[0] -> ttl -> enc -> out0;\nrt[1] -> out1;\n"
        ),
        "buggy" => "cls :: Classifier(12/0800);\nstrip :: EthDecap();\n\
                    opts :: UncheckedOptions();\nttl :: BuggyDecTTL();\nout :: Sink();\n\
                    cls[0] -> strip -> opts -> ttl -> out;\n"
            .to_string(),
        other => panic!("unknown preset family '{other}'"),
    }
}

/// Variant `variant` of `family` under `seed`, as a named config (named
/// like its family, which is how the preset property table is selected).
pub fn variant(seed: u64, family: &str, variant: u32) -> NamedConfig {
    NamedConfig::new(
        family,
        family_config(family, &Params::seeded(seed, family, variant)),
    )
}

/// The seeded watch session: a baseline of one variant per family and an
/// endless script of edits to the [`EDITED`] families. The three other
/// configs ride along in every request and must diff `Identical`.
pub struct EditScript {
    base: Vec<Params>,
    /// Where in the upper half of the code space this seed's edits start.
    first_edit: u32,
}

impl EditScript {
    pub fn new(seed: u64) -> Self {
        EditScript {
            base: FAMILIES
                .iter()
                .map(|family| Params::seeded(seed, family, 0))
                .collect(),
            first_edit: (mix(seed ^ 0xED17) % u64::from(HALF)) as u32,
        }
    }

    /// The five baseline configs, in family order.
    pub fn baseline(&self) -> Vec<NamedConfig> {
        FAMILIES
            .iter()
            .zip(&self.base)
            .map(|(family, params)| NamedConfig::new(*family, family_config(family, params)))
            .collect()
    }

    /// The config set of tick `t`: the baseline with one parameter of each
    /// [`EDITED`] config set to a value no earlier tick (and no baseline)
    /// used — two explore jobs, eight scenarios recomposed.
    pub fn tick(&self, t: usize) -> Vec<NamedConfig> {
        let code = HALF + self.first_edit.wrapping_add(t as u32) % HALF;
        let mut configs = self.baseline();
        for (family, _) in EDITED {
            let index = FAMILIES
                .iter()
                .position(|f| *f == family)
                .expect("a family");
            let mut params = self.base[index].clone();
            if family == "firewall" {
                params.routes[0] = code;
            } else {
                params.nat.0 = code;
            }
            configs[index] = NamedConfig::new(family, family_config(family, &params));
        }
        configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vericlick::orchestrator::{element_fingerprint, Fingerprint};
    use vericlick::pipeline::parse_config;
    use vericlick::verifier::VerifierOptions;

    fn texts(configs: &[NamedConfig]) -> Vec<(String, String)> {
        configs
            .iter()
            .map(|c| (c.name.clone(), c.config.clone()))
            .collect()
    }

    /// Fingerprints of the elements the first `ticks` ticks introduce.
    fn edited_fingerprints(seed: u64, ticks: usize) -> BTreeSet<Fingerprint> {
        let script = EditScript::new(seed);
        let engine = VerifierOptions::default().engine;
        let mut fingerprints = BTreeSet::new();
        for t in 0..ticks {
            let configs = script.tick(t);
            for (family, element) in EDITED {
                let config = configs
                    .iter()
                    .find(|c| c.name == family)
                    .expect("edited family is in the set");
                let pipeline = parse_config(&config.config).expect("generated configs parse");
                let idx = pipeline.find(element).expect("edited element exists");
                fingerprints.insert(element_fingerprint(
                    pipeline.node(idx).element.as_ref(),
                    &engine,
                ));
            }
        }
        fingerprints
    }

    #[test]
    fn the_same_seed_gives_byte_identical_configs_and_scripts() {
        for family in FAMILIES {
            assert_eq!(variant(7, family, 3).config, variant(7, family, 3).config);
        }
        let (a, b) = (EditScript::new(7), EditScript::new(7));
        assert_eq!(texts(&a.baseline()), texts(&b.baseline()));
        for t in 0..24 {
            assert_eq!(texts(&a.tick(t)), texts(&b.tick(t)));
        }
    }

    #[test]
    fn every_generated_config_parses_and_keeps_its_presets_shape() {
        for (family, make) in vericlick::orchestrator::preset_pipelines() {
            let preset = make();
            for v in 0..4 {
                let pipeline = parse_config(&variant(11, family, v).config)
                    .unwrap_or_else(|e| panic!("{family} variant {v}: {e}"));
                assert_eq!(pipeline.len(), preset.len(), "{family}");
                for (idx, node) in preset.iter() {
                    let same = pipeline.node(idx);
                    assert_eq!(same.name, node.name, "{family}");
                    assert_eq!(
                        same.element.type_name(),
                        node.element.type_name(),
                        "{family}"
                    );
                    assert_eq!(same.successors, node.successors, "{family}");
                }
            }
        }
    }

    #[test]
    fn variants_and_seeds_differ_in_values() {
        assert_ne!(
            variant(7, "linear_router", 0).config,
            variant(7, "linear_router", 1).config
        );
        assert_ne!(
            variant(7, "linear_router", 0).config,
            variant(8, "linear_router", 0).config
        );
    }

    #[test]
    fn every_tick_sets_both_edited_configs_to_never_seen_values() {
        let script = EditScript::new(5);
        let baseline = texts(&script.baseline());
        let mut seen = BTreeSet::new();
        for t in 0..600 {
            let configs = texts(&script.tick(t));
            let changed: Vec<_> = configs
                .iter()
                .zip(&baseline)
                .filter(|(now, base)| now != base)
                .map(|(now, _)| now)
                .collect();
            let names: Vec<&str> = changed.iter().map(|c| c.0.as_str()).collect();
            assert_eq!(names, ["middlebox", "firewall"], "tick {t}");
            for config in changed {
                assert!(seen.insert(config.1.clone()), "tick {t} repeats");
            }
        }
        assert_eq!(edited_fingerprints(5, 600).len(), 1200);
    }

    #[test]
    fn two_seeds_edit_disjoint_fingerprints_with_equal_tick_counts() {
        let a = edited_fingerprints(1, 200);
        let b = edited_fingerprints(2, 200);
        assert_eq!(a.len(), b.len());
        assert!(a.is_disjoint(&b));
    }
}
