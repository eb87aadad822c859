//! The known answers: which verdict each preset family must get for each
//! property class. Written by hand from what the pipelines *are* — never
//! derived from the verifier — so that a verifier change that flips a
//! verdict fails the benchmark instead of redefining it.

/// The verdict a scenario must reach. `Unknown` is never expected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    Proven,
    Violated,
}

/// The property classes, in the order the preset table instantiates them.
pub const CLASSES: [&str; 4] = [
    "crash-freedom",
    "bounded-instructions",
    "reachability",
    "temporal",
];

use Expected::{Proven as P, Violated as V};

/// Family × property class, columns in [`CLASSES`] order.
///
/// * The two routers and the middlebox guard every header access behind
///   `CheckIPHeader`, deliver the probed destination, and always reach a
///   disposition: all four hold.
/// * The firewall is as safe, but its bundled temporal spec `G !dropped`
///   is planted to fail — `chk` does drop malformed frames.
/// * `buggy` walks IP options with no header check and divides by the TTL:
///   it crashes, so crash freedom, the instruction bound (a crash is not a
///   bounded completion), reachability (the probed packet may crash
///   instead of arriving) and termination `F (forwarded | dropped)` all
///   fail.
pub const TABLE: [(&str, [Expected; 4]); 5] = [
    ("ip_router", [P, P, P, P]),
    ("linear_router", [P, P, P, P]),
    ("middlebox", [P, P, P, P]),
    ("firewall", [P, P, P, V]),
    ("buggy", [V, V, V, V]),
];

/// The class of a property from the name reports print for it.
pub fn class_of(property_name: &str) -> Option<usize> {
    CLASSES
        .iter()
        .position(|class| property_name.starts_with(class))
}

/// The expected verdict of `family` under the property named
/// `property_name` (`None`: not a row or column of the table).
pub fn expected(family: &str, property_name: &str) -> Option<Expected> {
    let (_, row) = TABLE.iter().find(|(name, _)| *name == family)?;
    Some(row[class_of(property_name)?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_has_fifteen_proofs_and_five_violations() {
        let verdicts = TABLE.iter().flat_map(|(_, row)| row.iter());
        assert_eq!(verdicts.clone().filter(|v| **v == P).count(), 15);
        assert_eq!(verdicts.filter(|v| **v == V).count(), 5);
    }

    #[test]
    fn report_property_names_map_to_classes() {
        assert_eq!(expected("buggy", "crash-freedom"), Some(V));
        assert_eq!(
            expected("firewall", "bounded-instructions(<= 1000000)"),
            Some(P)
        );
        assert_eq!(expected("firewall", "temporal(G !dropped)"), Some(V));
        assert_eq!(expected("middlebox", "reachability(dst 8.8.8.8)"), Some(P));
        assert_eq!(expected("middlebox", "liveness"), None);
        assert_eq!(expected("switch", "crash-freedom"), None);
    }
}
