//! A Click-like textual configuration language for building pipelines.
//!
//! The grammar is a practical subset of the Click language the paper's
//! pipelines are written in:
//!
//! ```text
//! // declarations
//! cls  :: Classifier(12/0800);
//! strip:: EthDecap();
//! chk  :: CheckIPHeader();
//! rt   :: IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1);
//! ttl  :: DecTTL();
//! out  :: Sink();
//!
//! // connections ("a[port] -> [inport]b"; ports default to 0, the input
//! // port is accepted for Click compatibility and ignored)
//! cls[0] -> strip;
//! strip -> chk;
//! chk -> rt;
//! rt[0] -> ttl;
//! rt[1] -> ttl;
//! ttl -> out;
//! ```
//!
//! `//` comments and blank lines are ignored. The first declared element is
//! the pipeline entry.

use crate::element::Element;
use crate::elements::*;
use crate::pipeline::{Pipeline, PipelineError};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Errors raised while parsing a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A statement is neither a declaration nor a connection.
    Syntax {
        /// 1-based statement number.
        statement: usize,
        /// What went wrong.
        message: String,
    },
    /// An element type the factory does not know.
    UnknownType(String),
    /// Bad arguments for a known element type.
    BadArguments {
        /// Element type.
        element: String,
        /// What went wrong.
        message: String,
    },
    /// The same instance name was declared twice.
    DuplicateName(String),
    /// A connection references an undeclared instance.
    UnknownInstance(String),
    /// The finished graph is invalid (cycle, bad port, ...).
    Graph(PipelineError),
    /// The configuration declares no elements.
    Empty,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { statement, message } => {
                write!(f, "syntax error in statement {statement}: {message}")
            }
            ConfigError::UnknownType(t) => write!(f, "unknown element type '{t}'"),
            ConfigError::BadArguments { element, message } => {
                write!(f, "bad arguments for {element}: {message}")
            }
            ConfigError::DuplicateName(n) => write!(f, "duplicate instance name '{n}'"),
            ConfigError::UnknownInstance(n) => write!(f, "unknown instance '{n}'"),
            ConfigError::Graph(e) => write!(f, "invalid pipeline graph: {e}"),
            ConfigError::Empty => write!(f, "configuration declares no elements"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parse a configuration string and build the pipeline it describes.
pub fn parse_config(text: &str) -> Result<Pipeline, ConfigError> {
    // Strip comments, then split into ';'-terminated statements.
    let mut cleaned = String::new();
    for line in text.lines() {
        let line = match line.find("//") {
            Some(pos) => &line[..pos],
            None => line,
        };
        cleaned.push_str(line);
        cleaned.push('\n');
    }

    let statements: Vec<String> = cleaned
        .split(';')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();

    let mut builder = Pipeline::builder();
    let mut names: HashMap<String, usize> = HashMap::new();
    let mut connections: Vec<(String, u8, String)> = Vec::new();

    for (i, stmt) in statements.iter().enumerate() {
        let stmt_no = i + 1;
        if stmt.contains("::") {
            // Declaration: name :: Type(args)
            let (name, rest) = stmt.split_once("::").expect("checked contains");
            let name = name.trim().to_string();
            let rest = rest.trim();
            if name.is_empty() || !is_identifier(&name) {
                return Err(ConfigError::Syntax {
                    statement: stmt_no,
                    message: format!("'{name}' is not a valid instance name"),
                });
            }
            if names.contains_key(&name) {
                return Err(ConfigError::DuplicateName(name));
            }
            let (ty, args) = split_type_args(rest).ok_or_else(|| ConfigError::Syntax {
                statement: stmt_no,
                message: format!("cannot parse declaration '{rest}'"),
            })?;
            let element = instantiate(&ty, &args)?;
            let idx = builder.add(name.clone(), element);
            names.insert(name, idx);
        } else if stmt.contains("->") {
            // Connection chain: a[p] -> [q]b [r] -> c ...
            let parts: Vec<&str> = stmt.split("->").map(|s| s.trim()).collect();
            if parts.len() < 2 {
                return Err(ConfigError::Syntax {
                    statement: stmt_no,
                    message: "connection needs a source and a destination".to_string(),
                });
            }
            for pair in parts.windows(2) {
                let (src_name, src_port) =
                    parse_endpoint_source(pair[0]).ok_or_else(|| ConfigError::Syntax {
                        statement: stmt_no,
                        message: format!("cannot parse connection source '{}'", pair[0]),
                    })?;
                let dst_name = parse_endpoint_dest(pair[1]).ok_or_else(|| ConfigError::Syntax {
                    statement: stmt_no,
                    message: format!("cannot parse connection destination '{}'", pair[1]),
                })?;
                connections.push((src_name, src_port, dst_name));
            }
        } else {
            return Err(ConfigError::Syntax {
                statement: stmt_no,
                message: format!("'{stmt}' is neither a declaration nor a connection"),
            });
        }
    }

    if names.is_empty() {
        return Err(ConfigError::Empty);
    }

    for (src, port, dst) in connections {
        let &from = names
            .get(&src)
            .ok_or_else(|| ConfigError::UnknownInstance(src.clone()))?;
        let &to = names
            .get(&dst)
            .ok_or_else(|| ConfigError::UnknownInstance(dst.clone()))?;
        builder
            .try_connect(from, port, to)
            .map_err(ConfigError::Graph)?;
    }

    builder.build().map_err(ConfigError::Graph)
}

/// Errors raised while serialising a pipeline to configuration text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigWriteError {
    /// An element cannot be expressed in the config language (its
    /// [`Element::config_args`] returned `None`).
    NotExpressible {
        /// Instance name of the inexpressible element.
        instance: String,
        /// Its element type.
        type_name: String,
    },
    /// An instance name is not a valid config-language identifier.
    BadName(String),
    /// Re-instantiating an element from its emitted `Type(args)` produced
    /// different verification behaviour (a `config_args` implementation is
    /// out of sync with the factory).
    RoundTrip {
        /// Instance name of the drifting element.
        instance: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ConfigWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigWriteError::NotExpressible {
                instance,
                type_name,
            } => write!(
                f,
                "element '{instance}' ({type_name}) cannot be expressed in the config language"
            ),
            ConfigWriteError::BadName(name) => {
                write!(f, "'{name}' is not a valid config-language instance name")
            }
            ConfigWriteError::RoundTrip { instance, message } => {
                write!(f, "element '{instance}' does not round-trip: {message}")
            }
        }
    }
}

impl std::error::Error for ConfigWriteError {}

/// Serialise a pipeline to configuration text that [`parse_config`] parses
/// back into a pipeline with the same instance names, the same wiring, and
/// element-for-element identical verification behaviour (equal
/// [`Element::fingerprint_material`] — checked here, so a drifting
/// [`Element::config_args`] implementation fails loudly at write time
/// instead of silently shipping the wrong element).
///
/// This is what makes a pipeline a *wire* type: the orchestrator's
/// serialisable job plans carry pipelines in exactly this form.
pub fn write_config(pipeline: &Pipeline) -> Result<String, ConfigWriteError> {
    let mut out = String::new();
    // `parse_config` makes the first declared element the entry, so the
    // entry is emitted first and the remaining elements follow in index
    // order.
    let entry = pipeline.entry();
    let order: Vec<usize> = std::iter::once(entry)
        .chain((0..pipeline.len()).filter(|&i| i != entry))
        .collect();
    for &idx in &order {
        let node = pipeline.node(idx);
        if !is_identifier(&node.name) {
            return Err(ConfigWriteError::BadName(node.name.clone()));
        }
        let element = node.element.as_ref();
        let args = element
            .config_args()
            .ok_or_else(|| ConfigWriteError::NotExpressible {
                instance: node.name.clone(),
                type_name: element.type_name().to_string(),
            })?;
        let rebuilt =
            instantiate(element.type_name(), &args).map_err(|e| ConfigWriteError::RoundTrip {
                instance: node.name.clone(),
                message: format!("{}({args}) does not instantiate: {e}", element.type_name()),
            })?;
        if rebuilt.fingerprint_material() != element.fingerprint_material() {
            return Err(ConfigWriteError::RoundTrip {
                instance: node.name.clone(),
                message: format!(
                    "{}({args}) instantiates to different behaviour",
                    element.type_name()
                ),
            });
        }
        out.push_str(&format!(
            "{} :: {}({});\n",
            node.name,
            element.type_name(),
            args
        ));
    }
    for &idx in &order {
        let node = pipeline.node(idx);
        for (port, succ) in node.successors.iter().enumerate() {
            if let Some(succ) = succ {
                out.push_str(&format!(
                    "{}[{}] -> {};\n",
                    node.name,
                    port,
                    pipeline.node(*succ).name
                ));
            }
        }
    }
    Ok(out)
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Split `Type(arg, arg)` into the type name and the raw argument string.
fn split_type_args(s: &str) -> Option<(String, String)> {
    if let Some(open) = s.find('(') {
        let close = s.rfind(')')?;
        if close < open {
            return None;
        }
        let ty = s[..open].trim().to_string();
        let args = s[open + 1..close].trim().to_string();
        if !is_identifier(&ty) {
            return None;
        }
        Some((ty, args))
    } else {
        let ty = s.trim().to_string();
        if !is_identifier(&ty) {
            return None;
        }
        Some((ty, String::new()))
    }
}

/// Parse `name` or `name[port]` on the source side of a connection.
fn parse_endpoint_source(s: &str) -> Option<(String, u8)> {
    let s = s.trim();
    if let Some(open) = s.find('[') {
        let close = s.rfind(']')?;
        let name = s[..open].trim().to_string();
        let port: u8 = s[open + 1..close].trim().parse().ok()?;
        if !is_identifier(&name) {
            return None;
        }
        Some((name, port))
    } else {
        if !is_identifier(s) {
            return None;
        }
        Some((s.to_string(), 0))
    }
}

/// Parse `name`, `[inport]name`, or `name[outport]` (when this endpoint is in
/// the middle of a chain) on the destination side. The input port is ignored;
/// a trailing `[outport]` is also ignored here because the same token will be
/// re-parsed as the source of the following hop.
fn parse_endpoint_dest(s: &str) -> Option<String> {
    let mut s = s.trim();
    // Strip a leading "[n]" (the Click input port).
    if s.starts_with('[') {
        let close = s.find(']')?;
        s = s[close + 1..].trim();
    }
    // Strip a trailing "[n]" (this endpoint's own output port, used by the
    // next hop of the chain).
    if let Some(open) = s.find('[') {
        let name = s[..open].trim();
        if !is_identifier(name) {
            return None;
        }
        return Some(name.to_string());
    }
    if !is_identifier(s) {
        return None;
    }
    Some(s.to_string())
}

/// Instantiate an element from its type name and argument string.
pub fn instantiate(ty: &str, args: &str) -> Result<Box<dyn Element>, ConfigError> {
    let arg_list: Vec<String> = if args.trim().is_empty() {
        Vec::new()
    } else {
        args.split(',').map(|a| a.trim().to_string()).collect()
    };
    let bad = |message: &str| ConfigError::BadArguments {
        element: ty.to_string(),
        message: message.to_string(),
    };

    match ty {
        "Generator" => Ok(Box::new(Generator::new())),
        "Sink" => Ok(Box::new(Sink::new())),
        "Counter" => Ok(Box::new(Counter::new())),
        "CheckIPHeader" => Ok(Box::new(CheckIPHeader::new())),
        "DecTTL" | "DecIPTTL" => Ok(Box::new(DecTTL::new())),
        "EthDecap" => Ok(Box::new(EthDecap::new())),
        "EthEncap" | "EtherEncap" => Ok(Box::new(EthEncap::ipv4_default())),
        "NetFlow" => Ok(Box::new(NetFlow::new())),
        "Paint" => {
            let colour: u8 = arg_list
                .first()
                .ok_or_else(|| bad("expected a colour"))?
                .parse()
                .map_err(|_| bad("colour must be 0..=255"))?;
            Ok(Box::new(Paint::new(colour)))
        }
        "Strip" => {
            let n: u32 = arg_list
                .first()
                .ok_or_else(|| bad("expected a byte count"))?
                .parse()
                .map_err(|_| bad("byte count must be an integer"))?;
            if n == 0 {
                return Err(bad("byte count must be positive"));
            }
            Ok(Box::new(Strip::new(n)))
        }
        "CheckLength" => {
            if arg_list.len() != 2 {
                return Err(bad("expected min, max"));
            }
            let min: u32 = arg_list[0]
                .parse()
                .map_err(|_| bad("min must be an integer"))?;
            let max: u32 = arg_list[1]
                .parse()
                .map_err(|_| bad("max must be an integer"))?;
            if min > max {
                return Err(bad("min must not exceed max"));
            }
            Ok(Box::new(CheckLength::new(min, max)))
        }
        "IPOptions" => {
            let addr = match arg_list.first() {
                Some(a) => a
                    .parse::<Ipv4Addr>()
                    .map_err(|_| bad("router address must be an IPv4 address"))?,
                None => Ipv4Addr::new(10, 255, 255, 254),
            };
            Ok(Box::new(IPOptions::new(addr)))
        }
        "Classifier" => {
            if arg_list.is_empty() {
                return Err(bad("expected at least one pattern"));
            }
            let mut rules = Vec::new();
            for pattern in &arg_list {
                if pattern == "-" {
                    rules.push(ClassifierRule::any());
                    continue;
                }
                let mut fields = Vec::new();
                for field in pattern.split_whitespace() {
                    let (off, val) = field
                        .split_once('/')
                        .ok_or_else(|| bad("pattern fields look like offset/hexvalue"))?;
                    let offset: u32 = off.parse().map_err(|_| bad("offset must be an integer"))?;
                    let value = u16::from_str_radix(val, 16)
                        .map_err(|_| bad("value must be 16-bit hex"))?;
                    fields.push(MatchField { offset, value });
                }
                rules.push(ClassifierRule { fields });
            }
            Ok(Box::new(Classifier::new(rules)))
        }
        "IPLookup" | "LookupIPRoute" => {
            if arg_list.is_empty() {
                return Err(bad("expected at least one route"));
            }
            let mut routes = Vec::new();
            for route in &arg_list {
                let parts: Vec<&str> = route.split_whitespace().collect();
                if parts.len() != 2 {
                    return Err(bad("routes look like prefix/len port"));
                }
                let (prefix, len) = parts[0]
                    .split_once('/')
                    .ok_or_else(|| bad("routes look like prefix/len port"))?;
                let prefix: Ipv4Addr = prefix
                    .parse()
                    .map_err(|_| bad("prefix must be an IPv4 address"))?;
                let prefix_len: u8 = len
                    .parse()
                    .map_err(|_| bad("prefix length must be an integer"))?;
                if prefix_len > 24 {
                    return Err(bad("prefix length above /24 is not supported"));
                }
                let port: u8 = parts[1]
                    .parse()
                    .map_err(|_| bad("port must be an integer"))?;
                routes.push(Route::new(prefix, prefix_len, port));
            }
            Ok(Box::new(IPLookup::new(routes)))
        }
        "SrcFilter" => {
            let mut blocked = Vec::new();
            for a in &arg_list {
                blocked.push(
                    a.parse::<Ipv4Addr>()
                        .map_err(|_| bad("blocked entries must be IPv4 addresses"))?,
                );
            }
            Ok(Box::new(SrcFilter::new(blocked)))
        }
        "Nat" => {
            if arg_list.len() != 2 {
                return Err(bad("expected external-ip, port-base"));
            }
            let ip: Ipv4Addr = arg_list[0]
                .parse()
                .map_err(|_| bad("external IP must be an IPv4 address"))?;
            let base: u16 = arg_list[1]
                .parse()
                .map_err(|_| bad("port base must be a 16-bit integer"))?;
            Ok(Box::new(Nat::new(ip, base)))
        }
        // Buggy fixtures are instantiable from configs so failure-injection
        // scenarios can be described textually in tests and benches.
        "BuggyDecTTL" => Ok(Box::new(BuggyDecTTL::new())),
        "UncheckedOptions" => Ok(Box::new(UncheckedOptions::new())),
        "BrokenClassifier" => Ok(Box::new(BrokenClassifier::new())),
        "OverflowingCounter" => Ok(Box::new(OverflowingCounter::new())),
        other => Err(ConfigError::UnknownType(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_net::PacketBuilder;
    use std::net::Ipv4Addr;

    const ROUTER: &str = r#"
        // The reference IP router of the paper's evaluation.
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

    #[test]
    fn parses_the_reference_router() {
        let mut p = parse_config(ROUTER).unwrap();
        assert_eq!(p.len(), 11);
        assert_eq!(p.entry(), p.find("cls").unwrap());
        assert_eq!(p.longest_path_len(), 8);

        // A packet destined to 192.168/16 ends up at out1.
        let frame = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 0, 9),
            1000,
            53,
            b"hello",
        )
        .build();
        let out = p.push(frame);
        let last = *out.hops.last().unwrap();
        assert_eq!(p.node(last).name, "out1");
        assert!(!out.is_crash());
    }

    #[test]
    fn comments_and_whitespace_are_tolerated() {
        let cfg = "a :: Generator();\n// a comment line\n\n b::Sink() ;\n a -> b;";
        let p = parse_config(cfg).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn chained_connections_with_ports() {
        let cfg = r#"
            c :: Classifier(12/0800, -);
            s0 :: Sink();
            s1 :: Sink();
            c[0] -> s0;
            c[1] -> [0]s1;
        "#;
        let p = parse_config(cfg).unwrap();
        assert_eq!(p.node(p.find("c").unwrap()).successors.len(), 2);
    }

    #[test]
    fn unknown_type_and_instance_errors() {
        assert!(matches!(
            parse_config("x :: Warp();"),
            Err(ConfigError::UnknownType(_))
        ));
        assert!(matches!(
            parse_config("a :: Sink(); a -> b;"),
            Err(ConfigError::UnknownInstance(_))
        ));
        assert!(matches!(
            parse_config("a :: Sink(); a :: Sink();"),
            Err(ConfigError::DuplicateName(_))
        ));
        assert!(matches!(parse_config("   "), Err(ConfigError::Empty)));
        assert!(matches!(
            parse_config("a :: Generator(); nonsense here"),
            Err(ConfigError::Syntax { .. })
        ));
    }

    #[test]
    fn bad_arguments_are_reported() {
        for cfg in [
            "a :: Strip();",
            "a :: Strip(zero);",
            "a :: Strip(0);",
            "a :: CheckLength(10);",
            "a :: CheckLength(100, 10);",
            "a :: Classifier();",
            "a :: Classifier(nonsense);",
            "a :: IPLookup();",
            "a :: IPLookup(10.0.0.0/33 0);",
            "a :: IPLookup(10.0.0.0 0);",
            "a :: Nat(10.0.0.1);",
            "a :: Nat(notanip, 99);",
            "a :: Paint();",
            "a :: SrcFilter(notanip);",
            "a :: IPOptions(notanip);",
        ] {
            match parse_config(cfg) {
                Err(ConfigError::BadArguments { .. }) => {}
                other => panic!("expected BadArguments for '{cfg}', got {other:?}"),
            }
        }
    }

    #[test]
    fn graph_errors_are_propagated() {
        let cfg = "a :: Generator(); b :: Generator(); a -> b; b -> a;";
        assert!(matches!(
            parse_config(cfg),
            Err(ConfigError::Graph(PipelineError::CyclicGraph))
        ));
        // A port the element does not have is an error, not a panic.
        let cfg = "a :: DecTTL(); b :: Sink(); a[1] -> b;";
        assert!(matches!(
            parse_config(cfg),
            Err(ConfigError::Graph(PipelineError::InvalidPort {
                port: 1,
                ..
            }))
        ));
    }

    #[test]
    fn all_factory_types_instantiable() {
        for (ty, args) in [
            ("Generator", ""),
            ("Sink", ""),
            ("Counter", ""),
            ("CheckIPHeader", ""),
            ("DecTTL", ""),
            ("DecIPTTL", ""),
            ("EthDecap", ""),
            ("EthEncap", ""),
            ("EtherEncap", ""),
            ("NetFlow", ""),
            ("Paint", "3"),
            ("Strip", "14"),
            ("CheckLength", "64, 1500"),
            ("IPOptions", ""),
            ("IPOptions", "10.0.0.1"),
            ("Classifier", "12/0800"),
            ("IPLookup", "10.0.0.0/8 0"),
            ("LookupIPRoute", "10.0.0.0/8 0"),
            ("SrcFilter", "10.0.0.1"),
            ("SrcFilter", ""),
            ("Nat", "203.0.113.1, 20000"),
            ("BuggyDecTTL", ""),
            ("UncheckedOptions", ""),
            ("BrokenClassifier", ""),
            ("OverflowingCounter", ""),
        ] {
            let e = instantiate(ty, args);
            assert!(e.is_ok(), "failed to instantiate {ty}({args}): {e:?}");
        }
    }

    #[test]
    fn write_config_round_trips_every_preset() {
        use crate::presets;
        type PresetRow = (&'static str, fn() -> Pipeline);
        let presets: Vec<PresetRow> = vec![
            ("ip_router", presets::ip_router_pipeline),
            ("linear_router", presets::linear_router_pipeline),
            ("middlebox", presets::middlebox_pipeline),
            ("firewall", || presets::firewall_pipeline(vec![])),
            ("buggy", presets::buggy_pipeline),
        ];
        for (name, make) in presets {
            let original = make();
            let text = write_config(&original)
                .unwrap_or_else(|e| panic!("{name} does not serialise: {e}"));
            let reparsed =
                parse_config(&text).unwrap_or_else(|e| panic!("{name} does not re-parse: {e}"));
            assert_eq!(reparsed.len(), original.len(), "{name}: element count");
            assert_eq!(
                reparsed.node(reparsed.entry()).name,
                original.node(original.entry()).name,
                "{name}: entry"
            );
            for idx in 0..original.len() {
                let a = original.node(idx);
                let b = reparsed
                    .find(&a.name)
                    .map(|i| reparsed.node(i))
                    .unwrap_or_else(|| panic!("{name}: instance '{}' lost", a.name));
                assert_eq!(
                    a.element.fingerprint_material(),
                    b.element.fingerprint_material(),
                    "{name}: behaviour of '{}' drifted",
                    a.name
                );
                let succ_names =
                    |p: &Pipeline, n: &crate::pipeline::ElementNode| -> Vec<Option<String>> {
                        n.successors
                            .iter()
                            .map(|s| s.map(|i| p.node(i).name.clone()))
                            .collect()
                    };
                assert_eq!(
                    succ_names(&original, a),
                    succ_names(&reparsed, b),
                    "{name}: wiring of '{}' drifted",
                    a.name
                );
            }
            // Serialising the reparsed pipeline is byte-stable.
            assert_eq!(write_config(&reparsed).unwrap(), text, "{name}");
        }
    }

    #[test]
    fn write_config_round_trips_every_factory_type() {
        // Every element the factory can build must also serialise back to
        // arguments the factory accepts, with identical behaviour.
        for (ty, args) in [
            ("Generator", ""),
            ("Sink", ""),
            ("Counter", ""),
            ("CheckIPHeader", ""),
            ("DecTTL", ""),
            ("EthDecap", ""),
            ("EthEncap", ""),
            ("NetFlow", ""),
            ("Paint", "3"),
            ("Strip", "14"),
            ("CheckLength", "64, 1500"),
            ("IPOptions", "10.0.0.1"),
            ("Classifier", "12/0800 20/0001, -"),
            ("IPLookup", "10.0.0.0/8 0, 192.168.0.0/16 1"),
            ("SrcFilter", "10.0.0.1, 192.0.2.7"),
            ("SrcFilter", ""),
            ("Nat", "203.0.113.1, 20000"),
            ("BuggyDecTTL", ""),
            ("UncheckedOptions", ""),
            ("BrokenClassifier", ""),
            ("OverflowingCounter", ""),
        ] {
            let element = instantiate(ty, args).unwrap();
            let rendered = element
                .config_args()
                .unwrap_or_else(|| panic!("{ty}({args}) renders no config args"));
            let rebuilt = instantiate(ty, &rendered)
                .unwrap_or_else(|e| panic!("{ty}({rendered}) does not re-instantiate: {e}"));
            assert_eq!(
                rebuilt.fingerprint_material(),
                element.fingerprint_material(),
                "{ty}({args}) -> ({rendered}) drifted"
            );
        }
    }

    #[test]
    fn write_config_rejects_inexpressible_elements() {
        use dataplane_net::MacAddr;
        let mut b = Pipeline::builder();
        let enc = b.add(
            "enc",
            Box::new(EthEncap::new(MacAddr::local(9), MacAddr::local(8), 0x86dd)),
        );
        let out = b.add("out", Box::new(Sink::new()));
        b.connect(enc, 0, out);
        let p = b.build().unwrap();
        assert!(matches!(
            write_config(&p),
            Err(ConfigWriteError::NotExpressible { .. })
        ));
    }

    #[test]
    fn error_display() {
        let errs: Vec<ConfigError> = vec![
            ConfigError::Syntax {
                statement: 1,
                message: "x".into(),
            },
            ConfigError::UnknownType("T".into()),
            ConfigError::BadArguments {
                element: "E".into(),
                message: "m".into(),
            },
            ConfigError::DuplicateName("n".into()),
            ConfigError::UnknownInstance("i".into()),
            ConfigError::Graph(PipelineError::CyclicGraph),
            ConfigError::Empty,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
