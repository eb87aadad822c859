//! JSON encoding of element summaries for the persistent cache tier.
//!
//! Symbolic terms form DAGs (subterms are shared through `Arc`), so a
//! summary is serialised as a flat **term table** — every distinct node once,
//! children referenced by index — plus segments that refer to constraint and
//! packet-transform terms by table index. Decoding rebuilds the table bottom-
//! up, restoring the sharing. Terms are rebuilt *verbatim* (no re-running of
//! the smart constructors), so a decoded summary is structurally identical
//! to the one that was encoded and composition over it produces the same
//! verdicts.
//!
//! Every record here goes through the crate's codec with the term table as
//! its context; only the table's nodes (a tagged enum) are written by hand.

use crate::codec::{
    field, field_in, member, record, spellings, text, to_json, with_member, Codec, Spelled,
    Version, Via,
};
use crate::json::Json;
use crate::wire::{malformed, WireError};
use dataplane_ir::{BinOp, BitVec, CastKind, DsId, UnOp};
use dataplane_symbex::term::Term;
use dataplane_symbex::{
    CrashKind, DsReadRecord, DsWriteRecord, Exploration, Segment, SegmentOutcome, SymPacket,
    TermRef, VarId,
};
use dataplane_verifier::ElementSummary;
use std::collections::HashMap;
use std::mem::discriminant;
use std::sync::Arc;

/// The current on-disk format version. Version 2 replaced the boolean
/// `clobbered` flag of a packet transform with an optional clobber *range*;
/// version 3 keeps the layout but counts instructions by `ir::cost`'s one
/// rule (a `Select` charges its costlier arm, a decomposed loop its
/// costliest iteration per iteration), which a summary's fingerprint does
/// not see. Older files fail to decode and are recomputed (the cache
/// treats any decode failure as a miss).
pub const SUMMARY_FORMAT: u64 = 3;

const SUMMARY: Version = Version {
    key: "format",
    value: SUMMARY_FORMAT,
    what: "summary",
};

/// The member holding a summary's term table.
const TERMS: &str = "terms";

/// A summary's term table, the context of its records: encoding interns
/// each distinct node once (children first, by pointer identity) and
/// names it by index; decoding rebuilds the nodes in order, each naming
/// only earlier ones.
#[derive(Default)]
struct Terms {
    ids: HashMap<*const Term, usize>,
    nodes: Vec<Json>,
    decoded: Vec<TermRef>,
}

impl Terms {
    /// Intern `term` (and, first, its children), returning its table index.
    fn intern(&mut self, term: &TermRef) -> usize {
        let ptr = Arc::as_ptr(term);
        if let Some(&id) = self.ids.get(&ptr) {
            return id;
        }
        let (tag, fields) = match term.as_ref() {
            Term::Const(v) => (
                "const",
                vec![
                    ("w", v.width().encode(self)),
                    ("v", v.as_u64().encode(self)),
                ],
            ),
            Term::PacketByte(i) => ("pb", vec![("i", i.encode(self))]),
            Term::PacketLen => ("plen", vec![]),
            Term::PacketByteAt { index } => ("pba", vec![("ix", index.encode(self))]),
            Term::DsRead {
                ds,
                key,
                seq,
                width,
            } => (
                "dsr",
                vec![
                    ("ds", ds.encode(self)),
                    ("k", key.encode(self)),
                    ("s", seq.encode(self)),
                    ("w", width.encode(self)),
                ],
            ),
            Term::Var { id, width } => (
                "var",
                vec![("id", id.0.encode(self)), ("w", width.encode(self))],
            ),
            Term::Unary { op, a } => ("un", vec![("op", op.encode(self)), ("a", a.encode(self))]),
            Term::Binary { op, a, b } => (
                "bin",
                vec![
                    ("op", op.encode(self)),
                    ("a", a.encode(self)),
                    ("b", b.encode(self)),
                ],
            ),
            Term::Select { c, t, e } => (
                "sel",
                vec![
                    ("c", c.encode(self)),
                    ("tt", t.encode(self)),
                    ("e", e.encode(self)),
                ],
            ),
            Term::Cast { kind, width, a } => (
                "cast",
                vec![
                    ("kind", kind.encode(self)),
                    ("w", width.encode(self)),
                    ("a", a.encode(self)),
                ],
            ),
        };
        let id = self.nodes.len();
        self.nodes
            .push(with_member("t", Json::str(tag), Json::obj(fields)));
        self.ids.insert(ptr, id);
        id
    }

    /// Rebuild the table from its nodes, in order.
    fn decode_nodes(&mut self, nodes: &[Json]) -> Result<(), WireError> {
        for node in nodes {
            let term = self.decode_node(node)?;
            self.decoded.push(Arc::new(term));
        }
        Ok(())
    }

    fn decode_node(&mut self, node: &Json) -> Result<Term, WireError> {
        Ok(match text(node, "t")? {
            "const" => Term::Const(BitVec::new(width(node, "w")?, field_in(node, "v", self)?)),
            "pb" => Term::PacketByte(field_in(node, "i", self)?),
            "plen" => Term::PacketLen,
            "pba" => Term::PacketByteAt {
                index: field_in(node, "ix", self)?,
            },
            "dsr" => Term::DsRead {
                ds: field_in(node, "ds", self)?,
                key: field_in(node, "k", self)?,
                seq: field_in(node, "s", self)?,
                width: width(node, "w")?,
            },
            "var" => Term::Var {
                id: VarId(field_in(node, "id", self)?),
                width: width(node, "w")?,
            },
            "un" => Term::Unary {
                op: field_in(node, "op", self)?,
                a: field_in(node, "a", self)?,
            },
            "bin" => Term::Binary {
                op: field_in(node, "op", self)?,
                a: field_in(node, "a", self)?,
                b: field_in(node, "b", self)?,
            },
            "sel" => Term::Select {
                c: field_in(node, "c", self)?,
                t: field_in(node, "tt", self)?,
                e: field_in(node, "e", self)?,
            },
            "cast" => Term::Cast {
                kind: field_in(node, "kind", self)?,
                width: width(node, "w")?,
                a: field_in(node, "a", self)?,
            },
            other => return Err(malformed(format!("unknown term tag '{other}'"))),
        })
    }
}

/// A bit width: must be in `1..=64` (the `BitVec` invariant) — a corrupt
/// cache file must surface as a decode error, never as a panic or a
/// silently truncated width.
fn width(node: &Json, key: &str) -> Result<u8, WireError> {
    let width: u64 = field(node, key)?;
    match u8::try_from(width) {
        Ok(width @ 1..=64) => Ok(width),
        _ => Err(malformed(format!("bit width {width} out of range 1..=64"))),
    }
}

/// A term is its index in the table.
impl Codec<Terms> for TermRef {
    fn encode(&self, terms: &mut Terms) -> Json {
        Json::int(terms.intern(self) as u64)
    }
    fn decode(json: &Json, terms: &mut Terms) -> Result<Self, WireError> {
        let id = usize::decode(json, terms)?;
        terms
            .decoded
            .get(id)
            .cloned()
            .ok_or_else(|| malformed(format!("term id {id} out of range")))
    }
}

impl<C> Codec<C> for DsId {
    fn encode(&self, cx: &mut C) -> Json {
        self.0.encode(cx)
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        u32::decode(json, cx).map(DsId)
    }
}

spellings!(BinOp {
    Add => "Add",
    Sub => "Sub",
    Mul => "Mul",
    UDiv => "UDiv",
    URem => "URem",
    And => "And",
    Or => "Or",
    Xor => "Xor",
    Shl => "Shl",
    LShr => "LShr",
    AShr => "AShr",
    Eq => "Eq",
    Ne => "Ne",
    ULt => "ULt",
    ULe => "ULe",
    UGt => "UGt",
    UGe => "UGe",
    SLt => "SLt",
    SLe => "SLe",
    BoolAnd => "BoolAnd",
    BoolOr => "BoolOr",
});

spellings!(UnOp {
    Not => "Not",
    Neg => "Neg",
    LogicalNot => "LogicalNot",
});

spellings!(CastKind {
    ZExt => "ZExt",
    SExt => "SExt",
    Trunc => "Trunc",
    Resize => "Resize",
});

/// Rebuilds a crash kind from the crash's message (a kind without one
/// ignores it).
type Rebuild = fn(String) -> CrashKind;

/// `CrashKind`'s spellings, each with the variant it rebuilds.
const CRASH_KINDS: [(&str, Rebuild); 7] = [
    ("assert", CrashKind::AssertionFailed),
    ("abort", CrashKind::Aborted),
    ("oob", |_| CrashKind::PacketOutOfBounds),
    ("dskey", CrashKind::DsKeyOutOfRange),
    ("div0", |_| CrashKind::DivisionByZero),
    ("loop", |_| CrashKind::LoopBoundExceeded),
    ("strip", |_| CrashKind::StripUnderflow),
];

impl Spelled for CrashKind {
    fn spelling(&self) -> &'static str {
        let this = discriminant(self);
        CRASH_KINDS
            .iter()
            .find(|(_, rebuild)| discriminant(&rebuild(String::new())) == this)
            .map(|(name, _)| *name)
            .expect("CRASH_KINDS spells every crash kind")
    }
}

/// A crash is its `kind`, plus its `msg` when it has one.
impl<C> Codec<C> for CrashKind {
    fn encode(&self, _: &mut C) -> Json {
        let message = match self {
            CrashKind::AssertionFailed(m)
            | CrashKind::Aborted(m)
            | CrashKind::DsKeyOutOfRange(m) => Some(("msg", Json::str(m))),
            _ => None,
        };
        let kind = ("kind", Json::str(self.spelling()));
        Json::obj([kind].into_iter().chain(message))
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        let kind = text(json, "kind")?;
        let (_, rebuild) = CRASH_KINDS
            .iter()
            .find(|(name, _)| *name == kind)
            .ok_or_else(|| malformed(format!("unknown crash kind '{kind}'")))?;
        let message = json.get("msg").and_then(Json::as_str).unwrap_or_default();
        Ok(rebuild(message.to_string()))
    }
}

/// A segment's outcome is tagged by `k`.
impl<C> Codec<C> for SegmentOutcome {
    fn encode(&self, cx: &mut C) -> Json {
        let (k, body) = match self {
            SegmentOutcome::Emitted(port) => ("emit", Json::obj([("port", port.encode(cx))])),
            SegmentOutcome::Dropped => ("drop", Json::obj([])),
            SegmentOutcome::Crashed(kind) => ("crash", kind.encode(cx)),
        };
        with_member("k", Json::str(k), body)
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        Ok(match text(json, "k")? {
            "emit" => SegmentOutcome::Emitted(field_in(json, "port", cx)?),
            "drop" => SegmentOutcome::Dropped,
            "crash" => SegmentOutcome::Crashed(CrashKind::decode(json, cx)?),
            other => return Err(malformed(format!("unknown outcome '{other}'"))),
        })
    }
}

/// A packet transform on the wire: its parts.
struct PacketParts {
    base: i64,
    delta: i64,
    writes: Vec<(i64, TermRef)>,
    clobber: Option<(i64, i64)>,
}

record!(PacketParts in Terms {
    base => "base",
    delta => "delta",
    writes => "writes",
    clobber => "clobber",
});

impl Via<SymPacket, Terms> for PacketParts {
    fn encode(packet: &SymPacket, terms: &mut Terms) -> Json {
        let (base, delta, writes, clobber) = packet.parts();
        let parts = PacketParts {
            base,
            delta,
            writes,
            clobber,
        };
        parts.encode(terms)
    }
    fn decode(json: &Json, terms: &mut Terms) -> Result<SymPacket, WireError> {
        let p = <PacketParts as Codec<Terms>>::decode(json, terms)?;
        Ok(SymPacket::from_parts(p.base, p.delta, p.writes, p.clobber))
    }
}

record!(DsReadRecord in Terms {
    ds => "ds",
    key => "k",
    seq => "s",
    value => "v",
});

record!(DsWriteRecord in Terms {
    ds => "ds",
    key => "k",
    value => "v",
});

// Table order is term numbering order: constraints, then packet writes,
// then data-structure reads and writes.
record!(Segment in Terms {
    constraint => "constraint",
    outcome => "outcome",
    packet => "packet" as PacketParts,
    ds_reads => "ds_reads",
    ds_writes => "ds_writes",
    instructions => "instructions",
    approximate => "approximate",
});

record!(Exploration in Terms {
    segments => "segments",
    branches_expanded => "branches",
});

record!(ElementSummary in Terms {
    type_name => "type_name",
    config_key => "config_key",
    exploration => ..,
    explore_time => "explore_micros",
});

/// Encode a summary to its JSON document.
pub fn summary_to_json(summary: &ElementSummary) -> Json {
    let mut terms = Terms::default();
    let body = summary.encode(&mut terms);
    SUMMARY.stamp(with_member(TERMS, Json::Arr(terms.nodes), body))
}

/// Decode a summary from its JSON document.
pub fn summary_from_json(json: &Json) -> Result<ElementSummary, WireError> {
    SUMMARY.check(json)?;
    let nodes = member(json, TERMS)?.as_arr();
    let mut terms = Terms::default();
    terms.decode_nodes(nodes.ok_or_else(|| malformed("the term table is not an array"))?)?;
    ElementSummary::decode(json, &mut terms)
}

// ---------------------------------------------------------------------------
// The cache-directory advisory lock
// ---------------------------------------------------------------------------

/// An advisory cross-process lock over a cache directory, closing the race
/// between a peer's summary-file rename and its `manifest.json` rewrite
/// (previously a process sampling the directory exactly between the two
/// could see — and destroy — a file no manifest vouched for yet).
///
/// Implemented as an atomically created lock file (`O_EXCL` semantics via
/// `create_new`), which is the only primitive available without platform
/// APIs. The lock is **best-effort**: acquisition times out (callers then
/// proceed under the pre-existing merge-on-demand protocol, which at worst
/// recomputes a summary) and a lock file older than the staleness bound is
/// broken, so a crashed holder cannot wedge the directory.
#[derive(Debug)]
pub struct DirLock {
    path: std::path::PathBuf,
}

/// File name of the advisory lock. Starts with a dot, so manifest
/// validation can never name it (eviction deletes only manifest-named
/// files) and the summary reader never opens it.
pub const LOCK_FILE: &str = ".dirlock";

impl DirLock {
    /// Acquire the lock for `dir` with default bounds: wait up to 500 ms,
    /// break lock files older than 5 s.
    pub fn acquire(dir: &std::path::Path) -> Option<DirLock> {
        DirLock::acquire_with(
            dir,
            std::time::Duration::from_millis(500),
            std::time::Duration::from_secs(5),
        )
    }

    /// Acquire with explicit bounds (tests shrink them).
    pub fn acquire_with(
        dir: &std::path::Path,
        timeout: std::time::Duration,
        stale_after: std::time::Duration,
    ) -> Option<DirLock> {
        let path = dir.join(LOCK_FILE);
        let start = std::time::Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    use std::io::Write;
                    // Contents are diagnostic only; the file's existence is
                    // the lock.
                    let _ = write!(file, "{}", std::process::id());
                    return Some(DirLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Break a stale lock (crashed or wedged holder) by
                    // *renaming* it to a unique grave name first: rename is
                    // atomic, so of several processes that all judged the
                    // same lock stale only one wins the break — a plain
                    // remove here could delete a peer's freshly created
                    // live lock and reopen the race this type closes.
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|modified| {
                            std::time::SystemTime::now().duration_since(modified).ok()
                        })
                        .is_some_and(|age| age > stale_after);
                    if stale {
                        let grave = dir.join(format!(".dirlock-stale-{}", std::process::id()));
                        if std::fs::rename(&path, &grave).is_ok() {
                            // Re-check age *after* the atomic rename: if the
                            // grave turns out fresh, a peer broke the stale
                            // lock and re-acquired between our stat and our
                            // rename — restore its lock (hard_link never
                            // clobbers a newer one) and wait like any other
                            // contender.
                            let grave_fresh = std::fs::metadata(&grave)
                                .and_then(|m| m.modified())
                                .ok()
                                .and_then(|modified| {
                                    std::time::SystemTime::now().duration_since(modified).ok()
                                })
                                .is_some_and(|age| age <= stale_after);
                            if grave_fresh {
                                let _ = std::fs::hard_link(&grave, &path);
                                let _ = std::fs::remove_file(&grave);
                                if start.elapsed() > timeout {
                                    return None;
                                }
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                continue;
                            }
                            let _ = std::fs::remove_file(&grave);
                        }
                        continue;
                    }
                    if start.elapsed() > timeout {
                        return None;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                // The directory vanished or permissions changed: the write
                // pair will fail on its own; do not spin here.
                Err(_) => return None,
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// ---------------------------------------------------------------------------
// The cache-directory manifest
// ---------------------------------------------------------------------------

/// One persisted summary file as the cache manifest records it. The manifest
/// is the directory's source of truth: a summary file whose content hash does
/// not match its manifest checksum (or that the manifest does not know at
/// all) is treated as corrupt/stale and recomputed instead of trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name within the cache directory (`<fingerprint>.json`).
    pub file: String,
    /// Size of the file in bytes (what eviction sums).
    pub bytes: u64,
    /// Content hash (hex [`crate::fingerprint::Fingerprint`]) of the file's
    /// exact text.
    pub checksum: String,
}

record!(ManifestEntry {
    file => "file",
    bytes => "bytes",
    checksum => "checksum",
});

const MANIFEST: Version = Version {
    key: "format",
    value: 1,
    what: "manifest",
};

/// The member holding a manifest's entries.
const ENTRIES: &str = "entries";

/// Encode a manifest. Entries are stored least-recently-used first, which is
/// the order eviction consumes them in.
pub fn manifest_to_json(entries: &[ManifestEntry]) -> Json {
    let entries = Json::Arr(entries.iter().map(to_json).collect());
    MANIFEST.stamp(Json::obj([(ENTRIES, entries)]))
}

/// Decode a manifest document. File names are validated here — they are
/// later joined onto the cache directory and *deleted* during eviction, so a
/// tampered manifest must not be able to name a path outside the directory
/// (no separators, no leading dot, `.json` suffix only).
pub fn manifest_from_json(json: &Json) -> Result<Vec<ManifestEntry>, WireError> {
    MANIFEST.check(json)?;
    let entries: Vec<ManifestEntry> = field(json, ENTRIES)?;
    let safe = |file: &str| {
        file.ends_with(".json")
            && !file.starts_with('.')
            && file != crate::cache::MANIFEST_FILE
            && file
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_')
    };
    match entries.iter().find(|e| !safe(&e.file)) {
        Some(e) => Err(malformed(format!("unsafe manifest file name '{}'", e.file))),
        None => Ok(entries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_pipeline::elements::{CheckIPHeader, IPLookup, IPOptions, Nat, NetFlow};

    #[test]
    fn dir_lock_is_mutually_exclusive_and_breaks_stale_holders() {
        let dir = std::env::temp_dir().join(format!("vericlick-dirlock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let short = std::time::Duration::from_millis(30);
        let long = std::time::Duration::from_secs(60);

        let lock = DirLock::acquire_with(&dir, short, long).expect("first acquire");
        assert!(
            DirLock::acquire_with(&dir, short, long).is_none(),
            "second acquire must time out while held"
        );
        drop(lock);
        assert!(
            DirLock::acquire_with(&dir, short, long).is_some(),
            "released lock must be acquirable"
        );

        // A stale lock file (e.g. a crashed holder) is broken, not waited on.
        std::fs::write(dir.join(LOCK_FILE), "stale").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            DirLock::acquire_with(&dir, short, std::time::Duration::from_millis(10)).is_some(),
            "stale lock must be broken"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_and_rejects_unsafe_names() {
        let entries = vec![ManifestEntry {
            file: "ab12cd.json".into(),
            bytes: 42,
            checksum: "ff00".into(),
        }];
        let text = manifest_to_json(&entries).to_text();
        let decoded = manifest_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, entries);
        // Eviction deletes manifest-named files, so traversal or
        // non-summary names must never decode.
        for name in [
            "../../etc/passwd.json",
            "a/b.json",
            "..",
            ".hidden.json",
            "manifest.json",
            "plain.txt",
            "x\\y.json",
            "",
        ] {
            let doc = manifest_to_json(&[ManifestEntry {
                file: name.into(),
                bytes: 1,
                checksum: "0".into(),
            }]);
            assert!(
                manifest_from_json(&doc).is_err(),
                "unsafe name '{name}' accepted"
            );
        }
    }
    use dataplane_pipeline::Element;
    use dataplane_symbex::{explore, EngineConfig};
    use std::net::Ipv4Addr;
    use std::time::Instant;

    fn summary_of(element: &dyn Element) -> ElementSummary {
        let program = element.model();
        let start = Instant::now();
        let exploration = explore(&program, &EngineConfig::decomposed()).unwrap();
        ElementSummary {
            type_name: element.type_name().to_string(),
            config_key: element.config_key(),
            exploration,
            explore_time: start.elapsed(),
        }
    }

    /// Structural equality of two segments (Segment itself does not derive
    /// PartialEq because SymPacket does not).
    fn assert_segments_equal(a: &Segment, b: &Segment) {
        assert_eq!(a.constraint, b.constraint);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.packet.parts(), b.packet.parts());
        assert_eq!(a.ds_reads, b.ds_reads);
        assert_eq!(a.ds_writes, b.ds_writes);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.approximate, b.approximate);
    }

    #[test]
    fn real_element_summaries_round_trip() {
        // Cover the interesting encodings: loops + packet rewrites
        // (IPOptions), data-structure traffic (IPLookup, NetFlow, Nat), and
        // crash segments (CheckIPHeader's suspect paths).
        let elements: Vec<Box<dyn Element>> = vec![
            Box::new(CheckIPHeader::new()),
            Box::new(IPOptions::new(Ipv4Addr::new(10, 255, 255, 254))),
            Box::new(IPLookup::two_port_default()),
            Box::new(NetFlow::new()),
            Box::new(Nat::with_defaults()),
        ];
        for element in &elements {
            let summary = summary_of(element.as_ref());
            let json = summary_to_json(&summary);
            let text = json.to_text();
            let decoded = summary_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(decoded.type_name, summary.type_name);
            assert_eq!(decoded.config_key, summary.config_key);
            assert_eq!(
                decoded.exploration.branches_expanded,
                summary.exploration.branches_expanded
            );
            assert_eq!(
                decoded.exploration.segments.len(),
                summary.exploration.segments.len(),
                "{}",
                summary.type_name
            );
            for (a, b) in decoded
                .exploration
                .segments
                .iter()
                .zip(summary.exploration.segments.iter())
            {
                assert_segments_equal(a, b);
            }
            // Encoding the decoded summary again is byte-stable.
            assert_eq!(summary_to_json(&decoded).to_text(), text);
        }
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(summary_from_json(&Json::Null).is_err());
        // A newer format, and the older one whose counts are stale.
        for format in [99, 2] {
            assert!(summary_from_json(&Json::obj([("format", Json::int(format))])).is_err());
        }
        let missing_terms = Json::obj([
            ("format", Json::int(SUMMARY_FORMAT)),
            ("type_name", Json::str("X")),
            ("config_key", Json::str("")),
            ("explore_micros", Json::int(1)),
            ("branches", Json::int(0)),
            ("terms", Json::Arr(vec![])),
            (
                "segments",
                Json::Arr(vec![Json::obj([("constraint", Json::Arr(vec![]))])]),
            ),
        ]);
        assert!(summary_from_json(&missing_terms).is_err());
        // A term referencing a forward (not yet decoded) id is rejected.
        let forward_ref = Json::obj([
            ("format", Json::int(SUMMARY_FORMAT)),
            ("type_name", Json::str("X")),
            ("config_key", Json::str("")),
            ("explore_micros", Json::int(1)),
            ("branches", Json::int(0)),
            (
                "terms",
                Json::Arr(vec![Json::obj([
                    ("t", Json::str("un")),
                    ("op", Json::str("Not")),
                    ("a", Json::int(5)),
                ])]),
            ),
            ("segments", Json::Arr(vec![])),
        ]);
        assert!(summary_from_json(&forward_ref).is_err());
    }

    #[test]
    fn decode_rejects_out_of_range_scalars() {
        // Widths outside 1..=64 (the BitVec invariant) and oversized ports
        // must surface as decode errors, never as panics or silent
        // truncation (the cache treats a decode error as a recomputable
        // miss; a worker panic would abort the whole run).
        let doc_with_term = |term: Json| {
            Json::obj([
                ("format", Json::int(SUMMARY_FORMAT)),
                ("type_name", Json::str("X")),
                ("config_key", Json::str("")),
                ("explore_micros", Json::int(1)),
                ("branches", Json::int(0)),
                ("terms", Json::Arr(vec![term])),
                ("segments", Json::Arr(vec![])),
            ])
        };
        for width in [0u64, 65, 300, u64::from(u32::MAX)] {
            let doc = doc_with_term(Json::obj([
                ("t", Json::str("const")),
                ("w", Json::int(width)),
                ("v", Json::int(0)),
            ]));
            let error = summary_from_json(&doc).expect_err("width must be rejected");
            assert!(error.to_string().contains("width"), "{error}");
        }
        let doc = doc_with_term(Json::obj([
            ("t", Json::str("var")),
            ("id", Json::int(u64::MAX)),
            ("w", Json::int(8)),
        ]));
        assert!(summary_from_json(&doc).is_err(), "u32 overflow accepted");
    }
}
