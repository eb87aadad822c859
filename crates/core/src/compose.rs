//! Step 2: composing per-element segments into pipeline paths.
//!
//! A segment's constraint and packet transform are expressed over the symbols
//! of *that element's input packet*. To reason about a pipeline path we
//! rewrite ("stitch", in the paper's terms) every downstream term into the
//! symbol space of the *original* packet entering the pipeline, by
//! substituting each `PacketByte(i)` / `PacketLen` with the symbolic output
//! of the upstream prefix, and renaming per-element fresh variables and
//! data-structure reads so that different pipeline positions cannot collide.
//! Every namespace is indexed by the element's composition depth along the
//! path, so a composed term is a pure function of the path that produced it.

use dataplane_symbex::term::{self, Term, TermRef};
use dataplane_symbex::{SymPacket, VarId};
use std::cell::Cell;
use std::sync::Arc;

/// Stride between the variable/read namespaces of consecutive pipeline
/// stages.
pub const STAGE_STRIDE: u32 = 1_000_000;
/// First variable id used for over-approximation variables created during
/// composition (far above any renamed engine variable).
const FRESH_BASE: u32 = 0x4000_0000;
/// Span of the over-approximation variable namespace owned by one
/// composition depth (see [`FreshScope`]).
const FRESH_SPAN: u32 = 1 << 20;
/// Deepest composition depth the depth-indexed namespaces support: past
/// this, stage strides would run into `FRESH_BASE` (and fresh spans would
/// approach `u32::MAX`), silently aliasing ids from different depths. No
/// real pipeline path approaches this (paths are acyclic, so depth is
/// bounded by the element count), and aliased namespaces could corrupt
/// verdicts — so exceeding the bound is a loud panic, never an alias.
pub const MAX_COMPOSE_DEPTH: usize = 1024;

/// The variable namespace of composition depth `depth` (0 = the pipeline
/// entry element). Depth-indexed strides make the rewritten terms of a
/// composed path a pure function of the path itself — independent of the
/// order in which paths are explored — which is what lets a parallel Step-2
/// walk produce terms identical to the sequential walk.
pub fn stride_for_depth(depth: usize) -> u32 {
    assert!(
        depth < MAX_COMPOSE_DEPTH,
        "composed path depth {depth} exceeds MAX_COMPOSE_DEPTH ({MAX_COMPOSE_DEPTH})"
    );
    (depth as u32 + 1) * STAGE_STRIDE
}

/// The composition depth owning renamed variable/read id `id`, if any
/// (inverse of [`stride_for_depth`]; `None` for original-namespace ids and
/// for over-approximation variables).
pub fn depth_of_id(id: u32) -> Option<usize> {
    if id >= FRESH_BASE {
        return None;
    }
    (id / STAGE_STRIDE).checked_sub(1).map(|d| d as usize)
}

/// A deterministic allocator for over-approximation variables, scoped to one
/// rewrite call at one composition depth. Within a composed path each depth
/// contributes exactly one rewrite call, so per-depth bases keep the ids
/// unique within any one constraint set while staying reproducible across
/// walk orders.
struct FreshScope {
    next: Cell<u32>,
}

impl FreshScope {
    /// The allocator for a rewrite performed at composition depth `depth`.
    fn for_depth(depth: usize) -> FreshScope {
        assert!(
            depth < MAX_COMPOSE_DEPTH,
            "composed path depth {depth} exceeds MAX_COMPOSE_DEPTH ({MAX_COMPOSE_DEPTH})"
        );
        FreshScope {
            next: Cell::new(FRESH_BASE + depth as u32 * FRESH_SPAN),
        }
    }

    fn fresh(&self, width: u8) -> TermRef {
        let id = self.next.get();
        self.next.set(id + 1);
        Arc::new(Term::Var {
            id: VarId(id),
            width,
        })
    }
}

/// The symbolic view of the packet at some point in the pipeline, expressed
/// over the original input packet's symbols.
#[derive(Clone)]
pub enum View {
    /// The packet exactly as it entered the pipeline.
    Original,
    /// The packet after one more element.
    Stage(Arc<StageView>),
}

/// One composition stage: the previous view plus the packet transform of the
/// segment taken through the element at this stage.
pub struct StageView {
    prev: View,
    packet: SymPacket,
    stride: u32,
}

/// Extend `view` with the packet transform of a segment taken through the
/// element at composition depth `depth`.
pub fn extend_view(view: &View, packet: &SymPacket, depth: usize) -> View {
    View::Stage(Arc::new(StageView {
        prev: view.clone(),
        packet: packet.clone(),
        stride: stride_for_depth(depth),
    }))
}

/// Rewrite a constraint (conjunct list) expressed over the input symbols of
/// the element at composition depth `depth`, which sits *after* `view`, into
/// terms over the original input symbols. Variables and data-structure reads
/// move into the depth's namespace ([`stride_for_depth`]) and
/// over-approximation variables come from the depth's own span, so the
/// result is a pure function of `(view, depth, terms)` — which is what lets
/// every walk order, thread count and shard cut compose identical terms.
pub fn rewrite_all(view: &View, depth: usize, terms: &[TermRef]) -> Vec<TermRef> {
    let stride = stride_for_depth(depth);
    let scope = FreshScope::for_depth(depth);
    terms
        .iter()
        .map(|t| rewrite(view, stride, t, &scope))
        .collect()
}

/// Byte `j` of the packet described by `view`, as a term over the original
/// input symbols.
fn view_byte(view: &View, j: i64, scope: &FreshScope) -> TermRef {
    match view {
        View::Original => {
            if j >= 0 {
                Arc::new(Term::PacketByte(j))
            } else {
                term::constant(dataplane_ir::BitVec::u8(0))
            }
        }
        View::Stage(stage) => {
            if stage.packet.out_byte_is_unknown(j) {
                // Unknown content after a symbolic-offset rewrite that may
                // have reached this byte. Bytes outside the clobber range
                // stay precise — that is what lets fixed header fields flow
                // through option-processing elements.
                return scope.fresh(8);
            }
            let local = stage.packet.out_byte(j);
            rewrite(&stage.prev, stage.stride, &local, scope)
        }
    }
}

/// The length of the packet described by `view`, over original symbols.
fn view_len(view: &View, scope: &FreshScope) -> TermRef {
    match view {
        View::Original => Arc::new(Term::PacketLen),
        View::Stage(stage) => {
            let local = stage.packet.out_len();
            rewrite(&stage.prev, stage.stride, &local, scope)
        }
    }
}

/// The net front-shift of `view` relative to the original packet when the
/// view is a pure shift (no byte rewritten anywhere along the prefix).
fn pure_shift(view: &View) -> Option<i64> {
    match view {
        View::Original => Some(0),
        View::Stage(stage) => {
            if stage.packet.rewrites_bytes() {
                None
            } else {
                Some(pure_shift(&stage.prev)? + stage.packet.base())
            }
        }
    }
}

/// Rewrite a term expressed over the input symbols of the element sitting
/// *after* `view` (whose variable namespace is `stride`) into a term over the
/// original input symbols.
fn rewrite(view: &View, stride: u32, t: &TermRef, scope: &FreshScope) -> TermRef {
    term::substitute(t, &|leaf| match leaf {
        Term::PacketByte(i) => Some(view_byte(view, *i, scope)),
        Term::PacketLen => Some(view_len(view, scope)),
        Term::Var { id, width } => Some(Arc::new(Term::Var {
            id: VarId(id.0 + stride),
            width: *width,
        })),
        Term::DsRead {
            ds,
            key,
            seq,
            width,
        } => Some(Arc::new(Term::DsRead {
            ds: *ds,
            key: rewrite(view, stride, key, scope),
            seq: seq + stride,
            width: *width,
        })),
        Term::PacketByteAt { index } => {
            let rewritten_index = rewrite(view, stride, index, scope);
            match pure_shift(view) {
                Some(shift) => {
                    let shifted = if shift == 0 {
                        rewritten_index
                    } else if shift > 0 {
                        term::binary(
                            dataplane_ir::BinOp::Add,
                            rewritten_index,
                            term::constant(dataplane_ir::BitVec::u32(shift as u32)),
                        )
                    } else {
                        term::binary(
                            dataplane_ir::BinOp::Sub,
                            rewritten_index,
                            term::constant(dataplane_ir::BitVec::u32((-shift) as u32)),
                        )
                    };
                    Some(Arc::new(Term::PacketByteAt { index: shifted }))
                }
                // Bytes may have been rewritten upstream: the value read at
                // a symbolic offset is unknown.
                None => Some(scope.fresh(8)),
            }
        }
        _ => None,
    })
}

/// Substitute concrete values for chosen original packet bytes (used by the
/// reachability property to pin the destination address).
pub fn bind_packet_bytes(terms: &[TermRef], bindings: &[(i64, u8)]) -> Vec<TermRef> {
    terms
        .iter()
        .map(|t| {
            term::substitute(t, &|leaf| match leaf {
                Term::PacketByte(i) => bindings
                    .iter()
                    .find(|(j, _)| j == i)
                    .map(|(_, v)| term::constant(dataplane_ir::BitVec::u8(*v))),
                _ => None,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_ir::{BinOp, BitVec};
    use dataplane_symbex::term::{binary, constant, eval, Assignment};

    fn c32(v: u32) -> TermRef {
        constant(BitVec::u32(v))
    }

    /// Byte `j` of the packet `view` describes, as the element at `depth`
    /// reads it.
    fn byte_at(view: &View, depth: usize, j: i64) -> TermRef {
        rewrite_all(view, depth, &[Arc::new(Term::PacketByte(j))]).remove(0)
    }

    /// The length of the packet `view` describes, as the element at `depth`
    /// reads it.
    fn len_at(view: &View, depth: usize) -> TermRef {
        rewrite_all(view, depth, &[Arc::new(Term::PacketLen)]).remove(0)
    }

    /// A packet transform whose store at a symbolic offset clobbers the
    /// overlay, so downstream reads of its bytes are unknown.
    fn clobbered_packet() -> SymPacket {
        let mut packet = SymPacket::new();
        let mut counter = 0;
        let mut fresh = || {
            counter += 1;
            Arc::new(Term::Var {
                id: VarId(100 + counter),
                width: 8,
            })
        };
        packet.store(
            &Arc::new(Term::PacketLen),
            1,
            &constant(BitVec::u8(1)),
            &mut fresh,
        );
        packet
    }

    #[test]
    fn original_view_is_identity() {
        let v = View::Original;
        assert_eq!(byte_at(&v, 0, 3).to_string(), "pkt[3]");
        assert_eq!(len_at(&v, 0).to_string(), "pkt.len");
        assert_eq!(byte_at(&v, 0, -1).as_const().unwrap(), BitVec::u8(0));
    }

    #[test]
    fn strip_stage_shifts_downstream_bytes() {
        let mut packet = SymPacket::new();
        packet.strip_front(14);
        let view = extend_view(&View::Original, &packet, 0);
        // Byte 0 after the strip is original byte 14.
        assert_eq!(byte_at(&view, 1, 0).to_string(), "pkt[14]");
        // Length shrinks by 14.
        let len = len_at(&view, 1);
        let mut a = Assignment::from_packet(&[0u8; 64]);
        a.packet_len = 64;
        assert_eq!(eval(&len, &a).unwrap(), BitVec::u32(50));
    }

    #[test]
    fn rewrites_rename_vars_and_reads() {
        let stride = stride_for_depth(2);
        let var = Arc::new(Term::Var {
            id: VarId(3),
            width: 8,
        });
        let read = Arc::new(Term::DsRead {
            ds: dataplane_ir::DsId(1),
            key: Arc::new(Term::PacketByte(0)),
            seq: 7,
            width: 16,
        });
        let t = binary(
            BinOp::Eq,
            term::cast(dataplane_ir::CastKind::ZExt, 16, var),
            read,
        );
        let rewritten = rewrite_all(&View::Original, 2, &[t]).remove(0);
        let s = rewritten.to_string();
        assert!(s.contains(&format!("v{}", 3 + stride)), "{s}");
        assert!(s.contains(&format!("#{}", 7 + stride)), "{s}");
        assert_eq!(depth_of_id(3 + stride), Some(2));
        assert_eq!(depth_of_id(FRESH_BASE + 1), None);
    }

    #[test]
    fn written_bytes_flow_into_downstream_terms() {
        // Upstream writes byte 1 to (pkt[0] + 1); downstream constraint
        // "byte 1 == 5" must become "pkt[0] + 1 == 5".
        let mut packet = SymPacket::new();
        let mut no_fresh = || panic!("unexpected fresh var");
        let incremented = binary(
            BinOp::Add,
            Arc::new(Term::PacketByte(0)),
            constant(BitVec::u8(1)),
        );
        packet.store(&c32(1), 1, &incremented, &mut no_fresh);
        let view = extend_view(&View::Original, &packet, 0);

        let downstream = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(1)),
            constant(BitVec::u8(5)),
        );
        let composed = rewrite_all(&view, 1, &[downstream]).remove(0);
        // Evaluate under a concrete original packet: byte0 = 4 satisfies it.
        let a = Assignment::from_packet(&[4, 9, 9]);
        assert!(eval(&composed, &a).unwrap().is_true());
        let a = Assignment::from_packet(&[7, 9, 9]);
        assert!(!eval(&composed, &a).unwrap().is_true());
    }

    #[test]
    fn clobbered_stage_over_approximates_bytes() {
        let view = extend_view(&View::Original, &clobbered_packet(), 0);
        let b = byte_at(&view, 1, 3);
        assert!(
            b.to_string().starts_with('v'),
            "expected a fresh var, got {b}"
        );
        // Length is still precise.
        assert_eq!(len_at(&view, 1).to_string(), "pkt.len");
    }

    #[test]
    fn depth_strides_round_trip() {
        assert_eq!(stride_for_depth(0), STAGE_STRIDE);
        assert_eq!(depth_of_id(stride_for_depth(3) + 17), Some(3));
        assert_eq!(depth_of_id(5), None, "original namespace has no depth");
        assert_eq!(depth_of_id(FRESH_BASE + 1), None, "fresh vars have none");
    }

    #[test]
    fn scoped_rewrites_are_order_independent() {
        // A clobbered view forces fresh-variable allocation; a rewrite must
        // produce identical terms whatever other rewrites ran in between,
        // and rewrites at different depths must not share fresh variables.
        let view = extend_view(&View::Original, &clobbered_packet(), 0);
        let t = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(3)),
            constant(BitVec::u8(7)),
        );
        let a = rewrite_all(&view, 1, std::slice::from_ref(&t));
        let other = rewrite_all(&view, 2, std::slice::from_ref(&t));
        let b = rewrite_all(&view, 1, &[t]);
        assert_eq!(a, b, "a rewrite must be a pure function");
        assert!(
            a[0].to_string().contains('v'),
            "clobber produced a fresh var"
        );
        assert_ne!(a, other, "each depth owns its fresh variables");
    }

    #[test]
    fn binding_packet_bytes_substitutes_constants() {
        let t = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(30)),
            constant(BitVec::u8(0xc0)),
        );
        let bound = bind_packet_bytes(&[t], &[(30, 0xc0)]);
        assert!(bound[0].is_true());
        let t = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(30)),
            constant(BitVec::u8(0x01)),
        );
        let bound = bind_packet_bytes(&[t], &[(30, 0xc0)]);
        assert!(bound[0].is_false());
    }

    #[test]
    fn stacked_strips_accumulate() {
        let mut p0 = SymPacket::new();
        p0.strip_front(14);
        let v1 = extend_view(&View::Original, &p0, 0);
        let mut p1 = SymPacket::new();
        p1.strip_front(20);
        let v2 = extend_view(&v1, &p1, 1);
        assert_eq!(byte_at(&v2, 2, 0).to_string(), "pkt[34]");
        let len = len_at(&v2, 2);
        let mut a = Assignment::from_packet(&[0u8; 100]);
        a.packet_len = 100;
        assert_eq!(eval(&len, &a).unwrap(), BitVec::u32(66));
    }
}
