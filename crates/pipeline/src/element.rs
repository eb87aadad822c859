//! The element abstraction: the unit of packet processing and of
//! verification.
//!
//! An element owns the packet while processing it (packet state), may own
//! private state, may read static state, and hands the packet to exactly one
//! downstream element per emission — the structure §3 of the paper argues is
//! what makes dataplanes verifiable.
//!
//! Every element exposes **two** behaviours that must agree:
//!
//! * [`Element::process`] — the native Rust fast path used by the concrete
//!   runtime;
//! * [`Element::model`] — the element's IR program, which the symbolic engine
//!   explores and the verifier composes.
//!
//! The test suite checks the two agree packet-by-packet (differential
//! testing), which is this reproduction's analog of the paper trusting S2E to
//! faithfully execute the compiled C++.

use dataplane_ir::{CrashReason, DsId, ElementState, ExecLimits, Lowered, Program, Scratch};
use dataplane_net::Packet;
use std::collections::BTreeMap;
use std::fmt;

/// What an element did with a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Push the (possibly rewritten) packet to the given output port.
    Emit(u8, Packet),
    /// Drop the packet.
    Drop,
    /// The element would have crashed processing this packet (the native
    /// implementation detected the same condition the model treats as a
    /// crash, e.g. an out-of-bounds read in equivalent C code).
    Crash(CrashReason),
}

impl Action {
    /// True if the action is a crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, Action::Crash(_))
    }

    /// The output port, if the packet was emitted.
    pub fn port(&self) -> Option<u8> {
        match self {
            Action::Emit(p, _) => Some(*p),
            _ => None,
        }
    }
}

/// Initial contents for one data structure of an element's model:
/// `(key, value)` pairs to install before execution or verification.
pub type DsContents = Vec<(u64, u64)>;

/// A packet-processing element.
///
/// `Send + Sync` so a pipeline can move between orchestrator workers *and* be
/// shared by reference across the threads of a parallel Step-2 run (all
/// native state is mutated only through `&mut self`).
pub trait Element: Send + Sync {
    /// The element type name (e.g. `"CheckIPHeader"`). Used by the config
    /// language, reports, and summary caching (one summary per type name +
    /// configuration).
    fn type_name(&self) -> &'static str;

    /// A configuration string that, together with [`Element::type_name`],
    /// identifies this element's behaviour for summary caching. Elements with
    /// the same type name and config key share a verification summary.
    fn config_key(&self) -> String {
        String::new()
    }

    /// Number of output ports.
    fn output_ports(&self) -> usize;

    /// Process one packet natively.
    fn process(&mut self, packet: Packet) -> Action;

    /// The element's verification model.
    fn model(&self) -> Program;

    /// Initial data-structure contents for the model (e.g. a forwarding table
    /// compiled from the element's configuration). Keys are [`DsId`] indexes
    /// into the model's declarations.
    fn model_state(&self) -> BTreeMap<DsId, DsContents> {
        BTreeMap::new()
    }

    /// Reset the element's private state (e.g. between benchmark runs).
    fn reset(&mut self) {}

    /// The argument string that, passed to the config-language factory
    /// ([`crate::config::instantiate`]) together with [`Element::type_name`],
    /// reconstructs an element with identical verification behaviour.
    /// `None` means this element cannot be expressed in the config language
    /// (then a pipeline containing it cannot be serialised to config text —
    /// see [`crate::config::write_config`]).
    ///
    /// The default covers configuration-free elements; every element with a
    /// non-empty [`Element::config_key`] must override it.
    fn config_args(&self) -> Option<String> {
        if self.config_key().is_empty() {
            Some(String::new())
        } else {
            None
        }
    }

    /// Canonical text describing this element's verification-relevant
    /// behaviour: type name, configuration key, the pretty-printed IR model,
    /// and the model's initial data-structure contents. Two elements with
    /// equal fingerprint material have identical summaries, so the material
    /// is what content-addressed summary caches hash.
    fn fingerprint_material(&self) -> String {
        let mut material = String::new();
        material.push_str(self.type_name());
        material.push('\u{1f}');
        material.push_str(&self.config_key());
        material.push('\u{1f}');
        material.push_str(&dataplane_ir::pretty::program_to_string(&self.model()));
        for (ds, contents) in self.model_state() {
            material.push_str(&format!("\u{1f}ds{}:", ds.0));
            for (k, v) in contents {
                material.push_str(&format!("{k}={v},"));
            }
        }
        material
    }
}

/// Build the concrete [`ElementState`] for an element's model `program`
/// (what [`Element::model`] returned), with the model's static/private
/// tables populated from [`Element::model_state`].
pub fn build_model_state(element: &dyn Element, program: &Program) -> ElementState {
    let mut state = ElementState::for_program(program);
    for (ds, contents) in element.model_state() {
        if let Some(store) = state.store_mut(ds) {
            let width = store.decl().value_width;
            for (k, v) in contents {
                store.write(k, dataplane_ir::BitVec::new(width, v));
            }
        }
    }
    state
}

impl fmt::Debug for dyn Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}) [{} ports]",
            self.type_name(),
            self.config_key(),
            self.output_ports()
        )
    }
}

/// Run an element's **model** on a packet: interpret the IR program with the
/// model's initial state. Returns the action derived from the model's
/// outcome together with the instruction count. This is the reference
/// semantics that `process` must match.
pub fn run_model(element: &dyn Element, packet: &Packet) -> (Action, u64) {
    let program = element.model();
    let mut state = build_model_state(element, &program);
    run_program(
        &lower(&program),
        packet.clone(),
        &mut state,
        &mut Scratch::default(),
    )
}

/// Like [`run_model`], but against caller-managed state (so private state
/// persists across packets, as it does in the native element).
pub fn run_model_with_state(
    element: &dyn Element,
    packet: &Packet,
    state: &mut ElementState,
) -> (Action, u64) {
    let code = lower(&element.model());
    run_program(&code, packet.clone(), state, &mut Scratch::default())
}

/// Lower an element's model. Every model an element builds validates (its
/// builder checks it), so a failure here is a bug in the element.
pub(crate) fn lower(program: &Program) -> Lowered {
    Lowered::new(program).expect("an element model lowers")
}

/// The one model step every model runner shares: run an element's lowered
/// `code` on the packet's own bytes against `state`, and turn the outcome
/// into an [`Action`]. An emitted packet is the same packet moved on, so
/// its metadata is kept.
pub(crate) fn run_program(
    code: &Lowered,
    mut packet: Packet,
    state: &mut ElementState,
    scratch: &mut Scratch,
) -> (Action, u64) {
    let result = code
        .run(packet.bytes_mut(), state, &ExecLimits::default(), scratch)
        .expect("element model exceeded the interpreter instruction limit");
    let action = match result.outcome {
        dataplane_ir::Outcome::Emitted(port) => Action::Emit(port, packet),
        dataplane_ir::Outcome::Dropped => Action::Drop,
        dataplane_ir::Outcome::Crashed(reason) => Action::Crash(reason),
    };
    (action, result.instructions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_ir::builder::{Block, ProgramBuilder};
    use dataplane_ir::expr::dsl::*;

    /// A minimal element used to exercise the trait plumbing: forwards
    /// packets whose first byte is even to port 0 and odd ones to port 1.
    struct ParityFork;

    impl Element for ParityFork {
        fn type_name(&self) -> &'static str {
            "ParityFork"
        }
        fn output_ports(&self) -> usize {
            2
        }
        fn process(&mut self, packet: Packet) -> Action {
            match packet.get_u8(0) {
                Some(b) if b % 2 == 0 => Action::Emit(0, packet),
                Some(_) => Action::Emit(1, packet),
                None => Action::Crash(CrashReason::PacketOutOfBounds {
                    offset: 0,
                    width_bytes: 1,
                    packet_len: 0,
                }),
            }
        }
        fn model(&self) -> Program {
            let mut pb = ProgramBuilder::new("ParityFork", 2);
            let b0 = pb.local("b0", 8);
            let mut body = Block::new();
            body.assign(b0, pkt(0, 1));
            body.if_else(
                eq(and(l(b0), c(8, 1)), c(8, 0)),
                Block::with(|b| {
                    b.emit(0);
                }),
                Block::with(|b| {
                    b.emit(1);
                }),
            );
            pb.finish(body).unwrap()
        }
    }

    #[test]
    fn native_and_model_agree() {
        let mut e = ParityFork;
        for first in [0u8, 1, 2, 3, 250, 255] {
            let pkt = Packet::from_bytes(vec![first, 9, 9, 9]);
            let native = e.process(pkt.clone());
            let (model, instructions) = run_model(&e, &pkt);
            assert_eq!(native.port(), model.port(), "first byte {first}");
            assert!(instructions > 0);
        }
    }

    #[test]
    fn empty_packet_crashes_both_ways() {
        let mut e = ParityFork;
        let pkt = Packet::from_bytes(vec![]);
        assert!(e.process(pkt.clone()).is_crash());
        let (model, _) = run_model(&e, &pkt);
        assert!(model.is_crash());
    }

    #[test]
    fn action_helpers() {
        let pkt = Packet::from_bytes(vec![1]);
        assert_eq!(Action::Emit(3, pkt).port(), Some(3));
        assert_eq!(Action::Drop.port(), None);
        assert!(Action::Crash(CrashReason::DivisionByZero).is_crash());
        assert!(!Action::Drop.is_crash());
    }

    #[test]
    fn debug_formatting_mentions_type() {
        let e = ParityFork;
        let d: &dyn Element = &e;
        let s = format!("{:?}", d);
        assert!(s.contains("ParityFork"));
        assert!(s.contains("2 ports"));
    }

    #[test]
    fn default_model_state_is_empty() {
        let e = ParityFork;
        assert!(e.model_state().is_empty());
        let state = build_model_state(&e, &e.model());
        assert!(state.is_empty());
        assert_eq!(e.config_key(), "");
    }
}
