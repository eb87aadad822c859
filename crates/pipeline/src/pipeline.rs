//! Pipeline graphs: directed graphs of element instances connected port to
//! port.
//!
//! Following the paper, a pipeline is a DAG of elements in which a packet is
//! pushed from the entry element downstream until it is emitted by an element
//! with an unconnected port (leaves the pipeline), dropped, or the pipeline
//! crashes. Each output port connects to at most one downstream element;
//! multiple upstream ports may feed the same element.

use crate::element::{Action, Element};
use dataplane_ir::CrashReason;
use dataplane_net::Packet;
use std::fmt;

/// Identifies an element instance within a pipeline.
pub type ElementIdx = usize;

/// One element instance plus its wiring.
pub struct ElementNode {
    /// Instance name (unique within the pipeline).
    pub name: String,
    /// The element implementation.
    pub element: Box<dyn Element>,
    /// Downstream connection per output port: `successors[p]` is the element
    /// that receives packets emitted on port `p`, or `None` if port `p` exits
    /// the pipeline.
    pub successors: Vec<Option<ElementIdx>>,
}

impl fmt::Debug for ElementNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} :: {:?} -> {:?}",
            self.name, self.element, self.successors
        )
    }
}

/// Errors building a pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// Two elements share a name.
    DuplicateName(String),
    /// A connection references an element name that was never declared.
    UnknownElement(String),
    /// A connection references an output port the element does not have.
    InvalidPort {
        /// Element instance name.
        element: String,
        /// The port that was out of range.
        port: u8,
        /// How many output ports the element actually has.
        available: usize,
    },
    /// An output port was connected twice.
    PortAlreadyConnected {
        /// Element instance name.
        element: String,
        /// The port connected twice.
        port: u8,
    },
    /// The element graph contains a cycle (packets could loop forever).
    CyclicGraph,
    /// The pipeline has no elements.
    Empty,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::DuplicateName(n) => write!(f, "duplicate element name '{n}'"),
            PipelineError::UnknownElement(n) => write!(f, "unknown element '{n}'"),
            PipelineError::InvalidPort {
                element,
                port,
                available,
            } => write!(
                f,
                "element '{element}' has {available} output ports, port {port} does not exist"
            ),
            PipelineError::PortAlreadyConnected { element, port } => {
                write!(f, "output port {port} of '{element}' is already connected")
            }
            PipelineError::CyclicGraph => write!(f, "element graph contains a cycle"),
            PipelineError::Empty => write!(f, "pipeline has no elements"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Builder for [`Pipeline`].
#[derive(Default)]
pub struct PipelineBuilder {
    nodes: Vec<ElementNode>,
}

impl PipelineBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PipelineBuilder { nodes: Vec::new() }
    }

    /// Add an element instance under `name` and return its index.
    pub fn add(&mut self, name: impl Into<String>, element: Box<dyn Element>) -> ElementIdx {
        let ports = element.output_ports();
        self.nodes.push(ElementNode {
            name: name.into(),
            element,
            successors: vec![None; ports],
        });
        self.nodes.len() - 1
    }

    /// Connect output port `port` of `from` to `to`.
    pub fn connect(&mut self, from: ElementIdx, port: u8, to: ElementIdx) -> &mut Self {
        self.nodes[from].successors[port as usize] = Some(to);
        self
    }

    /// [`PipelineBuilder::connect`] for untrusted input (config text): an
    /// output port `from` does not have is an error, not a panic.
    pub fn try_connect(
        &mut self,
        from: ElementIdx,
        port: u8,
        to: ElementIdx,
    ) -> Result<&mut Self, PipelineError> {
        let node = &self.nodes[from];
        let available = node.successors.len();
        if usize::from(port) >= available {
            return Err(PipelineError::InvalidPort {
                element: node.name.clone(),
                port,
                available,
            });
        }
        Ok(self.connect(from, port, to))
    }

    /// Convenience: connect port 0 of each element to the next, forming a
    /// linear chain.
    pub fn chain(&mut self, elements: &[ElementIdx]) -> &mut Self {
        for pair in elements.windows(2) {
            self.connect(pair[0], 0, pair[1]);
        }
        self
    }

    /// Finish building: validate names, ports, and acyclicity. The first
    /// element added is the pipeline entry.
    pub fn build(self) -> Result<Pipeline, PipelineError> {
        Pipeline::from_nodes(self.nodes, 0)
    }

    /// Finish building with an explicit entry element.
    pub fn build_with_entry(self, entry: ElementIdx) -> Result<Pipeline, PipelineError> {
        Pipeline::from_nodes(self.nodes, entry)
    }
}

/// A validated pipeline.
pub struct Pipeline {
    nodes: Vec<ElementNode>,
    entry: ElementIdx,
}

impl Pipeline {
    /// Start building a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::new()
    }

    fn from_nodes(nodes: Vec<ElementNode>, entry: ElementIdx) -> Result<Pipeline, PipelineError> {
        if nodes.is_empty() {
            return Err(PipelineError::Empty);
        }
        // Unique names.
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                if a.name == b.name {
                    return Err(PipelineError::DuplicateName(a.name.clone()));
                }
            }
        }
        // Cycle detection (DFS colouring).
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        fn dfs(
            nodes: &[ElementNode],
            colours: &mut [Colour],
            i: ElementIdx,
        ) -> Result<(), PipelineError> {
            colours[i] = Colour::Grey;
            for succ in nodes[i].successors.iter().flatten() {
                match colours[*succ] {
                    Colour::Grey => return Err(PipelineError::CyclicGraph),
                    Colour::White => dfs(nodes, colours, *succ)?,
                    Colour::Black => {}
                }
            }
            colours[i] = Colour::Black;
            Ok(())
        }
        let mut colours = vec![Colour::White; nodes.len()];
        for i in 0..nodes.len() {
            if colours[i] == Colour::White {
                dfs(&nodes, &mut colours, i)?;
            }
        }
        Ok(Pipeline { nodes, entry })
    }

    /// Number of element instances.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the pipeline has no elements (never true for a built pipeline).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The entry element index.
    pub fn entry(&self) -> ElementIdx {
        self.entry
    }

    /// Access a node.
    pub fn node(&self, idx: ElementIdx) -> &ElementNode {
        &self.nodes[idx]
    }

    /// Mutable access to a node's element (e.g. to reset private state).
    pub fn element_mut(&mut self, idx: ElementIdx) -> &mut dyn Element {
        self.nodes[idx].element.as_mut()
    }

    /// Iterate over `(index, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ElementIdx, &ElementNode)> {
        self.nodes.iter().enumerate()
    }

    /// Find an element index by instance name.
    pub fn find(&self, name: &str) -> Option<ElementIdx> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// The indices of elements in a topological order starting from the
    /// entry (elements unreachable from the entry are appended at the end).
    pub fn topological_order(&self) -> Vec<ElementIdx> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut visited = vec![false; self.nodes.len()];
        fn visit(
            nodes: &[ElementNode],
            visited: &mut [bool],
            order: &mut Vec<ElementIdx>,
            i: ElementIdx,
        ) {
            if visited[i] {
                return;
            }
            visited[i] = true;
            for succ in nodes[i].successors.iter().flatten() {
                visit(nodes, visited, order, *succ);
            }
            order.push(i);
        }
        visit(&self.nodes, &mut visited, &mut order, self.entry);
        for i in 0..self.nodes.len() {
            visit(&self.nodes, &mut visited, &mut order, i);
        }
        order.reverse();
        order
    }

    /// The maximum number of elements a packet can traverse (longest path
    /// from the entry). Used by reports and by the verifier's path budget.
    pub fn longest_path_len(&self) -> usize {
        fn depth(nodes: &[ElementNode], memo: &mut [Option<usize>], i: ElementIdx) -> usize {
            if let Some(d) = memo[i] {
                return d;
            }
            let d = 1 + nodes[i]
                .successors
                .iter()
                .flatten()
                .map(|s| depth(nodes, memo, *s))
                .max()
                .unwrap_or(0);
            memo[i] = Some(d);
            d
        }
        let mut memo = vec![None; self.nodes.len()];
        depth(&self.nodes, &mut memo, self.entry)
    }

    /// Reset the private state of every element.
    pub fn reset(&mut self) {
        for n in &mut self.nodes {
            n.element.reset();
        }
    }

    /// Push one packet into the pipeline at the entry element and process it
    /// natively to completion.
    pub fn push(&mut self, packet: Packet) -> PipelineOutcome {
        self.push_at(self.entry, packet)
    }

    /// Push one packet into the pipeline at a specific element.
    pub fn push_at(&mut self, start: ElementIdx, packet: Packet) -> PipelineOutcome {
        let mut current = start;
        let mut pkt = packet;
        let mut hops = Vec::new();
        // A packet can visit each element at most once in a DAG, so the hop
        // count is bounded by the pipeline length.
        loop {
            hops.push(current);
            let action = self.nodes[current].element.process(pkt);
            match action {
                Action::Drop => {
                    return PipelineOutcome {
                        disposition: Disposition::Dropped { at: current },
                        hops,
                    }
                }
                Action::Crash(reason) => {
                    return PipelineOutcome {
                        disposition: Disposition::Crashed {
                            at: current,
                            reason,
                        },
                        hops,
                    }
                }
                Action::Emit(port, out_pkt) => {
                    match self.nodes[current].successors.get(port as usize) {
                        Some(Some(next)) => {
                            current = *next;
                            pkt = out_pkt;
                        }
                        _ => {
                            return PipelineOutcome {
                                disposition: Disposition::Exited {
                                    at: current,
                                    port,
                                    packet: out_pkt,
                                },
                                hops,
                            }
                        }
                    }
                }
            }
        }
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Pipeline({} elements, entry={})",
            self.nodes.len(),
            self.entry
        )?;
        for (i, n) in self.nodes.iter().enumerate() {
            writeln!(f, "  [{i}] {:?}", n)?;
        }
        Ok(())
    }
}

/// How a packet's traversal of the pipeline ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// The packet left the pipeline through an unconnected output port.
    Exited {
        /// Element it exited from.
        at: ElementIdx,
        /// Output port it exited on.
        port: u8,
        /// The final packet.
        packet: Packet,
    },
    /// The packet was dropped.
    Dropped {
        /// Element that dropped it.
        at: ElementIdx,
    },
    /// An element crashed.
    Crashed {
        /// Element that crashed.
        at: ElementIdx,
        /// Why it crashed.
        reason: CrashReason,
    },
}

/// Result of pushing one packet through the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineOutcome {
    /// Terminal disposition.
    pub disposition: Disposition,
    /// The sequence of elements the packet visited.
    pub hops: Vec<ElementIdx>,
}

impl PipelineOutcome {
    /// True if the traversal ended in a crash.
    pub fn is_crash(&self) -> bool {
        matches!(self.disposition, Disposition::Crashed { .. })
    }

    /// True if the packet exited the pipeline (was forwarded).
    pub fn is_forwarded(&self) -> bool {
        matches!(self.disposition, Disposition::Exited { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Action;
    use dataplane_ir::builder::{Block, ProgramBuilder};
    use dataplane_ir::Program;

    /// Pass-through element with a configurable number of ports; emits on
    /// port (first byte % ports).
    struct Spread {
        ports: usize,
    }

    impl Element for Spread {
        fn type_name(&self) -> &'static str {
            "Spread"
        }
        fn output_ports(&self) -> usize {
            self.ports
        }
        fn process(&mut self, packet: Packet) -> Action {
            let port = packet.get_u8(0).unwrap_or(0) as usize % self.ports;
            Action::Emit(port as u8, packet)
        }
        fn model(&self) -> Program {
            let pb = ProgramBuilder::new("Spread", self.ports as u8);
            let mut b = Block::new();
            b.emit(0);
            pb.finish(b).unwrap()
        }
    }

    fn spread(ports: usize) -> Box<dyn Element> {
        Box::new(Spread { ports })
    }

    #[test]
    fn linear_chain_forwards_to_exit() {
        let mut pb = Pipeline::builder();
        let a = pb.add("a", spread(1));
        let b = pb.add("b", spread(1));
        let c = pb.add("c", spread(1));
        pb.chain(&[a, b, c]);
        let mut pipeline = pb.build().unwrap();
        assert_eq!(pipeline.len(), 3);
        assert_eq!(pipeline.longest_path_len(), 3);
        assert_eq!(pipeline.topological_order(), vec![a, b, c]);
        assert_eq!(pipeline.find("b"), Some(b));
        assert_eq!(pipeline.find("zzz"), None);

        let out = pipeline.push(Packet::from_bytes(vec![0, 1, 2]));
        assert!(out.is_forwarded());
        assert_eq!(out.hops, vec![a, b, c]);
        match out.disposition {
            Disposition::Exited { at, port, .. } => {
                assert_eq!(at, c);
                assert_eq!(port, 0);
            }
            _ => panic!("expected exit"),
        }
    }

    #[test]
    fn branching_routes_by_port() {
        let mut pb = Pipeline::builder();
        let fork = pb.add("fork", spread(2));
        let left = pb.add("left", spread(1));
        let right = pb.add("right", spread(1));
        pb.connect(fork, 0, left).connect(fork, 1, right);
        let mut pipeline = pb.build().unwrap();

        let out = pipeline.push(Packet::from_bytes(vec![0]));
        assert_eq!(out.hops, vec![fork, left]);
        let out = pipeline.push(Packet::from_bytes(vec![1]));
        assert_eq!(out.hops, vec![fork, right]);
    }

    #[test]
    fn cycle_rejected() {
        let mut pb = Pipeline::builder();
        let a = pb.add("a", spread(1));
        let b = pb.add("b", spread(1));
        pb.connect(a, 0, b).connect(b, 0, a);
        assert_eq!(pb.build().unwrap_err(), PipelineError::CyclicGraph);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut pb = Pipeline::builder();
        pb.add("x", spread(1));
        pb.add("x", spread(1));
        assert_eq!(
            pb.build().unwrap_err(),
            PipelineError::DuplicateName("x".into())
        );
    }

    #[test]
    fn empty_pipeline_rejected() {
        assert_eq!(
            PipelineBuilder::new().build().unwrap_err(),
            PipelineError::Empty
        );
    }

    #[test]
    fn explicit_entry_and_push_at() {
        let mut pb = Pipeline::builder();
        let a = pb.add("a", spread(1));
        let b = pb.add("b", spread(1));
        pb.connect(a, 0, b);
        let mut pipeline = pb.build_with_entry(b).unwrap();
        assert_eq!(pipeline.entry(), b);
        let out = pipeline.push(Packet::from_bytes(vec![5]));
        assert_eq!(out.hops, vec![b]);
        let out = pipeline.push_at(a, Packet::from_bytes(vec![5]));
        assert_eq!(out.hops, vec![a, b]);
    }

    #[test]
    fn error_display_all_variants() {
        let errs: Vec<PipelineError> = vec![
            PipelineError::DuplicateName("a".into()),
            PipelineError::UnknownElement("b".into()),
            PipelineError::InvalidPort {
                element: "c".into(),
                port: 3,
                available: 1,
            },
            PipelineError::PortAlreadyConnected {
                element: "d".into(),
                port: 0,
            },
            PipelineError::CyclicGraph,
            PipelineError::Empty,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn debug_output_lists_elements() {
        let mut pb = Pipeline::builder();
        pb.add("first", spread(1));
        let p = pb.build().unwrap();
        let s = format!("{:?}", p);
        assert!(s.contains("first"));
        assert!(s.contains("1 elements"));
        assert!(!p.is_empty());
        assert!(p.node(0).name == "first");
    }
}
