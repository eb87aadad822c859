//! The Step-2 prefix tree: every way a packet can walk the pipeline, one
//! summary segment per element, with each node's path constraint composed
//! over the original packet's symbols.
//!
//! The tree is the only place `crates/core` composes a path from summaries.
//! One depth-first walk ([`PrefixTree::walk`]) visits its nodes and hands
//! each step to a [`Visitor`]: the safety fold (suspect checks and edge
//! pruning), the temporal lasso hunt (Büchi subsets and candidate lassos) and
//! the instruction bound (a running maximum). Because every namespace is
//! depth-indexed ([`crate::compose::stride_for_depth`]), what a node composes
//! is a pure function of its path, whichever visitor asks.

use crate::compose::{extend_view, rewrite_all, View};
use crate::summary::ElementSummary;
use dataplane_pipeline::{ElementIdx, Pipeline};
use dataplane_symbex::term::TermRef;
use dataplane_symbex::Segment;
use std::sync::Arc;

/// Everything that identifies one node of the prefix tree: the element
/// reached, the composed view and constraint of the prefix leading to it,
/// and the path metadata reports need. The node's entire computation is a
/// pure function of this value.
#[derive(Clone)]
pub(crate) struct WalkInput {
    pub(crate) element: ElementIdx,
    pub(crate) view: View,
    pub(crate) depth: usize,
    pub(crate) constraint: Vec<TermRef>,
    /// Instance names along the path, ending at `element`.
    pub(crate) path: Vec<String>,
    /// Element index per composition depth (for static-state concretisation
    /// of depth-strided data-structure reads).
    pub(crate) elements: Vec<ElementIdx>,
    pub(crate) instructions: u64,
}

/// What a visitor tells the walk after one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Carry on with the next segment.
    Continue,
    /// The visitor has its answer: unwind the whole walk.
    Finished,
}

/// One consumer of the prefix tree. The walk enters a node, then takes
/// its element's segments in summary order: a forwarding segment is an
/// edge to a child node, any other segment (exit, drop, crash) a terminal.
pub(crate) trait Visitor {
    /// What a node hands down to its children.
    type Node;

    /// Enter `input` with the state its parent handed down; `None` prunes
    /// the node and everything below it.
    fn enter(&mut self, input: &WalkInput, inherited: Self::Node) -> Option<Self::Node>;

    /// The `edge`-th forwarding edge of `input`, through `segment` to
    /// `child`: the state to descend with, or `None` to prune the child.
    fn edge(
        &mut self,
        input: &WalkInput,
        node: &Self::Node,
        edge: usize,
        segment: &Segment,
        child: &WalkInput,
    ) -> Option<Self::Node>;

    /// A segment of `input` that leaves the pipeline.
    fn terminal(&mut self, input: &WalkInput, node: &Self::Node, segment: &Segment) -> Step;
}

/// A pipeline and its Step-1 summaries, seen as the prefix tree they span.
#[derive(Clone, Copy)]
pub(crate) struct PrefixTree<'a> {
    pub(crate) pipeline: &'a Pipeline,
    pub(crate) summaries: &'a [Arc<ElementSummary>],
}

impl<'a> PrefixTree<'a> {
    /// The tree's root: the pipeline's entry element, nothing composed yet.
    pub(crate) fn root(&self) -> WalkInput {
        let entry = self.pipeline.entry();
        WalkInput {
            element: entry,
            view: View::Original,
            depth: 0,
            constraint: Vec::new(),
            path: vec![self.pipeline.node(entry).name.clone()],
            elements: vec![entry],
            instructions: 0,
        }
    }

    /// The element `segment` of `element` forwards the packet to, if any.
    fn successor(&self, element: ElementIdx, segment: &Segment) -> Option<ElementIdx> {
        let port = segment.outcome.port()?;
        let node = self.pipeline.node(element);
        node.successors.get(port as usize).copied().flatten()
    }

    /// How many forwarding edges leave a node of `element`.
    pub(crate) fn edge_count(&self, element: ElementIdx) -> usize {
        self.summaries[element]
            .exploration
            .segments
            .iter()
            .filter(|segment| self.successor(element, segment).is_some())
            .count()
    }

    /// `input`'s path constraint extended by `segment`'s, composed at
    /// `input`'s depth.
    pub(crate) fn compose(&self, input: &WalkInput, segment: &Segment) -> Vec<TermRef> {
        let mut constraint = input.constraint.clone();
        constraint.extend(rewrite_all(&input.view, input.depth, &segment.constraint));
        constraint
    }

    /// The child of `input` reached through forwarding `segment` to `next` —
    /// the one way any walk derives a child.
    fn child(&self, input: &WalkInput, segment: &Segment, next: ElementIdx) -> WalkInput {
        let mut path = input.path.clone();
        path.push(self.pipeline.node(next).name.clone());
        let mut elements = input.elements.clone();
        elements.push(next);
        WalkInput {
            element: next,
            view: extend_view(&input.view, &segment.packet, input.depth),
            depth: input.depth + 1,
            constraint: self.compose(input, segment),
            path,
            elements,
            instructions: input.instructions + segment.instructions,
        }
    }

    /// `input`'s children, one per forwarding edge, in summary order.
    pub(crate) fn children<'s>(
        &'s self,
        input: &'s WalkInput,
    ) -> impl Iterator<Item = WalkInput> + 's {
        let segments = &self.summaries[input.element].exploration.segments;
        segments.iter().filter_map(move |segment| {
            let next = self.successor(input.element, segment)?;
            Some(self.child(input, segment, next))
        })
    }

    /// Visit the subtree rooted at `input` depth-first, segments in summary
    /// order. Returns [`Step::Finished`] once the visitor has finished.
    pub(crate) fn walk<V: Visitor>(
        &self,
        input: &WalkInput,
        inherited: V::Node,
        visitor: &mut V,
    ) -> Step {
        let Some(node) = visitor.enter(input, inherited) else {
            return Step::Continue;
        };
        let mut edge = 0;
        for segment in &self.summaries[input.element].exploration.segments {
            let step = match self.successor(input.element, segment) {
                Some(next) => {
                    let child = self.child(input, segment, next);
                    edge += 1;
                    match visitor.edge(input, &node, edge - 1, segment, &child) {
                        Some(down) => self.walk(&child, down, visitor),
                        None => Step::Continue,
                    }
                }
                None => visitor.terminal(input, &node, segment),
            };
            if step == Step::Finished {
                return Step::Finished;
            }
        }
        Step::Continue
    }
}
