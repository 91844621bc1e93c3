//! Shard-local column views for streaming refinement.
//!
//! The I/O-efficient bisimulation constructions (Luo et al., Hellings
//! et al.) run each refinement round *partition-at-a-time*: only the
//! dense color vector stays resident while the adjacency of one
//! partition (here: one shard of a subject-partitioned store) is
//! loaded, consumed and dropped. This module provides the graph-side
//! vocabulary for that loop:
//!
//! * [`ShardColumns`] — the grouped-CSR `(predicate, object)` columns
//!   of the subjects present in *one* shard, the unit of residency;
//! * [`ShardColumnsSource`] — anything that can produce the columns of
//!   shard `k` on demand (an on-disk sharded store, or an in-memory
//!   decomposition of a [`TripleGraph`]);
//! * [`GraphShards`] — the in-memory source: a contiguous
//!   subject-range decomposition of a resident graph, used to run the
//!   engine's shard path over graphs that were never sharded on disk
//!   (e.g. the combined alignment graph) and to test equivalence.
//!
//! Because every subject's full out-neighbourhood lives in exactly one
//! shard (shards partition subjects), a consumer that visits each
//! shard once sees each node's `out(n)` exactly once — which is all a
//! refinement signature phase needs.

use crate::graph::{NodeId, Triple, TripleGraph};
use std::convert::Infallible;
use std::ops::Range;

/// The grouped-CSR outbound columns of one shard: the `(pred, obj)`
/// pairs of every subject the shard holds, subjects ascending.
///
/// Unlike [`crate::OutColumns`], which spans every node of a graph,
/// a `ShardColumns` covers only the subjects present in its shard;
/// subjects with no outbound edges appear in *no* shard. Edge `j` of
/// local subject `i` is `(preds()[j], objs()[j])` for `j` in
/// `range(i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardColumns {
    subjects: Vec<NodeId>,
    /// Per-subject offsets into the columns; `subjects.len() + 1` long.
    offsets: Vec<u32>,
    preds: Vec<NodeId>,
    objs: Vec<NodeId>,
    /// Largest node id referenced anywhere (subject, predicate or
    /// object); `None` when the shard is empty.
    max_node: Option<NodeId>,
}

impl ShardColumns {
    /// Group a shard's triple run into columns.
    ///
    /// The run must be grouped by subject with subjects in ascending
    /// order — which every sorted `(s, p, o)` run (the on-disk shard
    /// format, and any sorted slice of [`TripleGraph::triples`]) is.
    /// A malformed run (a subject appearing in two groups) is not
    /// detected here; it surfaces as a typed overlap error in the
    /// streaming consumer, which sees the subject twice.
    pub fn from_sorted_triples(triples: &[Triple]) -> ShardColumns {
        Self::from_sorted_iter(triples.iter().copied())
    }

    /// Group a streamed shard run into columns without requiring an
    /// intermediate `Vec<Triple>` — the zero-copy fixed-width loader
    /// feeds decoded columns straight through this. Same grouped-by-
    /// ascending-subject contract as
    /// [`ShardColumns::from_sorted_triples`].
    pub fn from_sorted_iter(
        triples: impl Iterator<Item = Triple>,
    ) -> ShardColumns {
        let (lo, _) = triples.size_hint();
        let mut subjects: Vec<NodeId> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut preds: Vec<NodeId> = Vec::with_capacity(lo);
        let mut objs: Vec<NodeId> = Vec::with_capacity(lo);
        let mut max_node: Option<NodeId> = None;
        for t in triples {
            if subjects.last() != Some(&t.s) {
                subjects.push(t.s);
                offsets.push(preds.len() as u32);
            }
            preds.push(t.p);
            objs.push(t.o);
            let m = t.s.max(t.p).max(t.o);
            max_node = Some(max_node.map_or(m, |prev| prev.max(m)));
        }
        offsets.push(preds.len() as u32);
        ShardColumns {
            subjects,
            offsets,
            preds,
            objs,
            max_node,
        }
    }

    /// The subjects present in this shard, ascending.
    #[inline]
    pub fn subjects(&self) -> &[NodeId] {
        &self.subjects
    }

    /// Number of subjects in the shard.
    #[inline]
    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    /// The edge-index range of local subject `i` (an index into
    /// [`ShardColumns::subjects`], not a node id).
    #[inline]
    pub fn range(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// The predicate column, indexed by edge.
    #[inline]
    pub fn preds(&self) -> &[NodeId] {
        &self.preds
    }

    /// The object column, indexed by edge.
    #[inline]
    pub fn objs(&self) -> &[NodeId] {
        &self.objs
    }

    /// Number of edges (triples) in the shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the shard holds no edges.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Largest node id referenced by any triple of the shard, or
    /// `None` for an empty shard. Streaming consumers check this once
    /// per shard instead of bounds-checking every edge.
    #[inline]
    pub fn max_node(&self) -> Option<NodeId> {
        self.max_node
    }

    /// Heap bytes this view keeps resident — the shard path's
    /// peak-memory proxy (`4` bytes per subject, offset, predicate and
    /// object entry).
    pub fn resident_bytes(&self) -> usize {
        4 * (self.subjects.len()
            + self.offsets.len()
            + self.preds.len()
            + self.objs.len())
    }
}

/// A source of per-shard column views: the abstraction the streaming
/// refinement engine consumes.
///
/// Contract: the shards partition the *subjects* of one graph — every
/// node with at least one outbound edge appears as a subject in
/// exactly one shard, with its complete out-neighbourhood. Nodes
/// without outbound edges appear in no shard. `load_shard` may be
/// called repeatedly for the same index (once per refinement round)
/// and from multiple threads for distinct indices.
pub trait ShardColumnsSource {
    /// Error produced by a failed shard load ([`Infallible`] for
    /// in-memory sources).
    type Error;

    /// Total node count of the underlying graph (the length of the
    /// color vector the consumer keeps resident).
    fn node_count(&self) -> usize;

    /// Number of shards.
    fn shard_count(&self) -> usize;

    /// Produce the columns of shard `k` (`k < shard_count()`). The
    /// caller drops the result before requesting another shard, so
    /// implementations should build the view fresh rather than cache
    /// it.
    fn load_shard(&self, k: usize) -> Result<ShardColumns, Self::Error>;
}

/// An in-memory [`ShardColumnsSource`]: a resident [`TripleGraph`]
/// decomposed into contiguous subject ranges.
///
/// The shard path's output is independent of *how* subjects are
/// grouped into shards (any disjoint cover gives the same result), so
/// the simplest deterministic decomposition — near-even contiguous
/// node ranges — serves both the in-RAM streaming path (refining a
/// combined alignment graph shard-at-a-time) and the equivalence test
/// suite.
#[derive(Debug)]
pub struct GraphShards<'g> {
    graph: &'g TripleGraph,
    ranges: Vec<Range<u32>>,
}

impl<'g> GraphShards<'g> {
    /// Decompose `graph` into at most `shards` contiguous, non-empty,
    /// near-even subject ranges (fewer when the graph has fewer nodes
    /// than `shards`).
    pub fn chunked(graph: &'g TripleGraph, shards: usize) -> Self {
        let n = graph.node_count();
        let parts = shards.max(1).min(n);
        let mut ranges = Vec::with_capacity(parts);
        if let (Some(base), Some(rem)) =
            (n.checked_div(parts), n.checked_rem(parts))
        {
            let mut start = 0u32;
            for i in 0..parts {
                let size = (base + usize::from(i < rem)) as u32;
                ranges.push(start..start + size);
                start += size;
            }
        }
        GraphShards { graph, ranges }
    }
}

impl ShardColumnsSource for GraphShards<'_> {
    type Error = Infallible;

    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    fn load_shard(&self, k: usize) -> Result<ShardColumns, Infallible> {
        let range = self.ranges[k].clone();
        let mut subjects = Vec::new();
        let mut offsets = Vec::new();
        let mut preds = Vec::new();
        let mut objs = Vec::new();
        let mut max_node: Option<NodeId> = None;
        for id in range {
            let s = NodeId(id);
            let out = self.graph.out(s);
            if out.is_empty() {
                continue;
            }
            subjects.push(s);
            offsets.push(preds.len() as u32);
            let mut m = s;
            for &(p, o) in out {
                preds.push(p);
                objs.push(o);
                m = m.max(p).max(o);
            }
            max_node = Some(max_node.map_or(m, |prev| prev.max(m)));
        }
        offsets.push(preds.len() as u32);
        Ok(ShardColumns {
            subjects,
            offsets,
            preds,
            objs,
            max_node,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::label::Vocab;

    fn sample() -> TripleGraph {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..7)
            .map(|i| b.add_node(v.uri(&format!("n{i}")), &v))
            .collect();
        for i in 0..7usize {
            for j in 0..7usize {
                if (i * 5 + j) % 3 == 0 && i != j {
                    b.add_triple(nodes[i], nodes[(i + j) % 7], nodes[j]);
                }
            }
        }
        b.freeze()
    }

    #[test]
    fn from_sorted_triples_groups_by_subject() {
        let g = sample();
        let cols = ShardColumns::from_sorted_triples(g.triples());
        assert_eq!(cols.len(), g.triple_count());
        // Every subject with out-edges appears once, ascending, with
        // exactly its out(n) pairs.
        let mut seen = 0usize;
        for (i, &s) in cols.subjects().iter().enumerate() {
            if i > 0 {
                assert!(cols.subjects()[i - 1] < s, "subjects ascend");
            }
            let pairs: Vec<(NodeId, NodeId)> = cols
                .range(i)
                .map(|j| (cols.preds()[j], cols.objs()[j]))
                .collect();
            assert_eq!(pairs.as_slice(), g.out(s));
            seen += pairs.len();
        }
        assert_eq!(seen, g.triple_count());
        assert!(cols.max_node().is_some());
        assert!(cols.resident_bytes() > 0);

        let empty = ShardColumns::from_sorted_triples(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.subject_count(), 0);
        assert_eq!(empty.max_node(), None);
    }

    #[test]
    fn graph_shards_cover_every_edge_once() {
        let g = sample();
        for shards in [1usize, 2, 3, 8, 100] {
            let src = GraphShards::chunked(&g, shards);
            assert!(src.shard_count() >= 1);
            assert!(src.shard_count() <= shards.max(1));
            assert_eq!(src.node_count(), g.node_count());
            let mut total = 0usize;
            let mut subjects: Vec<NodeId> = Vec::new();
            for k in 0..src.shard_count() {
                let cols = src.load_shard(k).unwrap();
                for (i, &s) in cols.subjects().iter().enumerate() {
                    subjects.push(s);
                    let pairs: Vec<(NodeId, NodeId)> = cols
                        .range(i)
                        .map(|j| (cols.preds()[j], cols.objs()[j]))
                        .collect();
                    assert_eq!(pairs.as_slice(), g.out(s));
                    total += pairs.len();
                }
            }
            assert_eq!(total, g.triple_count(), "shards={shards}");
            // Disjoint cover: no subject appears twice.
            let mut dedup = subjects.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), subjects.len());
        }
    }

    #[test]
    fn empty_graph_decomposes_to_no_shards() {
        let g = GraphBuilder::new().freeze();
        let src = GraphShards::chunked(&g, 4);
        assert_eq!(src.shard_count(), 0);
        assert_eq!(src.node_count(), 0);
    }
}
