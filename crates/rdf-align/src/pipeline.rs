//! One-call alignment pipeline: pick a method, get an alignment report.
//!
//! This is the "downstream user" API: wraps graph union, method
//! dispatch, and the §5 metrics into a single call.

use crate::engine::RefineEngine;
use crate::metrics::{edge_stats, node_counts, EdgeStats, NodeCounts};
use crate::methods::{
    deblank_partition_with, hybrid_partition_with, trivial_partition,
};
use crate::overlap_align::{overlap_align_with, OverlapConfig};
use crate::partition::{unaligned_nodes, Partition};
use crate::weighted::WeightedPartition;
use rdf_model::{CombinedGraph, NodeId, RdfGraph, Vocab};
use std::sync::Arc;

/// Which alignment method to run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Method {
    /// Label equality (§3.1).
    Trivial,
    /// Bisimulation on blank nodes (§3.3).
    Deblank,
    /// Bisimulation on unaligned non-literals (§3.4).
    #[default]
    Hybrid,
    /// Weighted partitions + overlap heuristic (§4.7), with threshold θ.
    Overlap(OverlapConfig),
}

impl Method {
    /// The default Overlap method (θ = 0.65).
    pub fn overlap() -> Self {
        Method::Overlap(OverlapConfig::default())
    }

    /// Overlap with a specific threshold.
    pub fn overlap_with_theta(theta: f64) -> Self {
        Method::Overlap(OverlapConfig {
            theta,
            ..OverlapConfig::default()
        })
    }
}

/// Result of aligning two versions.
pub struct Aligned {
    /// The combined graph the partition refers to.
    pub combined: CombinedGraph,
    /// The final (weighted) partition; weights are all zero for the
    /// partition-only methods.
    pub weighted: WeightedPartition,
    /// Edge-level statistics.
    pub edges: EdgeStats,
    /// Node-level statistics (non-literal nodes).
    pub nodes: NodeCounts,
    /// Nodes of either side left unaligned.
    pub unaligned: Vec<NodeId>,
}

impl Aligned {
    /// The plain partition.
    pub fn partition(&self) -> &Partition {
        &self.weighted.partition
    }

    /// Whether a source-local / target-local node pair is aligned.
    pub fn contains(&self, source: NodeId, target: NodeId) -> bool {
        self.weighted.partition.same_class(
            self.combined.from_source(source),
            self.combined.from_target(target),
        )
    }
}

/// Align two graph versions (sharing `vocab`) with the chosen method,
/// on the default (auto) thread configuration.
pub fn align(
    vocab: &Vocab,
    source: &RdfGraph,
    target: &RdfGraph,
    method: Method,
) -> Aligned {
    align_with(vocab, source, target, method, &mut RefineEngine::auto())
}

/// Align two graph versions through a caller-owned [`RefineEngine`],
/// reused across every refinement stage of the chosen method. The
/// engine carries the run's settings: its thread count, its recorder
/// (per-round spans with the signature and canonicalisation split,
/// plus this function's `align.union` and `align.metrics` spans) and
/// its stream-shard setting ([`RefineEngine::set_stream_shards`]:
/// Deblank and Hybrid fixpoints then run shard-at-a-time over a range
/// decomposition of the combined graph).
///
/// None of them changes the result: the alignment is bit-identical for
/// every thread count, every recorder and every stream-shard setting.
pub fn align_with(
    vocab: &Vocab,
    source: &RdfGraph,
    target: &RdfGraph,
    method: Method,
    engine: &mut RefineEngine,
) -> Aligned {
    let rec = Arc::clone(&engine.recorder);
    let combined = {
        let mut sp = rec.span("align.union");
        let combined = CombinedGraph::union(vocab, source, target);
        if sp.enabled() {
            sp.field("nodes", combined.graph().node_count());
            sp.field("triples", combined.graph().triple_count());
        }
        combined
    };
    let weighted = match method {
        Method::Trivial => {
            WeightedPartition::zero(trivial_partition(&combined))
        }
        Method::Deblank => WeightedPartition::zero(
            deblank_partition_with(&combined, engine).partition,
        ),
        Method::Hybrid => WeightedPartition::zero(
            hybrid_partition_with(&combined, engine).partition,
        ),
        Method::Overlap(cfg) => {
            overlap_align_with(&combined, vocab, cfg, engine).weighted
        }
    };
    let mut sp = rec.span("align.metrics");
    let edges = edge_stats(&weighted.partition, &combined);
    let nodes = node_counts(&weighted.partition, &combined);
    let unaligned = unaligned_nodes(&weighted.partition, &combined);
    if sp.enabled() {
        sp.field("unaligned", unaligned.len());
    }
    drop(sp);
    Aligned {
        combined,
        weighted,
        edges,
        nodes,
        unaligned,
    }
}

/// Default shard count for the streaming alignment path when the
/// caller has no on-disk shard structure to mirror (the CLI's
/// `align --streaming` sets it as the engine's stream-shard count, a
/// range decomposition of the combined graph). The output is
/// independent of the shard count, so this is purely a
/// residency-granularity knob.
pub const DEFAULT_STREAM_SHARDS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::RdfGraphBuilder;
    use rdf_par::Threads;

    fn versions() -> (Vocab, RdfGraph, RdfGraph) {
        let mut vocab = Vocab::new();
        let v1 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("old:x", "p", "shared value one");
            b.uul("old:x", "q", "shared value two");
            b.finish()
        };
        let v2 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("new:x", "p", "shared value one");
            b.uul("new:x", "q", "shared value two");
            b.finish()
        };
        (vocab, v1, v2)
    }

    #[test]
    fn method_progression() {
        let (vocab, v1, v2) = versions();
        let t = align(&vocab, &v1, &v2, Method::Trivial);
        let h = align(&vocab, &v1, &v2, Method::Hybrid);
        assert!(t.nodes.aligned_classes < h.nodes.aligned_classes);
        assert!(t.edges.ratio() < h.edges.ratio());
        assert!(!t.unaligned.is_empty());
        // Hybrid aligns the renamed URI.
        assert!(h.contains(NodeId(0), NodeId(0)));
        assert!(!t.contains(NodeId(0), NodeId(0)));
    }

    #[test]
    fn overlap_method_runs() {
        let (vocab, v1, v2) = versions();
        let o = align(&vocab, &v1, &v2, Method::overlap());
        assert!(o.edges.ratio() >= 0.99);
        let o2 = align(&vocab, &v1, &v2, Method::overlap_with_theta(0.4));
        assert!(o2.edges.ratio() >= o.edges.ratio() - 1e-12);
    }

    #[test]
    fn default_method_is_hybrid() {
        assert_eq!(Method::default(), Method::Hybrid);
    }

    /// A fresh engine on `threads`, streaming through `shards` range
    /// shards when given.
    fn engine(threads: usize, shards: Option<usize>) -> RefineEngine {
        let mut engine = RefineEngine::new(Threads::Fixed(threads));
        engine.set_stream_shards(shards);
        engine
    }

    #[test]
    fn streaming_alignment_matches_in_ram_alignment() {
        let (vocab, v1, v2) = versions();
        for method in [Method::Trivial, Method::Deblank, Method::Hybrid] {
            let in_ram =
                align_with(&vocab, &v1, &v2, method, &mut engine(1, None));
            for shards in [1usize, 2, 4, 8] {
                for threads in [1usize, 2, 4] {
                    let streamed = align_with(
                        &vocab,
                        &v1,
                        &v2,
                        method,
                        &mut engine(threads, Some(shards)),
                    );
                    assert_eq!(
                        streamed.partition().colors(),
                        in_ram.partition().colors(),
                        "{method:?} shards={shards} threads={threads}"
                    );
                    assert_eq!(streamed.edges.ratio(), in_ram.edges.ratio());
                    assert_eq!(streamed.unaligned, in_ram.unaligned);
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (vocab, v1, v2) = versions();
        for method in [Method::Trivial, Method::Deblank, Method::Hybrid] {
            let one =
                align_with(&vocab, &v1, &v2, method, &mut engine(1, None));
            let four =
                align_with(&vocab, &v1, &v2, method, &mut engine(4, None));
            assert_eq!(
                one.partition().colors(),
                four.partition().colors(),
                "{method:?} diverged across thread counts"
            );
            assert_eq!(one.edges.ratio(), four.edges.ratio());
            assert_eq!(one.unaligned, four.unaligned);
        }
    }
}
