//! Shard-at-a-time adjacency for [`RefineEngine`] — its
//! external-memory signature phase.
//!
//! The resident path holds the whole graph's grouped-CSR columns for
//! the entire fixpoint. Following the I/O-efficient bisimulation
//! constructions (Luo et al., Hellings et al.), the shard path instead
//! keeps only the **dense color vector** (and the round's key column)
//! resident and sources the adjacency one shard at a time from a
//! [`ShardColumnsSource`] — on-disk shard files of a `.rdfm` store, or
//! an in-memory range decomposition ([`rdf_model::GraphShards`]). A
//! round runs through the engine's one round driver; only the
//! signature phase differs:
//!
//! 1. workers walk disjoint shard-index ranges; for each shard they
//!    load its columns, compute every subject's `RoundKey` (the
//!    identical equation-1 signature the resident path hashes, via the
//!    shared `node_key`), **spill** the `(node, key)` pairs into a
//!    per-shard buffer, and drop the columns before touching the next
//!    shard — so at most one shard's columns are resident per worker
//!    at any instant;
//! 2. the calling thread scatters the spills, in shard order, into the
//!    key column, checking that no node is claimed twice; nodes no
//!    shard claimed (no outbound edges) get the key of an empty pair
//!    set. The key column then goes through the same class-indexed
//!    canonicaliser as the resident path, in node order — so the
//!    output partition is **bit-identical** to the resident path (and
//!    the sequential reference) for every shard count, every way of
//!    grouping subjects into shards, and every thread count.
//!
//! Shard loads may fail (disk corruption, missing files), so the shard
//! entry points return a `Result`; errors are deterministic — the
//! lowest-indexed failing shard wins at every thread count, via
//! [`rdf_par::scoped_try_map`].

use crate::engine::{node_key, RefineEngine, RoundColors, RoundKey};
use crate::partition::Partition;
use crate::refine::RefineOutcome;
use rdf_model::{LabelId, ShardColumns, ShardColumnsSource};
use rdf_par::{chunk_ranges, scoped_try_map};
use std::fmt;
use std::ops::Range;
use std::time::Instant;

/// Failure of a refinement run over a shard source.
#[derive(Debug)]
pub enum StreamError<E> {
    /// A shard failed to load; carries the source's error.
    Source(E),
    /// A node appeared as a subject in more than one shard (or twice
    /// in one shard) — the source violated the subject-partition
    /// contract.
    Overlap {
        /// The node that was seen twice.
        node: u32,
    },
    /// A shard referenced a node id beyond the source's node count.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The source's node count.
        nodes: usize,
    },
}

impl<E: fmt::Display> fmt::Display for StreamError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "shard load failed: {e}"),
            StreamError::Overlap { node } => write!(
                f,
                "node {node} appears as a subject in more than one shard"
            ),
            StreamError::NodeOutOfRange { node, nodes } => write!(
                f,
                "shard references node {node} beyond node count {nodes}"
            ),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for StreamError<E> {}

/// One spilled signature buffer: a shard's `(node, key)` pairs, plus
/// the columns bytes that were resident while it was produced.
type Spill = (Vec<(u32, RoundKey)>, usize);

impl RefineEngine {
    /// The largest columns residency (in bytes, per
    /// [`ShardColumns::resident_bytes`]) any single worker held on the
    /// shard path since this engine was built — the external-memory
    /// claim, measurable: total adjacency residency is bounded by
    /// `threads × peak_shard_bytes`, independent of total graph size.
    /// Zero until a shard fixpoint has run.
    pub fn peak_shard_bytes(&self) -> usize {
        self.peak_shard_bytes
    }

    /// Run `BisimRefine*_X(λ)` to fixpoint (Definition 4) over a shard
    /// source, with a membership mask for `X`.
    ///
    /// Semantics, round count and output partition are bit-identical
    /// to [`RefineEngine::refine_fixpoint_mask`] on the stitched graph,
    /// for every shard count and thread count.
    pub fn refine_fixpoint_shards<S>(
        &mut self,
        source: &S,
        initial: Partition,
        in_x: &[bool],
    ) -> Result<RefineOutcome, StreamError<S::Error>>
    where
        S: ShardColumnsSource + Sync,
        S::Error: Send,
    {
        let n = source.node_count();
        // Validate on the calling thread before any worker spawns,
        // mirroring the resident entry points.
        assert_eq!(initial.len(), n, "initial partition length != node count");
        assert_eq!(in_x.len(), n, "in_x length != node count");
        let shards = source.shard_count();
        let ranges = chunk_ranges(shards, self.threads);
        let (partition, rounds, _) = self.run(
            initial,
            None,
            ranges.len(),
            Some(shards),
            |engine, partition| -> Result<RoundColors, StreamError<S::Error>> {
                let sig_start = Instant::now();
                let spills =
                    engine.shard_spills(source, partition, in_x, &ranges)?;
                let sig_us = sig_start.elapsed().as_micros() as u64;
                let canon_start = Instant::now();
                engine.scatter(spills, partition, in_x)?;
                let colors = engine.canonicalise(partition);
                let canon_us = canon_start.elapsed().as_micros() as u64;
                Ok((colors, Some((sig_us, canon_us))))
            },
        )?;
        // An empty graph certifies its fixpoint instantly; the resident
        // path reports one round, so we do too.
        Ok(RefineOutcome {
            partition,
            rounds: rounds.max(1),
        })
    }

    /// `λ_Bisim = BisimRefine*_{N_G}(ℓ_G)` — the maximal bisimulation
    /// partition (Proposition 1) over a shard source, starting from
    /// the node-labelling partition built from `labels` (the per-node
    /// label array, e.g. [`rdf_model::TripleGraph::labels_raw`] or a
    /// sharded store's node table).
    pub fn bisimulation_shards<S>(
        &mut self,
        source: &S,
        labels: &[LabelId],
    ) -> Result<RefineOutcome, StreamError<S::Error>>
    where
        S: ShardColumnsSource + Sync,
        S::Error: Send,
    {
        // A label array of the wrong length fails the initial-partition
        // length check of `refine_fixpoint_shards`.
        let initial = crate::refine::label_partition_from(labels);
        let in_x = vec![true; labels.len()];
        self.refine_fixpoint_shards(source, initial, &in_x)
    }

    /// Signature phase: load each shard once (workers own the disjoint
    /// shard-index `ranges`), compute its subjects' round keys against
    /// the previous partition, and spill them. Returns the per-shard
    /// buffers in shard order.
    fn shard_spills<S>(
        &mut self,
        source: &S,
        partition: &Partition,
        in_x: &[bool],
        ranges: &[Range<usize>],
    ) -> Result<Vec<Spill>, StreamError<S::Error>>
    where
        S: ShardColumnsSource + Sync,
        S::Error: Send,
    {
        let n = source.node_count();
        let rec = &*self.recorder;
        // One task per worker, draining a contiguous range of shard
        // indices in order; flattening per-task results in task order
        // recovers exact shard order, independent of thread count.
        // Per-shard spans are emitted once per (round, shard) — their
        // count is a pure function of the run's structure, never of
        // the thread count — and tagged with the worker index.
        let per_task: Vec<Vec<Spill>> =
            scoped_try_map(ranges.to_vec(), |ti, range| {
                let mut out = Vec::with_capacity(range.len());
                let mut buf: Vec<(u32, u32)> = Vec::new();
                for k in range {
                    let mut sp = rec.span("refine.shard");
                    let cols = source
                        .load_shard(k)
                        .map_err(StreamError::Source)?;
                    let spill =
                        spill_shard(&cols, partition, in_x, n, &mut buf)?;
                    if sp.enabled() {
                        sp.field("shard", k);
                        sp.field("worker", ti);
                        sp.field("keys", spill.0.len());
                        sp.field("bytes", spill.1);
                    }
                    out.push(spill);
                    // `cols` drops here: one shard resident per worker.
                }
                Ok(out)
            })?;
        let spills: Vec<Spill> = per_task.into_iter().flatten().collect();
        for &(_, bytes) in &spills {
            self.peak_shard_bytes = self.peak_shard_bytes.max(bytes);
        }
        Ok(spills)
    }

    /// Scatter the spills into the key column, each node claimed at
    /// most once, and give every unclaimed node — it has no outbound
    /// edges — the key of an empty pair set.
    fn scatter<E>(
        &mut self,
        spills: Vec<Spill>,
        partition: &Partition,
        in_x: &[bool],
    ) -> Result<(), StreamError<E>> {
        let prev = partition.colors();
        self.keys.clear();
        self.keys.resize(prev.len(), RoundKey::Kept(0));
        self.claimed.clear();
        self.claimed.resize(prev.len(), false);
        for (entries, _) in spills {
            for (node, key) in entries {
                let i = node as usize;
                if std::mem::replace(&mut self.claimed[i], true) {
                    return Err(StreamError::Overlap { node });
                }
                self.keys[i] = key;
            }
        }
        let mut none = Vec::new();
        for (i, key) in self.keys.iter_mut().enumerate() {
            if !self.claimed[i] {
                let pairs = std::iter::empty;
                *key = node_key(in_x[i], prev[i].0, &mut none, pairs);
            }
        }
        Ok(())
    }
}

/// Compute one shard's spill buffer: every subject's round key against
/// the previous partition, through the resident path's `node_key`.
fn spill_shard<E>(
    cols: &ShardColumns,
    partition: &Partition,
    in_x: &[bool],
    n: usize,
    buf: &mut Vec<(u32, u32)>,
) -> Result<Spill, StreamError<E>> {
    if let Some(max) = cols.max_node() {
        if max.index() >= n {
            return Err(StreamError::NodeOutOfRange {
                node: max.0,
                nodes: n,
            });
        }
    }
    let colors = partition.colors();
    let preds = cols.preds();
    let objs = cols.objs();
    let mut entries = Vec::with_capacity(cols.subject_count());
    for (i, &s) in cols.subjects().iter().enumerate() {
        let pairs = || {
            cols.range(i)
                .map(|j| (colors[preds[j].index()].0, colors[objs[j].index()].0))
        };
        let key = node_key(in_x[s.index()], colors[s.index()].0, buf, pairs);
        entries.push((s.0, key));
    }
    Ok((entries, cols.resident_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::label_partition;
    use rdf_model::{GraphBuilder, GraphShards, LabelId, TripleGraph, Vocab};
    use rdf_par::Threads;

    fn sample() -> TripleGraph {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let w = b.add_node(v.uri("w"), &v);
        let u = b.add_node(v.uri("u"), &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        let lit = b.add_node(v.literal("a"), &v);
        let b1 = b.add_node(LabelId::BLANK, &v);
        let b2 = b.add_node(LabelId::BLANK, &v);
        let b3 = b.add_node(LabelId::BLANK, &v);
        b.add_triple(w, p, b1);
        b.add_triple(u, p, b2);
        b.add_triple(b1, q, lit);
        b.add_triple(b2, q, lit);
        b.add_triple(b3, q, b1);
        b.freeze()
    }

    #[test]
    fn matches_in_ram_engine_at_every_shard_and_thread_count() {
        let g = sample();
        let base = RefineEngine::new(Threads::Fixed(1)).bisimulation(&g);
        for shards in [1usize, 2, 3, 4, 8] {
            let src = GraphShards::chunked(&g, shards);
            for threads in [1usize, 2, 4] {
                let mut engine = RefineEngine::new(Threads::Fixed(threads));
                let out = engine
                    .bisimulation_shards(&src, g.labels_raw())
                    .expect("in-memory shards");
                assert_eq!(
                    out.partition.colors(),
                    base.partition.colors(),
                    "shards={shards} threads={threads}"
                );
                assert_eq!(out.rounds, base.rounds);
                assert!(engine.peak_shard_bytes() > 0);
            }
        }
    }

    #[test]
    fn partial_mask_matches_in_ram_engine() {
        let g = sample();
        let in_x: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
        let base = RefineEngine::new(Threads::Fixed(1)).refine_fixpoint_mask(
            &g,
            label_partition(&g),
            &in_x,
        );
        for shards in [1usize, 3, 8] {
            let src = GraphShards::chunked(&g, shards);
            let out = RefineEngine::new(Threads::Fixed(2))
                .refine_fixpoint_shards(&src, label_partition(&g), &in_x)
                .expect("in-memory shards");
            assert_eq!(out.partition.colors(), base.partition.colors());
            assert_eq!(out.rounds, base.rounds);
        }
    }

    #[test]
    fn engine_reuse_is_deterministic() {
        let g = sample();
        let src = GraphShards::chunked(&g, 3);
        let mut engine = RefineEngine::new(Threads::Fixed(2));
        let a = engine.bisimulation_shards(&src, g.labels_raw()).unwrap();
        let b = engine.bisimulation_shards(&src, g.labels_raw()).unwrap();
        assert_eq!(a.partition.colors(), b.partition.colors());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().freeze();
        let src = GraphShards::chunked(&g, 4);
        let out = RefineEngine::auto()
            .bisimulation_shards(&src, g.labels_raw())
            .unwrap();
        assert_eq!(out.partition.len(), 0);
        assert_eq!(out.rounds, 1);
        let in_ram = RefineEngine::auto().bisimulation(&g);
        assert_eq!(out.rounds, in_ram.rounds);
    }

    /// A source that hands the same shard out twice — the engine must
    /// return the typed overlap error, not a wrong partition.
    struct Overlapping<'g>(&'g TripleGraph);

    impl ShardColumnsSource for Overlapping<'_> {
        type Error = std::convert::Infallible;
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn shard_count(&self) -> usize {
            2
        }
        fn load_shard(
            &self,
            _k: usize,
        ) -> Result<ShardColumns, Self::Error> {
            Ok(ShardColumns::from_sorted_triples(self.0.triples()))
        }
    }

    #[test]
    fn overlapping_shards_are_a_typed_error() {
        let g = sample();
        let err = RefineEngine::new(Threads::Fixed(1))
            .bisimulation_shards(&Overlapping(&g), g.labels_raw())
            .unwrap_err();
        assert!(matches!(err, StreamError::Overlap { .. }), "{err:?}");
    }

    /// A one-shard source whose run repeats the subject group of the
    /// node it starts with after another group.
    struct RepeatedGroup<'g>(&'g TripleGraph);

    impl ShardColumnsSource for RepeatedGroup<'_> {
        type Error = std::convert::Infallible;
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn shard_count(&self) -> usize {
            1
        }
        fn load_shard(
            &self,
            _k: usize,
        ) -> Result<ShardColumns, Self::Error> {
            let t = self.0.triples();
            let first = t[0].s;
            let again: Vec<_> =
                t.iter().copied().filter(|x| x.s == first).collect();
            let run: Vec<_> = t.iter().copied().chain(again).collect();
            Ok(ShardColumns::from_sorted_triples(&run))
        }
    }

    #[test]
    fn a_subject_repeated_within_one_shard_is_a_typed_error() {
        let g = sample();
        let first = g.triples()[0].s.0;
        for t in [1usize, 2] {
            let err = RefineEngine::new(Threads::Fixed(t))
                .bisimulation_shards(&RepeatedGroup(&g), g.labels_raw())
                .unwrap_err();
            assert!(
                matches!(err, StreamError::Overlap { node } if node == first),
                "{err:?}"
            );
        }
    }

    /// A source whose shard references a node beyond the node count.
    struct OutOfRange;

    impl ShardColumnsSource for OutOfRange {
        type Error = std::convert::Infallible;
        fn node_count(&self) -> usize {
            2
        }
        fn shard_count(&self) -> usize {
            1
        }
        fn load_shard(
            &self,
            _k: usize,
        ) -> Result<ShardColumns, Self::Error> {
            use rdf_model::{NodeId, Triple};
            Ok(ShardColumns::from_sorted_triples(&[Triple::new(
                NodeId(0),
                NodeId(1),
                NodeId(9),
            )]))
        }
    }

    #[test]
    fn out_of_range_nodes_are_a_typed_error() {
        let labels = vec![LabelId::BLANK; 2];
        let err = RefineEngine::new(Threads::Fixed(1))
            .bisimulation_shards(&OutOfRange, &labels)
            .unwrap_err();
        assert!(
            matches!(err, StreamError::NodeOutOfRange { node: 9, nodes: 2 }),
            "{err:?}"
        );
    }
}
