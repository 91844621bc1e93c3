//! Shard-at-a-time streaming refinement — the external-memory sibling
//! of [`crate::engine::RefineEngine`].
//!
//! The in-RAM engine holds the whole graph's grouped-CSR columns for
//! the entire fixpoint. Following the I/O-efficient bisimulation
//! constructions (Luo et al., Hellings et al.), this engine instead
//! keeps only the **dense color vector** resident and sources the
//! adjacency one shard at a time from a
//! [`ShardColumnsSource`] — on-disk shard files of a `.rdfm` store, or
//! an in-memory range decomposition ([`rdf_model::GraphShards`]).
//! Each round has the same two phases as the in-RAM engine:
//!
//! 1. **Signature phase** — workers walk disjoint shard-index ranges;
//!    for each shard they load its columns, compute every subject's
//!    `RoundKey` (the identical equation-1 signature the in-RAM
//!    engine hashes, via the shared `recolor_signature`), **spill**
//!    the `(node, key)` pairs into a per-shard buffer, and drop the
//!    columns before touching the next shard — so at most one shard's
//!    columns are resident per worker at any instant;
//! 2. **Canonicalisation phase** — the spilled buffers (each ascending
//!    in node id, because shard runs are subject-sorted) are k-way
//!    merged in global node order; nodes absent from every shard (no
//!    outbound edges) get their key computed inline from the color
//!    vector alone. The keys go through the in-RAM engine's
//!    class-indexed canonicaliser in ascending node order, which hands
//!    out *exactly* the sequential reference numbering — so the output
//!    partition is **bit-identical** to the in-RAM engine (and the
//!    sequential reference) for every shard count and every thread
//!    count.
//!
//! Shard loads may fail (disk corruption, missing files), so every
//! entry point returns a `Result`; errors are deterministic — the
//! lowest-indexed failing shard wins at every thread count, via
//! [`rdf_par::scoped_try_map`].

use crate::engine::{recolor_signature, Canon, RoundKey};
use crate::partition::{ColorId, Partition};
use crate::refine::RefineOutcome;
use rdf_model::{LabelId, ShardColumns, ShardColumnsSource};
use rdf_obs::Recorder;
use rdf_par::{chunk_ranges, scoped_try_map, Threads};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Failure of a streaming refinement run.
#[derive(Debug)]
pub enum StreamError<E> {
    /// A shard failed to load; carries the source's error.
    Source(E),
    /// A node appeared as a subject in more than one shard (or a
    /// shard's subjects were not ascending) — the source violated the
    /// subject-partition contract.
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

/// One spilled signature buffer: a shard's `(node, key)` pairs in
/// ascending node order, plus the columns bytes that were resident
/// while it was produced.
type Spill = (Vec<(u32, RoundKey)>, usize);

/// Streaming refinement engine: shard-at-a-time rounds, dense color
/// vector resident, output bit-identical to [`RefineEngine`] at every
/// shard count × thread count.
///
/// Construct once per pipeline run and feed it every fixpoint, like
/// the in-RAM engine; the canonicaliser is reused across rounds and
/// runs.
///
/// ```
/// use rdf_align::{RefineEngine, StreamingRefineEngine, Threads};
/// use rdf_model::{GraphShards, RdfGraphBuilder, Vocab};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("w", "p", "b1");
///     b.bul("b1", "q", "a");
///     b.bul("b2", "q", "a");
///     b.finish()
/// };
/// // Stream over a 2-shard decomposition of the resident graph …
/// let shards = GraphShards::chunked(g.graph(), 2);
/// let mut engine = StreamingRefineEngine::new(Threads::Fixed(1));
/// let streamed = engine
///     .bisimulation(&shards, g.graph().labels_raw())
///     .expect("in-memory shards cannot fail");
/// // … and get the bit-identical partition the in-RAM engine builds.
/// let in_ram = RefineEngine::new(Threads::Fixed(1)).bisimulation(g.graph());
/// assert_eq!(streamed.partition.colors(), in_ram.partition.colors());
/// assert_eq!(streamed.rounds, in_ram.rounds);
/// ```
///
/// [`RefineEngine`]: crate::engine::RefineEngine
#[derive(Debug)]
pub struct StreamingRefineEngine {
    threads: usize,
    /// Instrumentation sink; [`Recorder::disabled`] by default, in
    /// which case every emission site reduces to one branch.
    recorder: Arc<Recorder>,
    /// Class-indexed canonicaliser, reused round to round and run to
    /// run.
    canon: Canon,
    /// Largest single-shard columns residency observed since
    /// construction.
    peak_shard_bytes: usize,
}

impl StreamingRefineEngine {
    /// An engine running on the given thread configuration.
    pub fn new(threads: Threads) -> Self {
        StreamingRefineEngine {
            threads: threads.resolve(),
            recorder: Arc::new(Recorder::disabled()),
            canon: Canon::default(),
            peak_shard_bytes: 0,
        }
    }

    /// An engine on the default (auto) thread configuration.
    pub fn auto() -> Self {
        StreamingRefineEngine::new(Threads::Auto)
    }

    /// An engine with an instrumentation recorder attached. Tracing
    /// never changes results: the emitted partition is bit-identical
    /// with any recorder (the inertness suite proves it).
    pub fn with_recorder(threads: Threads, recorder: Arc<Recorder>) -> Self {
        let mut engine = StreamingRefineEngine::new(threads);
        engine.recorder = recorder;
        engine
    }

    /// Attach (or replace) the instrumentation recorder.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = recorder;
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The largest columns residency (in bytes, per
    /// [`ShardColumns::resident_bytes`]) any single worker held at any
    /// point since this engine was built — the external-memory claim,
    /// measurable: total adjacency residency is bounded by
    /// `threads × peak_shard_bytes`, independent of total graph size.
    pub fn peak_shard_bytes(&self) -> usize {
        self.peak_shard_bytes
    }

    /// Run `BisimRefine*_X(λ)` to fixpoint (Definition 4) over a shard
    /// source, with a membership mask for `X`.
    ///
    /// Semantics, round count and output partition are bit-identical
    /// to [`crate::engine::RefineEngine::refine_fixpoint_mask`] on the
    /// stitched graph, for every shard count and thread count.
    pub fn refine_fixpoint_mask<S>(
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
        // mirroring the in-RAM engine's entry points.
        assert_eq!(initial.len(), n, "initial partition length != node count");
        assert_eq!(in_x.len(), n, "in_x length != node count");
        if n == 0 {
            // An empty graph certifies its fixpoint instantly; the
            // in-RAM path reports one round, so we do too.
            return Ok(RefineOutcome {
                partition: initial,
                rounds: 1,
            });
        }
        let rec = Arc::clone(&self.recorder);
        let mut fix = rec.span("refine.fixpoint");
        let mut partition = initial;
        let mut rounds = 0usize;
        loop {
            let mut sp = rec.span("refine.round");
            let prev_num = partition.num_colors();
            let sig_start = sp.enabled().then(Instant::now);
            let spills = self.signature_phase(source, &partition, in_x)?;
            let sig_us =
                sig_start.map(|t| t.elapsed().as_micros() as u64);
            let canon_start = sp.enabled().then(Instant::now);
            let (colors, new_num) =
                self.canonicalise(n, &partition, in_x, spills)?;
            let changed = new_num != partition.num_colors();
            partition = Partition::from_dense(colors, new_num);
            rounds += 1;
            if sp.enabled() {
                sp.field("round", rounds);
                sp.field("classes", new_num);
                sp.field("splits", new_num.saturating_sub(prev_num));
                if let Some(us) = sig_us {
                    sp.field("sig_us", us);
                }
                if let Some(t) = canon_start {
                    sp.field(
                        "canon_us",
                        t.elapsed().as_micros() as u64,
                    );
                }
                // The external-memory claim, live: largest single-shard
                // residency any worker has held so far.
                rec.gauge("stream.peak_shard_bytes")
                    .set(self.peak_shard_bytes as u64);
            }
            drop(sp);
            if !changed {
                if fix.enabled() {
                    fix.field("rounds", rounds);
                    fix.field("classes", partition.num_colors());
                    fix.field("nodes", n);
                    fix.field("threads", self.threads);
                    fix.field("shards", source.shard_count());
                }
                return Ok(RefineOutcome { partition, rounds });
            }
        }
    }

    /// `λ_Bisim = BisimRefine*_{N_G}(ℓ_G)` — the maximal bisimulation
    /// partition (Proposition 1) over a shard source, starting from
    /// the node-labelling partition built from `labels` (the per-node
    /// label array, e.g. [`rdf_model::TripleGraph::labels_raw`] or a
    /// streaming store's node table).
    pub fn bisimulation<S>(
        &mut self,
        source: &S,
        labels: &[LabelId],
    ) -> Result<RefineOutcome, StreamError<S::Error>>
    where
        S: ShardColumnsSource + Sync,
        S::Error: Send,
    {
        assert_eq!(
            labels.len(),
            source.node_count(),
            "label array length != node count"
        );
        let initial = crate::refine::label_partition_from(labels);
        let in_x = vec![true; labels.len()];
        self.refine_fixpoint_mask(source, initial, &in_x)
    }

    /// Phase 1: load each shard once (workers own disjoint shard-index
    /// ranges), compute its subjects' round keys against the previous
    /// partition, and spill them. Returns the per-shard buffers in
    /// shard order.
    fn signature_phase<S>(
        &mut self,
        source: &S,
        partition: &Partition,
        in_x: &[bool],
    ) -> Result<Vec<Spill>, StreamError<S::Error>>
    where
        S: ShardColumnsSource + Sync,
        S::Error: Send,
    {
        let n = source.node_count();
        let shards = source.shard_count();
        if shards == 0 {
            return Ok(Vec::new());
        }
        let workers = self.threads.min(shards).max(1);
        let ranges = chunk_ranges(shards, workers);
        let rec = Arc::clone(&self.recorder);
        let rec = &*rec;
        // One task per worker, draining a contiguous range of shard
        // indices in order; flattening per-task results in task order
        // recovers exact shard order, independent of thread count.
        // Per-shard spans are emitted once per (round, shard) — their
        // count is a pure function of the run's structure, never of
        // the thread count — and tagged with the worker index.
        let per_task: Vec<Vec<Spill>> =
            scoped_try_map(ranges, |ti, range| {
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
        let spills: Vec<Spill> =
            per_task.into_iter().flatten().collect();
        for &(_, bytes) in &spills {
            self.peak_shard_bytes = self.peak_shard_bytes.max(bytes);
        }
        Ok(spills)
    }

    /// Phase 2: k-way merge the spilled buffers in ascending node
    /// order, computing edge-less nodes' keys inline from the color
    /// vector, and canonicalise with dense ids in first-occurrence
    /// order — the sequential reference numbering.
    fn canonicalise<E>(
        &mut self,
        n: usize,
        partition: &Partition,
        in_x: &[bool],
        spills: Vec<Spill>,
    ) -> Result<(Vec<ColorId>, u32), StreamError<E>> {
        let prev = partition.colors();
        let canon = &mut self.canon;
        canon.reset(partition.num_colors());
        let mut intern = |i: usize, key: RoundKey| canon.intern(prev[i], key);
        // The key of a node no shard claimed: it has no outbound
        // edges, so equation 1 hashes an empty pair set.
        let gap_key = |i: usize| {
            if in_x[i] {
                let (h1, h2) = recolor_signature(prev[i].0, &[]);
                RoundKey::Recolored(h1, h2)
            } else {
                RoundKey::Kept(prev[i].0)
            }
        };

        let mut colors: Vec<ColorId> = Vec::with_capacity(n);
        let mut cursors: Vec<std::slice::Iter<'_, (u32, RoundKey)>> =
            spills.iter().map(|(buf, _)| buf.iter()).collect();
        let mut heads: Vec<Option<(u32, RoundKey)>> =
            cursors.iter_mut().map(|c| c.next().copied()).collect();
        loop {
            // Smallest head node across the spill buffers; a linear
            // scan — shard counts are small — that stays obviously
            // deterministic.
            let best = heads
                .iter()
                .enumerate()
                .filter_map(|(b, h)| h.map(|(i, _)| (i, b)))
                .min();
            let Some((node, b)) = best else {
                // No spilled entries left: the remaining nodes are all
                // edge-less.
                for i in colors.len()..n {
                    colors.push(intern(i, gap_key(i)));
                }
                break;
            };
            if (node as usize) < colors.len() {
                return Err(StreamError::Overlap { node });
            }
            for i in colors.len()..node as usize {
                colors.push(intern(i, gap_key(i)));
            }
            let (_, key) = heads[b].take().expect("selected head present");
            colors.push(intern(node as usize, key));
            heads[b] = cursors[b].next().copied();
        }
        Ok((colors, self.canon.classes()))
    }
}

impl Default for StreamingRefineEngine {
    fn default() -> Self {
        StreamingRefineEngine::auto()
    }
}

/// Compute one shard's spill buffer: every subject's round key against
/// the previous partition — the same equation-1 signature
/// ([`recolor_signature`] over the sorted, deduplicated outbound color
/// pairs) the in-RAM engine computes, so the two paths cannot drift.
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
        let key = if in_x[s.index()] {
            buf.clear();
            for j in cols.range(i) {
                buf.push((
                    colors[preds[j].index()].0,
                    colors[objs[j].index()].0,
                ));
            }
            // Equation (1) uses a *set* of color pairs: sort + dedup
            // gives the canonical sequence to hash.
            buf.sort_unstable();
            buf.dedup();
            let (h1, h2) = recolor_signature(colors[s.index()].0, buf);
            RoundKey::Recolored(h1, h2)
        } else {
            RoundKey::Kept(colors[s.index()].0)
        };
        entries.push((s.0, key));
    }
    Ok((entries, cols.resident_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RefineEngine;
    use crate::refine::label_partition;
    use rdf_model::{GraphBuilder, GraphShards, LabelId, TripleGraph, Vocab};

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
                let mut engine =
                    StreamingRefineEngine::new(Threads::Fixed(threads));
                let out = engine
                    .bisimulation(&src, g.labels_raw())
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
            let out = StreamingRefineEngine::new(Threads::Fixed(2))
                .refine_fixpoint_mask(&src, label_partition(&g), &in_x)
                .expect("in-memory shards");
            assert_eq!(out.partition.colors(), base.partition.colors());
            assert_eq!(out.rounds, base.rounds);
        }
    }

    #[test]
    fn engine_reuse_is_deterministic() {
        let g = sample();
        let src = GraphShards::chunked(&g, 3);
        let mut engine = StreamingRefineEngine::new(Threads::Fixed(2));
        let a = engine.bisimulation(&src, g.labels_raw()).unwrap();
        let b = engine.bisimulation(&src, g.labels_raw()).unwrap();
        assert_eq!(a.partition.colors(), b.partition.colors());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().freeze();
        let src = GraphShards::chunked(&g, 4);
        let out = StreamingRefineEngine::auto()
            .bisimulation(&src, g.labels_raw())
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
        let err = StreamingRefineEngine::new(Threads::Fixed(1))
            .bisimulation(&Overlapping(&g), g.labels_raw())
            .unwrap_err();
        assert!(matches!(err, StreamError::Overlap { .. }), "{err:?}");
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
        let err = StreamingRefineEngine::new(Threads::Fixed(1))
            .bisimulation(&OutOfRange, &labels)
            .unwrap_err();
        assert!(
            matches!(err, StreamError::NodeOutOfRange { node: 9, nodes: 2 }),
            "{err:?}"
        );
    }
}
