//! The deterministic parallel partition-refinement engine.
//!
//! Every alignment method of §3 bottoms out in iterated
//! `BisimRefine*_X(λ)` rounds, and within one round the recoloring
//! `recolor_λ(n)` of equation 1 depends only on the *previous*
//! partition — rounds are embarrassingly parallel over nodes. Each
//! round has two phases:
//!
//! 1. **Signature phase** — every node's `RoundKey` is written into
//!    a reused key column. Worker threads fill disjoint chunks of it
//!    ([`rdf_par::scoped_map`] over [`rdf_par::chunk_ranges`], one
//!    `&mut` slice and one pair buffer per worker);
//! 2. **Canonicalisation phase** — one pass on the calling thread, in
//!    node order, turns keys into dense color ids through a
//!    class-indexed canonicaliser (`Canon`).
//!
//! On one thread without a recorder the two phases fuse into one loop
//! (signature, then intern, per node) and no key column is built.
//!
//! **Why the numbering is deterministic.** Equation 1 puts the previous
//! color into every new color, so a round only splits classes: every
//! signature function mixes the previous color into `Recolored`, and
//! `Kept(c)` *is* the previous color. Equal keys therefore always share
//! a previous class (barring a 128-bit signature collision, which the
//! reference's "changed iff the class count grew" rule already assumes
//! away). `Canon` exploits that: per previous class it remembers the
//! first key seen and the id it got, and only a key that differs from
//! its class's first key goes to a hash map. Ids are handed out in node
//! order on first occurrence — exactly the numbering of the sequential
//! reference's single interning map
//! ([`crate::refine::reference_refine_step`]) — so the output partition
//! is **bit-identical** for every thread count, and shared data is
//! only ever written through disjoint `&mut` slices; no locks, no
//! atomics on shared arrays, no `unsafe`.
//!
//! The canonicaliser, the key column and the per-worker pair buffers
//! live in the engine and are reused round to round *and* run to run.
//! The thin [`crate::refine::bisim_refine_step`] wrapper remains for
//! API compatibility.

use crate::partition::{ColorId, Partition};
use crate::refine::RefineOutcome;
use rdf_model::hash::mix64;
use rdf_model::{FxHashMap, NodeId, OutColumns, TripleGraph};
use rdf_obs::Recorder;
use rdf_par::{chunk_ranges, scoped_map, Threads};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Multiplier for the primary signature stream.
pub(crate) const K1: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Multiplier for the secondary (independent) signature stream.
pub(crate) const K2: u64 = 0x9e37_79b9_7f4a_7c15;

/// Interning key for one refinement round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RoundKey {
    /// Node kept its previous color (n ∉ X).
    Kept(u32),
    /// Node was recolored; identified by the 128-bit signature of
    /// `(previous color, sorted outbound color pairs)`.
    Recolored(u64, u64),
}

/// The 128-bit signature of `recolor_λ(n)` (equation 1): the previous
/// color mixed with the sorted, distinct outbound color pairs. Shared
/// by the engine and the sequential reference in [`crate::refine`] so
/// the two cannot drift.
#[inline]
pub(crate) fn recolor_signature(prev: u32, pairs: &[(u32, u32)]) -> (u64, u64) {
    let c = prev as u64;
    let mut h1 = mix64(c ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut h2 = mix64(c ^ 0x0123_4567_89AB_CDEF);
    for &(cp, co) in pairs {
        let x = ((cp as u64) << 32) | co as u64;
        h1 = (h1.rotate_left(5) ^ x).wrapping_mul(K1);
        h2 = (h2.rotate_left(9) ^ x).wrapping_mul(K2);
    }
    (h1, h2)
}

/// Class-indexed canonicaliser: dense first-occurrence ids for one
/// round's keys, given each key's previous class.
///
/// Fed `(prev, key)` in node order, it returns the id a single
/// first-occurrence interning map would return, provided equal keys
/// share a previous class (see the module docs). The common case — a
/// class that does not split, or a node carrying its class's first key
/// — costs one array probe and one key comparison; only the second and
/// later distinct keys of a splitting class touch the hash map.
#[derive(Debug, Default)]
pub(crate) struct Canon {
    /// Per previous class: the id of its first key, `u32::MAX` if the
    /// class has not been seen this round.
    first_id: Vec<u32>,
    /// Per previous class: its first key (meaningful once seen).
    first_key: Vec<RoundKey>,
    /// Ids of every other key of a splitting class.
    overflow: FxHashMap<RoundKey, u32>,
    /// The next id to hand out (= distinct keys seen so far).
    next: u32,
}

impl Canon {
    /// Start a round over a previous partition with `classes` classes.
    pub(crate) fn reset(&mut self, classes: u32) {
        let classes = classes as usize;
        self.first_id.clear();
        self.first_id.resize(classes, u32::MAX);
        // Read only once `first_id` marks the class seen, so stale
        // entries need no clearing.
        if self.first_key.len() < classes {
            self.first_key.resize(classes, RoundKey::Kept(0));
        }
        self.overflow.clear();
        self.next = 0;
    }

    /// The id of `key`, whose node was in class `prev`.
    #[inline]
    pub(crate) fn intern(&mut self, prev: ColorId, key: RoundKey) -> ColorId {
        let p = prev.index();
        let id = self.first_id[p];
        if id == u32::MAX {
            let id = self.next;
            self.next += 1;
            self.first_id[p] = id;
            self.first_key[p] = key;
            ColorId(id)
        } else if self.first_key[p] == key {
            ColorId(id)
        } else {
            let next = &mut self.next;
            ColorId(*self.overflow.entry(key).or_insert_with(|| {
                *next += 1;
                *next - 1
            }))
        }
    }

    /// Distinct keys interned since the last [`Canon::reset`].
    pub(crate) fn classes(&self) -> u32 {
        self.next
    }
}

/// Reusable, deterministic, multi-threaded refinement engine.
///
/// Construct once (per pipeline, CLI invocation, or benchmark) and feed
/// it every fixpoint run. Output partitions are bit-identical for every
/// thread count (see the module docs for why).
///
/// ```
/// use rdf_align::{RefineEngine, Threads};
/// use rdf_model::{RdfGraphBuilder, Vocab};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("w", "p", "b1");   // w  -p-> _:b1
///     b.bul("b1", "q", "a");   // b1 -q-> "a"
///     b.bul("b2", "q", "a");   // b2 -q-> "a"   (bisimilar to b1)
///     b.finish()
/// };
/// let mut engine = RefineEngine::new(Threads::Fixed(2));
/// let out = engine.bisimulation(g.graph());
/// let blanks = g.graph().blanks();
/// assert!(out.partition.same_class(blanks[0], blanks[1]));
/// // Determinism: any thread count produces the identical coloring.
/// let again = RefineEngine::new(Threads::Fixed(1)).bisimulation(g.graph());
/// assert_eq!(out.partition.colors(), again.partition.colors());
/// ```
#[derive(Debug)]
pub struct RefineEngine {
    threads: usize,
    /// Instrumentation sink; [`Recorder::disabled`] by default, in
    /// which case every emission site reduces to one branch.
    recorder: Arc<Recorder>,
    /// Class-indexed canonicaliser.
    canon: Canon,
    /// The round's key column (keyed path only).
    keys: Vec<RoundKey>,
    /// One pair buffer per worker for equation 1's sorted pair set.
    bufs: Vec<Vec<(u32, u32)>>,
}

impl RefineEngine {
    /// An engine running on the given thread configuration.
    pub fn new(threads: Threads) -> Self {
        RefineEngine {
            threads: threads.resolve(),
            recorder: Arc::new(Recorder::disabled()),
            canon: Canon::default(),
            keys: Vec::new(),
            bufs: Vec::new(),
        }
    }

    /// An engine on the default (auto) thread configuration.
    pub fn auto() -> Self {
        RefineEngine::new(Threads::Auto)
    }

    /// An engine with an instrumentation recorder attached. Tracing
    /// never changes results: the emitted partition is bit-identical
    /// with any recorder (the inertness suite proves it).
    pub fn with_recorder(threads: Threads, recorder: Arc<Recorder>) -> Self {
        let mut engine = RefineEngine::new(threads);
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

    /// Run canonicalised rounds from `initial` until the class count
    /// stops changing (or `max_rounds` is hit). `sig` maps
    /// `(node, previous partition, scratch pair buffer)` to the node's
    /// [`RoundKey`] for the round; it must be a pure function of the
    /// node and partition so rounds parallelise, and it must keep
    /// classes apart (see [`RefineEngine::refine_fixpoint_custom`]).
    ///
    /// This is the engine's generic core; the bisimulation step and the
    /// §6 refinement variants all plug their signature function in
    /// here. Returns the final partition, the number of rounds
    /// executed, and whether the *last* round still changed the class
    /// count (false at a certified fixpoint).
    pub(crate) fn run<S>(
        &mut self,
        n: usize,
        initial: Partition,
        sig: S,
        max_rounds: Option<usize>,
    ) -> (Partition, usize, bool)
    where
        S: Fn(usize, &Partition, &mut Vec<(u32, u32)>) -> RoundKey + Sync,
    {
        debug_assert_eq!(initial.len(), n);
        if n == 0 || max_rounds == Some(0) {
            return (initial, 0, false);
        }
        let rec = Arc::clone(&self.recorder);
        let mut fix = rec.span("refine.fixpoint");
        let ranges = chunk_ranges(n, self.threads);
        // The fused loop has no phase boundary to time, so a traced run
        // materialises the key column even on one thread.
        let keyed = ranges.len() > 1 || rec.enabled();
        self.bufs.resize_with(ranges.len(), Vec::new);
        let mut partition = initial;
        let mut rounds = 0;
        let changed = loop {
            let mut sp = rec.span("refine.round");
            let prev_num = partition.num_colors();
            self.canon.reset(prev_num);
            let (colors, phase_us) = if keyed {
                let sig_start = Instant::now();
                self.fill_keys(&partition, &sig, &ranges);
                let sig_us = sig_start.elapsed().as_micros() as u64;
                let canon_start = Instant::now();
                let canon = &mut self.canon;
                let colors: Vec<ColorId> = partition
                    .colors()
                    .iter()
                    .zip(&self.keys)
                    .map(|(&prev, &key)| canon.intern(prev, key))
                    .collect();
                let canon_us = canon_start.elapsed().as_micros() as u64;
                (colors, Some((sig_us, canon_us)))
            } else {
                let canon = &mut self.canon;
                let buf = &mut self.bufs[0];
                let colors: Vec<ColorId> = partition
                    .colors()
                    .iter()
                    .enumerate()
                    .map(|(i, &prev)| {
                        canon.intern(prev, sig(i, &partition, buf))
                    })
                    .collect();
                (colors, None)
            };
            let new_num = self.canon.classes();
            let changed = new_num != prev_num;
            partition = Partition::from_dense(colors, new_num);
            rounds += 1;
            if sp.enabled() {
                sp.field("round", rounds);
                sp.field("classes", new_num);
                sp.field("splits", new_num.saturating_sub(prev_num));
                if let Some((sig_us, canon_us)) = phase_us {
                    sp.field("sig_us", sig_us);
                    sp.field("canon_us", canon_us);
                }
            }
            drop(sp);
            if !changed || Some(rounds) == max_rounds {
                break changed;
            }
        };
        if fix.enabled() {
            fix.field("rounds", rounds);
            fix.field("classes", partition.num_colors());
            fix.field("nodes", n);
            fix.field("threads", ranges.len());
        }
        (partition, rounds, changed)
    }

    /// The signature phase: every worker writes the keys of its node
    /// range into its own slice of the key column.
    fn fill_keys<S>(
        &mut self,
        partition: &Partition,
        sig: &S,
        ranges: &[Range<usize>],
    ) where
        S: Fn(usize, &Partition, &mut Vec<(u32, u32)>) -> RoundKey + Sync,
    {
        self.keys.resize(partition.len(), RoundKey::Kept(0));
        let mut rest: &mut [RoundKey] = &mut self.keys;
        let mut tasks = Vec::with_capacity(ranges.len());
        for (range, buf) in ranges.iter().zip(self.bufs.iter_mut()) {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            tasks.push((range.start, head, buf));
        }
        scoped_map(tasks, |_, (start, keys, buf)| {
            for (j, key) in keys.iter_mut().enumerate() {
                *key = sig(start + j, partition, buf);
            }
        });
    }

    /// Apply one refinement step `BisimRefine_X(λ)` (equation 2) over a
    /// prebuilt grouped-CSR column view (the fixpoint driver builds the
    /// view once per run).
    pub fn refine_step_columns(
        &mut self,
        cols: &OutColumns<'_>,
        partition: &Partition,
        in_x: &[bool],
    ) -> (Partition, bool) {
        let n = partition.len();
        // Real asserts, not debug: reject bad input on the calling
        // thread before any worker spawns.
        assert_eq!(in_x.len(), n, "in_x length != partition length");
        assert_eq!(cols.offsets().len(), n + 1, "column view/partition mismatch");
        let (next, _, changed) =
            self.run(n, partition.clone(), bisim_sig(cols, in_x), Some(1));
        (next, changed)
    }

    /// Apply one refinement step `BisimRefine_X(λ)` (equation 2).
    pub fn refine_step(
        &mut self,
        g: &TripleGraph,
        partition: &Partition,
        in_x: &[bool],
    ) -> (Partition, bool) {
        debug_assert_eq!(partition.len(), g.node_count());
        let cols = g.out_columns();
        self.refine_step_columns(&cols, partition, in_x)
    }

    /// Run `BisimRefine*_X(λ)` to fixpoint (Definition 4) over a
    /// prebuilt grouped-CSR column view, returning the final partition
    /// and the number of rounds executed (≥ 1; an empty graph still
    /// "certifies" its fixpoint instantly).
    pub fn refine_fixpoint_columns(
        &mut self,
        cols: &OutColumns<'_>,
        initial: Partition,
        in_x: &[bool],
    ) -> (Partition, usize) {
        let n = initial.len();
        // See refine_step_columns: validate on the calling thread.
        assert_eq!(in_x.len(), n, "in_x length != partition length");
        assert_eq!(cols.offsets().len(), n + 1, "column view/partition mismatch");
        let (partition, rounds, _) =
            self.run(n, initial, bisim_sig(cols, in_x), None);
        (partition, rounds.max(1))
    }

    /// Run `BisimRefine*_X(λ)` to fixpoint (Definition 4) with a
    /// membership mask for `X`.
    pub fn refine_fixpoint_mask(
        &mut self,
        g: &TripleGraph,
        initial: Partition,
        in_x: &[bool],
    ) -> RefineOutcome {
        debug_assert_eq!(in_x.len(), g.node_count());
        let cols = g.out_columns();
        let (partition, rounds) =
            self.refine_fixpoint_columns(&cols, initial, in_x);
        RefineOutcome { partition, rounds }
    }

    /// Run `BisimRefine*_X(λ)` to fixpoint for an explicit node set.
    pub fn refine_fixpoint(
        &mut self,
        g: &TripleGraph,
        initial: Partition,
        x: &[NodeId],
    ) -> RefineOutcome {
        let mut in_x = vec![false; g.node_count()];
        for &n in x {
            in_x[n.index()] = true;
        }
        self.refine_fixpoint_mask(g, initial, &in_x)
    }

    /// Run a custom signature function to fixpoint through the engine —
    /// the entry point for the §6 refinement variants (context- and
    /// key-restricted recoloring), which share the canonicalisation
    /// machinery but hash different neighbourhoods.
    ///
    /// Contract: `sig` must only split classes. A recolored node's key
    /// must mix in its previous color, and a kept node's key must be
    /// `RoundKey::Kept` of its previous color, so that equal keys
    /// always come from the same previous class. The class-indexed
    /// canonicaliser relies on this to reproduce first-occurrence
    /// numbering (see the module docs).
    pub(crate) fn refine_fixpoint_custom<S>(
        &mut self,
        n: usize,
        initial: Partition,
        sig: S,
    ) -> RefineOutcome
    where
        S: Fn(usize, &Partition, &mut Vec<(u32, u32)>) -> RoundKey + Sync,
    {
        let (partition, rounds, _) = self.run(n, initial, sig, None);
        RefineOutcome {
            partition,
            rounds: rounds.max(1),
        }
    }

    /// `λ_Bisim = BisimRefine*_{N_G}(ℓ_G)` — the maximal bisimulation
    /// partition (Proposition 1), through this engine.
    pub fn bisimulation(&mut self, g: &TripleGraph) -> RefineOutcome {
        let all = vec![true; g.node_count()];
        self.refine_fixpoint_mask(g, crate::refine::label_partition(g), &all)
    }

    /// [`RefineEngine::bisimulation`] from bare columns: a per-node
    /// label array plus a grouped-CSR view. The entry point for sources
    /// that never materialise a [`TripleGraph`] — zero-copy store views
    /// feed their borrowed columns here. Produces the same partition,
    /// class count and round count as [`RefineEngine::bisimulation`] on
    /// the equivalent graph.
    pub fn bisimulation_columns(
        &mut self,
        labels: &[rdf_model::LabelId],
        cols: &OutColumns<'_>,
    ) -> RefineOutcome {
        let all = vec![true; labels.len()];
        let initial = crate::refine::label_partition_from(labels);
        let (partition, rounds) =
            self.refine_fixpoint_columns(cols, initial, &all);
        RefineOutcome { partition, rounds }
    }
}

impl Default for RefineEngine {
    fn default() -> Self {
        RefineEngine::auto()
    }
}

/// The equation-1 signature function over a grouped-CSR view: colors of
/// the `(pred, obj)` columns, sorted and deduplicated, hashed with the
/// previous color.
fn bisim_sig<'a>(
    cols: &'a OutColumns<'a>,
    in_x: &'a [bool],
) -> impl Fn(usize, &Partition, &mut Vec<(u32, u32)>) -> RoundKey + Sync + 'a {
    let preds = cols.preds();
    let objs = cols.objs();
    move |i, partition, buf| {
        let colors = partition.colors();
        if in_x[i] {
            buf.clear();
            for j in cols.range(NodeId(i as u32)) {
                buf.push((
                    colors[preds[j].index()].0,
                    colors[objs[j].index()].0,
                ));
            }
            // Equation (1) uses a *set* of color pairs: sort + dedup
            // gives the canonical sequence to hash.
            buf.sort_unstable();
            buf.dedup();
            let (h1, h2) = recolor_signature(colors[i].0, buf);
            RoundKey::Recolored(h1, h2)
        } else {
            RoundKey::Kept(colors[i].0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdf_model::{GraphBuilder, LabelId, Vocab};

    /// A small chain/diamond graph with blanks, literals and URIs.
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

    /// A class-scoped key: variant 0 is `Kept(class)`, any other
    /// variant a `Recolored` signature that mixes in the class, as every
    /// engine signature does.
    fn scoped_key(class: u32, variant: u32) -> RoundKey {
        if variant == 0 {
            RoundKey::Kept(class)
        } else {
            let h = mix64(((class as u64) << 32) | variant as u64);
            RoundKey::Recolored(h, variant as u64)
        }
    }

    /// The sequential reference's numbering: one first-occurrence map.
    fn model_ids(seq: &[(u32, RoundKey)]) -> (Vec<ColorId>, u32) {
        let mut map: FxHashMap<RoundKey, u32> = FxHashMap::default();
        let ids = seq
            .iter()
            .map(|&(_, key)| {
                let next = map.len() as u32;
                ColorId(*map.entry(key).or_insert(next))
            })
            .collect();
        (ids, map.len() as u32)
    }

    fn canon_ids(
        canon: &mut Canon,
        classes: u32,
        seq: &[(u32, RoundKey)],
    ) -> (Vec<ColorId>, u32) {
        canon.reset(classes);
        let ids = seq
            .iter()
            .map(|&(prev, key)| canon.intern(ColorId(prev), key))
            .collect();
        (ids, canon.classes())
    }

    const CLASSES: u32 = 6;

    /// Random round: each class splits into `1 + split` keys (one to
    /// four, `Kept` and `Recolored` mixed), drawn in random order, so
    /// overflow keys recur before and after their class's first key
    /// does.
    fn arb_round() -> impl Strategy<Value = Vec<(u32, RoundKey)>> {
        (
            proptest::collection::vec(0u32..4, CLASSES as usize),
            proptest::collection::vec((0u32..CLASSES, 0u32..64), 0..96),
        )
            .prop_map(|(splits, picks)| {
                picks
                    .into_iter()
                    .map(|(class, r)| {
                        let keys = splits[class as usize] + 1;
                        (class, scoped_key(class, r % keys))
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Canon` hands out the model's ids and count, also when one
        /// canonicaliser is reused for a second round.
        #[test]
        fn canon_matches_first_occurrence_model(
            first in arb_round(),
            second in arb_round(),
        ) {
            let mut canon = Canon::default();
            for seq in [&first, &second] {
                prop_assert_eq!(
                    canon_ids(&mut canon, CLASSES, seq),
                    model_ids(seq)
                );
            }
        }
    }

    #[test]
    fn canon_matches_model_on_every_split_shape() {
        let k = scoped_key;
        // Class 0 never splits; class 1 splits in two with `Kept` first;
        // class 2 splits in three, its overflow key seen before and
        // after the first key recurs; class 3 is `Recolored` first and
        // `Kept` later.
        let seq = [
            (0, k(0, 0)),
            (1, k(1, 0)),
            (2, k(2, 1)),
            (2, k(2, 2)),
            (1, k(1, 1)),
            (2, k(2, 1)),
            (0, k(0, 0)),
            (2, k(2, 2)),
            (3, k(3, 5)),
            (2, k(2, 3)),
            (3, k(3, 0)),
            (1, k(1, 1)),
            (3, k(3, 5)),
        ];
        let (ids, next) = canon_ids(&mut Canon::default(), 4, &seq);
        assert_eq!((ids.clone(), next), model_ids(&seq));
        let raw: Vec<u32> = ids.iter().map(|c| c.0).collect();
        assert_eq!(raw, [0, 1, 2, 3, 4, 2, 0, 3, 5, 6, 7, 4, 5]);
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let g = sample();
        let base = RefineEngine::new(Threads::Fixed(1)).bisimulation(&g);
        for t in [2usize, 3, 4, 8] {
            let out = RefineEngine::new(Threads::Fixed(t)).bisimulation(&g);
            assert_eq!(
                out.partition.colors(),
                base.partition.colors(),
                "threads={t} diverged"
            );
            assert_eq!(out.rounds, base.rounds);
        }
    }

    #[test]
    fn engine_reuse_is_deterministic() {
        let g = sample();
        let mut engine = RefineEngine::new(Threads::Fixed(4));
        let a = engine.bisimulation(&g);
        let b = engine.bisimulation(&g);
        assert_eq!(a.partition.colors(), b.partition.colors());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().freeze();
        for t in [1usize, 4] {
            let out = RefineEngine::new(Threads::Fixed(t)).bisimulation(&g);
            assert_eq!(out.partition.len(), 0);
            assert_eq!(out.partition.num_colors(), 0);
        }
    }

    #[test]
    fn single_step_matches_across_threads() {
        let g = sample();
        let initial = crate::refine::label_partition(&g);
        let all = vec![true; g.node_count()];
        let (seq, seq_changed) = RefineEngine::new(Threads::Fixed(1))
            .refine_step(&g, &initial, &all);
        for t in [2usize, 4] {
            let (par, par_changed) = RefineEngine::new(Threads::Fixed(t))
                .refine_step(&g, &initial, &all);
            assert_eq!(seq.colors(), par.colors());
            assert_eq!(seq_changed, par_changed);
        }
    }

    #[test]
    fn partial_mask_matches_across_threads() {
        let g = sample();
        let in_x: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
        let seq = RefineEngine::new(Threads::Fixed(1)).refine_fixpoint_mask(
            &g,
            crate::refine::label_partition(&g),
            &in_x,
        );
        let par = RefineEngine::new(Threads::Fixed(4)).refine_fixpoint_mask(
            &g,
            crate::refine::label_partition(&g),
            &in_x,
        );
        assert_eq!(seq.partition.colors(), par.partition.colors());
        assert_eq!(seq.rounds, par.rounds);
    }
}
