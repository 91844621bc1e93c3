//! Refinement variants proposed as future work (§6) and as the fix for
//! the predicate-only error mode observed in §5.1.
//!
//! * [`context_refine_fixpoint`] — recolor by outbound *and inbound*
//!   neighbourhoods ("better alignment could potentially be obtained by
//!   using not only the contents of a node but also its context, the
//!   nodes from which the given node can be reached");
//! * [`key_restricted_fixpoint`] — use only the outbound edges whose
//!   predicate belongs to a chosen *key* set ("variants of our approach
//!   where only selected parts of the outbound neighborhood are used,
//!   for instance specified by a notion of a key for graph databases");
//! * [`predicate_context_partition`] — color predicate-only URIs by the
//!   subject/object colors of the triples that use them (§5.1: "a better
//!   solution would identify URIs that are predominantly used as
//!   predicates and use a different refinement process").

use crate::engine::{RefineEngine, RoundKey, K1, K2};
use crate::partition::Partition;
use crate::refine::RefineOutcome;
use rdf_model::hash::mix64;
use rdf_model::{FxHashMap, FxHashSet, LabelId, NodeId, TripleGraph};

/// Inbound neighbourhoods `in(n) = {(p, s) | (s, p, n) ∈ E}` in CSR form.
struct InAdjacency {
    index: Vec<u32>,
    pairs: Vec<(NodeId, NodeId)>,
}

impl InAdjacency {
    fn build(g: &TripleGraph) -> Self {
        let n = g.node_count();
        let mut index = vec![0u32; n + 1];
        for t in g.triples() {
            index[t.o.index() + 1] += 1;
        }
        for i in 0..n {
            index[i + 1] += index[i];
        }
        let mut cursor = index.clone();
        let mut pairs = vec![(NodeId(0), NodeId(0)); g.triple_count()];
        for t in g.triples() {
            let at = cursor[t.o.index()] as usize;
            pairs[at] = (t.p, t.s);
            cursor[t.o.index()] += 1;
        }
        InAdjacency { index, pairs }
    }

    fn of(&self, n: NodeId) -> &[(NodeId, NodeId)] {
        let lo = self.index[n.index()] as usize;
        let hi = self.index[n.index() + 1] as usize;
        &self.pairs[lo..hi]
    }
}

/// Run context refinement (out- and in-neighbourhoods) to fixpoint.
pub fn context_refine_fixpoint(
    g: &TripleGraph,
    initial: Partition,
    x: &[NodeId],
) -> RefineOutcome {
    context_refine_fixpoint_with(g, initial, x, &mut RefineEngine::auto())
}

/// As [`context_refine_fixpoint`], through a caller-owned engine:
/// recolor nodes of `X` by `(λ(n), out-colors, in-colors)` each round
/// until the partition stabilises.
pub fn context_refine_fixpoint_with(
    g: &TripleGraph,
    initial: Partition,
    x: &[NodeId],
    engine: &mut RefineEngine,
) -> RefineOutcome {
    let inbound = InAdjacency::build(g);
    let mut in_x = vec![false; g.node_count()];
    for &n in x {
        in_x[n.index()] = true;
    }
    engine.refine_fixpoint_custom(initial, {
        let in_x = &in_x;
        let inbound = &inbound;
        move |i, partition: &Partition, buf: &mut Vec<(u32, u32)>| {
            let node = NodeId(i as u32);
            if in_x[i] {
                let c = partition.color(node).0 as u64;
                let mut h1 = mix64(c ^ 0x5157_1057_AAAA_0001);
                let mut h2 = mix64(c ^ 0x5157_1057_BBBB_0002);
                for (salt, pairs) in
                    [(3u64, g.out(node)), (5u64, inbound.of(node))]
                {
                    buf.clear();
                    for &(p, o) in pairs {
                        buf.push((
                            partition.color(p).0,
                            partition.color(o).0,
                        ));
                    }
                    buf.sort_unstable();
                    buf.dedup();
                    h1 = (h1.rotate_left(5) ^ salt).wrapping_mul(K1);
                    h2 = (h2.rotate_left(9) ^ salt).wrapping_mul(K2);
                    for &(cp, co) in buf.iter() {
                        let x = ((cp as u64) << 32) | co as u64;
                        h1 = (h1.rotate_left(5) ^ x).wrapping_mul(K1);
                        h2 = (h2.rotate_left(9) ^ x).wrapping_mul(K2);
                    }
                }
                RoundKey::Recolored(h1, h2)
            } else {
                RoundKey::Kept(partition.color(node).0)
            }
        }
    })
}

/// A key specification: the set of predicate *labels* whose edges define
/// node identity.
#[derive(Debug, Clone, Default)]
pub struct KeySpec {
    predicates: FxHashSet<LabelId>,
}

impl KeySpec {
    /// Key over the given predicate labels.
    pub fn new(predicates: impl IntoIterator<Item = LabelId>) -> Self {
        KeySpec {
            predicates: predicates.into_iter().collect(),
        }
    }

    /// Whether a predicate label participates in the key.
    pub fn contains(&self, label: LabelId) -> bool {
        self.predicates.contains(&label)
    }
}

/// Run key-restricted refinement to fixpoint.
pub fn key_restricted_fixpoint(
    g: &TripleGraph,
    key: &KeySpec,
    initial: Partition,
    x: &[NodeId],
) -> RefineOutcome {
    key_restricted_fixpoint_with(g, key, initial, x, &mut RefineEngine::auto())
}

/// As [`key_restricted_fixpoint`], through a caller-owned engine: like
/// §3.2 but only edges whose predicate label is in the key contribute
/// to the color.
pub fn key_restricted_fixpoint_with(
    g: &TripleGraph,
    key: &KeySpec,
    initial: Partition,
    x: &[NodeId],
    engine: &mut RefineEngine,
) -> RefineOutcome {
    let mut in_x = vec![false; g.node_count()];
    for &n in x {
        in_x[n.index()] = true;
    }
    engine.refine_fixpoint_custom(initial, {
        let in_x = &in_x;
        move |i, partition: &Partition, buf: &mut Vec<(u32, u32)>| {
            let node = NodeId(i as u32);
            if in_x[i] {
                buf.clear();
                for &(p, o) in g.out(node) {
                    if key.contains(g.label(p)) {
                        buf.push((
                            partition.color(p).0,
                            partition.color(o).0,
                        ));
                    }
                }
                buf.sort_unstable();
                buf.dedup();
                let c = partition.color(node).0 as u64;
                let mut h1 = mix64(c ^ 0x4B45_5952_4546_494E); // "KEYREFIN"
                let mut h2 = mix64(c ^ 0x1234_5678_9ABC_DEF0);
                for &(cp, co) in buf.iter() {
                    let x = ((cp as u64) << 32) | co as u64;
                    h1 = (h1.rotate_left(5) ^ x).wrapping_mul(K1);
                    h2 = (h2.rotate_left(9) ^ x).wrapping_mul(K2);
                }
                RoundKey::Recolored(h1, h2)
            } else {
                RoundKey::Kept(partition.color(node).0)
            }
        }
    })
}

/// URIs used *only* in predicate position, and a partition refinement for
/// them: color each by the set of (subject color, object color) pairs of
/// the triples it labels (§5.1's suggested fix; one step usually
/// suffices since predicate colors do not feed back into themselves).
pub fn predicate_context_partition(
    g: &TripleGraph,
    base: &Partition,
    predicates: &[NodeId],
) -> Partition {
    let mut groups: FxHashMap<NodeId, Vec<(u32, u32)>> = FxHashMap::default();
    for &p in predicates {
        groups.insert(p, Vec::new());
    }
    for t in g.triples() {
        if let Some(v) = groups.get_mut(&t.p) {
            v.push((base.color(t.s).0, base.color(t.o).0));
        }
    }
    let mut raw: Vec<(u8, u64, u64)> = base
        .colors()
        .iter()
        .map(|c| (0u8, c.0 as u64, 0u64))
        .collect();
    for (&p, pairs) in groups.iter_mut() {
        pairs.sort_unstable();
        pairs.dedup();
        let mut h1 = mix64(0xFEED);
        let mut h2 = mix64(0xBEEF);
        for &(cs, co) in pairs.iter() {
            let x = ((cs as u64) << 32) | co as u64;
            h1 = (h1.rotate_left(5) ^ x).wrapping_mul(K1);
            h2 = (h2.rotate_left(9) ^ x).wrapping_mul(K2);
        }
        raw[p.index()] = (1u8, h1, h2);
    }
    Partition::from_colors(&raw)
}

/// Result of usage-based predicate matching: which predicates were in
/// ambiguous classes, and how they pair up across the sides.
#[derive(Debug, Clone, Default)]
pub struct PredicateMatching {
    /// Predicates (either side) whose class was not already 1-1.
    pub ambiguous: Vec<NodeId>,
    /// Matched `(source, target, diff distance)` pairs.
    pub pairs: Vec<(NodeId, NodeId, f64)>,
}

impl PredicateMatching {
    /// Apply to a partition: every ambiguous predicate becomes a
    /// singleton class, then each matched pair shares a fresh class —
    /// *splitting* the contentless mega-class that outbound-only
    /// refinement produces (§5.1).
    pub fn apply(&self, partition: &Partition) -> Partition {
        let mut raw: Vec<(u8, u32)> =
            partition.colors().iter().map(|c| (0u8, c.0)).collect();
        let mut next = partition.num_colors();
        for &p in &self.ambiguous {
            raw[p.index()] = (1, next);
            next += 1;
        }
        for &(n, m, _) in &self.pairs {
            raw[n.index()] = (1, next);
            raw[m.index()] = (1, next);
            next += 1;
        }
        Partition::from_colors(&raw)
    }
}

/// Match unaligned predicate-only URIs across the two sides by the
/// *overlap* of their usage pairs `{(λ(s), λ(o))}` — the robust variant
/// of [`predicate_context_partition`] for evolving data, where exact
/// usage equality is too brittle (every inserted row would break it).
///
/// Returns the matching; apply it with [`PredicateMatching::apply`].
pub fn match_predicates_by_usage(
    combined: &rdf_model::CombinedGraph,
    partition: &Partition,
    theta: f64,
) -> PredicateMatching {
    use crate::overlap::{overlap_match, PrefixBound};
    use rdf_model::Side;

    let g = combined.graph();
    let counts = crate::partition::SideCounts::new(partition, combined);
    let predicates = crate::metrics::predicate_only_uris(combined);
    let mut a: Vec<NodeId> = Vec::new();
    let mut b: Vec<NodeId> = Vec::new();
    for &p in &predicates {
        // Only predicates whose class is ambiguous or unaligned need a
        // usage-based decision; 1-1 classes are already settled.
        let c = partition.color(p).index();
        let settled = counts.source[c] == 1 && counts.target[c] == 1;
        if settled {
            continue;
        }
        match combined.side(p) {
            Side::Source => a.push(p),
            Side::Target => b.push(p),
        }
    }
    let usage = |p: NodeId| -> Vec<u64> {
        let mut pairs: Vec<u64> = g
            .triples()
            .iter()
            .filter(|t| t.p == p)
            .map(|t| {
                ((partition.color(t.s).0 as u64) << 32)
                    | partition.color(t.o).0 as u64
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    };
    let char_a: Vec<Vec<u64>> = a.iter().map(|&p| usage(p)).collect();
    let char_b: Vec<Vec<u64>> = b.iter().map(|&p| usage(p)).collect();
    // Confirm with the same overlap measure (diff = 1 − overlap).
    let char_b_for_sigma = char_b.clone();
    let index_of_b: rdf_model::FxHashMap<NodeId, usize> =
        b.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let index_of_a: rdf_model::FxHashMap<NodeId, usize> =
        a.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let char_a_for_sigma = char_a.clone();
    let (h, _) = overlap_match(
        &a,
        &char_a,
        &b,
        &char_b,
        theta,
        |n, m| {
            let ca = &char_a_for_sigma[index_of_a[&n]];
            let cb = &char_b_for_sigma[index_of_b[&m]];
            crate::overlap::diff_sorted(ca, cb)
        },
        PrefixBound::Safe,
    );
    // Keep only the best mutual match per node (predicates are few; a
    // greedy pass by ascending distance suffices).
    let mut edges = h.edges;
    edges.sort_by(|x, y| x.2.total_cmp(&y.2));
    let mut used_a: FxHashSet<NodeId> = FxHashSet::default();
    let mut used_b: FxHashSet<NodeId> = FxHashSet::default();
    edges.retain(|&(n, m, _)| {
        if used_a.contains(&n) || used_b.contains(&m) {
            false
        } else {
            used_a.insert(n);
            used_b.insert(m);
            true
        }
    });
    let mut ambiguous = a;
    ambiguous.extend_from_slice(&b);
    PredicateMatching {
        ambiguous,
        pairs: edges,
    }
}

/// Merge explicit node pairs into a partition: each pair's two classes
/// become one.
pub fn merge_pairs(
    partition: &Partition,
    pairs: &[(NodeId, NodeId, f64)],
) -> Partition {
    // Union-find over colors.
    let k = partition.num_colors() as usize;
    let mut parent: Vec<u32> = (0..k as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for &(n, m, _) in pairs {
        let a = find(&mut parent, partition.color(n).0);
        let b = find(&mut parent, partition.color(m).0);
        if a != b {
            parent[a as usize] = b;
        }
    }
    let raw: Vec<u32> = partition
        .colors()
        .iter()
        .map(|c| find(&mut parent, c.0))
        .collect();
    Partition::from_colors(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::blank_out;
    use crate::partition::unaligned_non_literals;
    use crate::refine::label_partition;
    use rdf_model::{CombinedGraph, RdfGraphBuilder, Vocab};

    /// Two versions where outbound content is identical for two distinct
    /// entities, and only the *context* (who points at them) separates
    /// them.
    fn context_case() -> (Vocab, CombinedGraph) {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            // Two sinks with no content, reachable from different places.
            b.uuu("a", "p", "old:sink1");
            b.uuu("b", "q", "old:sink2");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("a", "p", "new:sink1");
            b.uuu("b", "q", "new:sink2");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        (v, c)
    }

    fn uri(v: &Vocab, c: &CombinedGraph, text: &str) -> NodeId {
        c.graph()
            .nodes()
            .find(|&n| {
                c.graph().is_uri(n) && v.text(c.graph().label(n)) == text
            })
            .unwrap()
    }

    #[test]
    fn outbound_only_hybrid_conflates_sinks() {
        // Plain hybrid cannot distinguish the two renamed sinks: both
        // have empty content.
        let (v, c) = context_case();
        let h = crate::methods::hybrid_partition(&c).partition;
        let s1 = uri(&v, &c, "old:sink1");
        let s2 = uri(&v, &c, "new:sink2");
        assert!(h.same_class(s1, s2), "outbound-only conflates sinks");
    }

    #[test]
    fn context_refinement_separates_sinks() {
        let (v, c) = context_case();
        let g = c.graph();
        let base = label_partition(g);
        let un = unaligned_non_literals(&base, &c);
        let blanked = blank_out(&base, &un);
        let out = context_refine_fixpoint(g, blanked, &un);
        let s1_old = uri(&v, &c, "old:sink1");
        let s1_new = uri(&v, &c, "new:sink1");
        let s2_old = uri(&v, &c, "old:sink2");
        let s2_new = uri(&v, &c, "new:sink2");
        assert!(out.partition.same_class(s1_old, s1_new));
        assert!(out.partition.same_class(s2_old, s2_new));
        assert!(
            !out.partition.same_class(s1_old, s2_new),
            "context separates sink1 from sink2"
        );
    }

    #[test]
    fn key_restricted_ignores_non_key_edges() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("old:x", "name", "the entity");
            b.uul("old:x", "noise", "version one junk");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("new:x", "name", "the entity");
            b.uul("new:x", "noise", "version two junk");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let g = c.graph();
        // Plain hybrid: noise differs -> unaligned.
        let h = crate::methods::hybrid_partition(&c).partition;
        let x_old = uri(&v, &c, "old:x");
        let x_new = uri(&v, &c, "new:x");
        assert!(!h.same_class(x_old, x_new));
        // Key = {name}: noise edges are ignored, identity comes from the
        // name alone.
        let key = KeySpec::new([v.find_uri("name").unwrap()]);
        let base = label_partition(g);
        let un = unaligned_non_literals(&base, &c);
        let blanked = blank_out(&base, &un);
        let out = key_restricted_fixpoint(g, &key, blanked, &un);
        assert!(out.partition.same_class(x_old, x_new));
    }

    #[test]
    fn key_spec_membership() {
        let mut v = Vocab::new();
        let name = v.uri("name");
        let other = v.uri("other");
        let key = KeySpec::new([name]);
        assert!(key.contains(name));
        assert!(!key.contains(other));
    }

    #[test]
    fn usage_matching_pairs_predicates_despite_churn() {
        // Predicates whose usage overlaps strongly but not exactly —
        // exact context coloring fails, usage matching succeeds.
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            for i in 0..6 {
                b.uul(&format!("e{i}"), "old:name", &format!("value {i}"));
            }
            b.uul("e0", "old:other", "something");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            for i in 0..5 {
                b.uul(&format!("e{i}"), "new:name", &format!("value {i}"));
            }
            b.uul("e9", "new:name", "value 9"); // one new usage
            b.uul("e0", "new:other", "something");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let h = crate::methods::hybrid_partition(&c).partition;
        let matching = match_predicates_by_usage(&c, &h, 0.5);
        let name_old = uri(&v, &c, "old:name");
        let name_new = uri(&v, &c, "new:name");
        let other_old = uri(&v, &c, "old:other");
        let other_new = uri(&v, &c, "new:other");
        assert!(
            matching
                .pairs
                .iter()
                .any(|&(n, m, _)| n == name_old && m == name_new),
            "usage matching must pair the name predicates: {matching:?}"
        );
        // Applying splits the predicate mega-class into 1-1 pairs.
        let refined = matching.apply(&h);
        assert!(refined.same_class(name_old, name_new));
        assert!(refined.same_class(other_old, other_new));
        assert!(!refined.same_class(name_old, other_new));
        // Non-predicate classes are untouched.
        for n in c.graph().nodes() {
            for m in c.graph().nodes() {
                if c.graph().is_literal(n) && h.same_class(n, m) {
                    assert!(refined.same_class(n, m));
                }
            }
        }
    }

    #[test]
    fn predicate_context_separates_predicates_by_usage() {
        // Two predicate-only URIs with identical (empty) content but
        // different usage.
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "old:p", "value a");
            b.uul("y", "old:q", "value b");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "new:p", "value a");
            b.uul("y", "new:q", "value b");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let g = c.graph();
        // Hybrid conflates all four predicate URIs (empty content).
        let h = crate::methods::hybrid_partition(&c).partition;
        let p_old = uri(&v, &c, "old:p");
        let q_new = uri(&v, &c, "new:q");
        assert!(h.same_class(p_old, q_new));
        // Predicate-context coloring separates p-usage from q-usage.
        let preds: Vec<NodeId> = crate::metrics::predicate_only_uris(&c)
            .into_iter()
            .collect();
        let refined = predicate_context_partition(g, &h, &preds);
        let p_new = uri(&v, &c, "new:p");
        assert!(refined.same_class(p_old, p_new));
        assert!(!refined.same_class(p_old, q_new));
    }
}
