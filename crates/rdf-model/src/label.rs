//! Node labels and the label vocabulary.
//!
//! Section 2.1 of the paper: the label set is `I = U ∪ L ∪ {⊥b}` where `U`
//! are URI labels, `L` literal values, and `⊥b` a single special value
//! shared by all blank nodes. Labels are interned into dense [`LabelId`]s so
//! that label equality — the basis of the trivial alignment — is an integer
//! comparison, and so that two graph versions built against the same
//! [`Vocab`] can be combined without string comparisons.

use crate::hash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// The three syntactic categories of RDF node labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelKind {
    /// A URI reference (also used for predicates).
    Uri,
    /// A literal value; in this model the lexical form, datatype and
    /// language tag are folded into one interned string.
    Literal,
    /// The unique blank label `⊥b`.
    Blank,
}

/// Dense identifier of an interned label. `LabelId::BLANK` (= 0) is the
/// shared blank label; all other ids denote URIs or literals.
///
/// `repr(transparent)` over `u32` is a guarantee, not an accident: the
/// zero-copy store readers ([`crate::view`]) reinterpret aligned
/// little-endian byte columns as `&[LabelId]` without a decode pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The single blank label `⊥b`. Every vocabulary reserves id 0 for it.
    pub const BLANK: LabelId = LabelId(0);

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the blank label.
    #[inline]
    pub fn is_blank(self) -> bool {
        self == Self::BLANK
    }
}

/// A borrowed view of a resolved label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelRef<'a> {
    /// URI label with its text.
    Uri(&'a str),
    /// Literal label with its lexical text.
    Literal(&'a str),
    /// The blank label.
    Blank,
}

impl<'a> LabelRef<'a> {
    /// The syntactic category of this label.
    pub fn kind(&self) -> LabelKind {
        match self {
            LabelRef::Uri(_) => LabelKind::Uri,
            LabelRef::Literal(_) => LabelKind::Literal,
            LabelRef::Blank => LabelKind::Blank,
        }
    }

    /// The label text; blank labels have none.
    pub fn text(&self) -> Option<&'a str> {
        match self {
            LabelRef::Uri(s) | LabelRef::Literal(s) => Some(s),
            LabelRef::Blank => None,
        }
    }
}

impl fmt::Display for LabelRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelRef::Uri(s) => write!(f, "{s}"),
            LabelRef::Literal(s) => write!(f, "{s:?}"),
            LabelRef::Blank => write!(f, "_:b"),
        }
    }
}

/// Interning vocabulary shared by all graph versions under alignment.
///
/// URIs and literals live in disjoint namespaces (per §2.1, `U` and `L`
/// are disjoint), so the URI `"x"` and the literal `"x"` receive distinct
/// ids. Interning is append-only; ids are stable for the life of the vocab.
///
/// Storage is four flat columns, so building, cloning or dropping a
/// vocabulary costs a handful of allocations however many labels it
/// holds: one `String` arena with every label text back to back, the
/// label boundaries in it, the label kinds, and an id-only
/// open-addressing index (linear probing at load ≤ ½; `0` marks an empty
/// slot, since the blank label is never indexed).
#[derive(Debug, Clone)]
pub struct Vocab {
    kinds: Vec<LabelKind>,
    /// Label `i` spans `arena[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    arena: String,
    /// Id per slot, `0` = empty; empty or a power of two (at least
    /// [`MIN_INDEX`]) in length.
    index: Vec<u32>,
}

/// Smallest non-empty index length.
const MIN_INDEX: usize = 16;

/// FxHash of a `(kind, text)` label key.
#[inline]
fn label_hash(kind: LabelKind, text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(kind as u8);
    h.write(text.as_bytes());
    h.finish()
}

/// Home slot of `hash` in an index of `len` (a power of two) slots: its
/// *top* `log2(len)` bits. The low bits of an FxHash product only see the
/// low bytes of the last word mixed in, so numbered ids that differ late
/// in their last 8-byte word would all share one low-bits slot.
#[inline]
fn home_slot(hash: u64, len: usize) -> usize {
    (hash >> (64 - len.trailing_zeros())) as usize
}

impl Default for Vocab {
    /// Same as [`Vocab::new`]: id 0 is reserved for the blank label.
    fn default() -> Self {
        Vocab::new()
    }
}

impl Vocab {
    /// Create a vocabulary containing only the blank label.
    pub fn new() -> Self {
        Vocab {
            kinds: vec![LabelKind::Blank],
            offsets: vec![0, 0],
            arena: String::new(),
            index: Vec::new(),
        }
    }

    /// Create a vocabulary containing only the blank label, with room to
    /// intern `labels` labels totalling `bytes` of text without
    /// reallocating.
    pub fn with_capacity(labels: usize, bytes: usize) -> Self {
        let mut v = Vocab::new();
        v.reserve(labels, bytes);
        v
    }

    /// Make room for `labels` more labels totalling `bytes` of text,
    /// growing the index so that it stays at most half full.
    fn reserve(&mut self, labels: usize, bytes: usize) {
        self.kinds.reserve(labels);
        self.offsets.reserve(labels);
        self.arena.reserve(bytes);
        let indexed = self.kinds.len() - 1 + labels;
        if indexed.saturating_mul(2) > self.index.len() {
            self.rebuild_index(
                indexed.saturating_mul(2).next_power_of_two().max(MIN_INDEX),
            );
        }
    }

    /// Re-insert every label into a fresh index of `len` slots.
    fn rebuild_index(&mut self, len: usize) {
        let mut index = vec![0u32; len];
        let mask = len - 1;
        for i in 1..self.kinds.len() {
            let id = LabelId(i as u32);
            let mut slot =
                home_slot(label_hash(self.kind(id), self.text(id)), len);
            while index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            index[slot] = id.0;
        }
        self.index = index;
    }

    /// The id of `(kind, text)` if interned, else the empty slot where
    /// it belongs. The index must be non-empty.
    #[inline]
    fn probe(
        &self,
        kind: LabelKind,
        text: &str,
        hash: u64,
    ) -> Result<LabelId, usize> {
        let mask = self.index.len() - 1;
        let mut slot = home_slot(hash, self.index.len());
        loop {
            let id = LabelId(self.index[slot]);
            if id.is_blank() {
                return Err(slot);
            }
            if self.kinds[id.index()] == kind && self.text(id) == text {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Intern `(kind, text)`: `Ok` with a fresh id, or `Err` with the
    /// id it already had.
    fn insert(
        &mut self,
        kind: LabelKind,
        text: &str,
    ) -> Result<LabelId, LabelId> {
        if kind == LabelKind::Blank {
            return Err(LabelId::BLANK);
        }
        self.reserve(1, text.len());
        let slot = match self.probe(kind, text, label_hash(kind, text)) {
            Ok(id) => return Err(id),
            Err(slot) => slot,
        };
        let id = LabelId(self.kinds.len() as u32);
        self.index[slot] = id.0;
        self.kinds.push(kind);
        self.arena.push_str(text);
        self.offsets.push(self.arena.len());
        Ok(id)
    }

    fn find(&self, kind: LabelKind, text: &str) -> Option<LabelId> {
        if self.index.is_empty() {
            return None;
        }
        self.probe(kind, text, label_hash(kind, text)).ok()
    }

    /// Number of interned labels, including the blank label.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the vocabulary holds only the blank label.
    pub fn is_empty(&self) -> bool {
        self.kinds.len() <= 1
    }

    /// Intern a URI label.
    pub fn uri(&mut self, text: &str) -> LabelId {
        self.insert(LabelKind::Uri, text).unwrap_or_else(|id| id)
    }

    /// Intern a literal label.
    pub fn literal(&mut self, text: &str) -> LabelId {
        self.insert(LabelKind::Literal, text).unwrap_or_else(|id| id)
    }

    /// Append a label under the next id if it is not interned yet.
    /// Returns `false` — and changes nothing — when the label is already
    /// present (the blank label always is): the decode path uses this to
    /// reject a dictionary that repeats an entry.
    pub fn push_unique(&mut self, kind: LabelKind, text: &str) -> bool {
        self.insert(kind, text).is_ok()
    }

    /// Look up an already-interned URI without interning.
    pub fn find_uri(&self, text: &str) -> Option<LabelId> {
        self.find(LabelKind::Uri, text)
    }

    /// Look up an already-interned literal without interning.
    pub fn find_literal(&self, text: &str) -> Option<LabelId> {
        self.find(LabelKind::Literal, text)
    }

    /// The syntactic category of a label.
    #[inline]
    pub fn kind(&self, id: LabelId) -> LabelKind {
        self.kinds[id.index()]
    }

    /// Resolve an id to a borrowed label view.
    #[inline]
    pub fn resolve(&self, id: LabelId) -> LabelRef<'_> {
        match self.kinds[id.index()] {
            LabelKind::Uri => LabelRef::Uri(self.text(id)),
            LabelKind::Literal => LabelRef::Literal(self.text(id)),
            LabelKind::Blank => LabelRef::Blank,
        }
    }

    /// The raw text of a label (empty for the blank label).
    #[inline]
    pub fn text(&self, id: LabelId) -> &str {
        let i = id.index();
        &self.arena[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Rebuild a vocabulary from parallel kind/text arrays, as read back
    /// from an on-disk dictionary.
    ///
    /// The index is filled in one pass over the dictionary —
    /// `O(|dictionary|)` string hashes, independent of how many nodes or
    /// triples reference the labels — so a store load never hashes per
    /// triple. Entry 0 must be the blank label; URI/literal texts must be
    /// unique within their namespace (a duplicate would make ids ambiguous
    /// for later interning).
    pub fn from_raw_parts(
        kinds: Vec<LabelKind>,
        texts: Vec<String>,
    ) -> Result<Vocab, &'static str> {
        if kinds.len() != texts.len() {
            return Err("kind and text arrays differ in length");
        }
        if kinds.first() != Some(&LabelKind::Blank) {
            return Err("dictionary entry 0 must be the blank label");
        }
        let bytes = texts.iter().map(String::len).sum();
        let mut vocab = Vocab::with_capacity(kinds.len() - 1, bytes);
        for (&kind, text) in kinds.iter().zip(&texts).skip(1) {
            if kind == LabelKind::Blank {
                return Err("blank label appears after entry 0");
            }
            if !vocab.push_unique(kind, text) {
                return Err("duplicate label text within a namespace");
            }
        }
        Ok(vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Longest lookup in the index: the most slots any label's probe
    /// walks from its home slot to its own, inclusive.
    fn longest_probe(v: &Vocab) -> usize {
        let len = v.index.len();
        (0..len)
            .filter(|&slot| v.index[slot] != 0)
            .map(|slot| {
                let id = LabelId(v.index[slot]);
                let home = home_slot(label_hash(v.kind(id), v.text(id)), len);
                ((slot + len - home) & (len - 1)) + 1
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn blank_is_reserved() {
        let v = Vocab::new();
        assert_eq!(v.kind(LabelId::BLANK), LabelKind::Blank);
        assert_eq!(v.resolve(LabelId::BLANK), LabelRef::Blank);
        assert!(LabelId::BLANK.is_blank());
        assert_eq!(v.len(), 1);
        assert!(v.is_empty());
    }

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.uri("http://example.org/a");
        let b = v.uri("http://example.org/a");
        assert_eq!(a, b);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn uri_and_literal_namespaces_are_disjoint() {
        let mut v = Vocab::new();
        let u = v.uri("x");
        let l = v.literal("x");
        assert_ne!(u, l);
        assert_eq!(v.kind(u), LabelKind::Uri);
        assert_eq!(v.kind(l), LabelKind::Literal);
        assert_eq!(v.text(u), "x");
        assert_eq!(v.text(l), "x");
    }

    #[test]
    fn find_does_not_intern() {
        let mut v = Vocab::new();
        assert_eq!(v.find_uri("u"), None);
        let id = v.uri("u");
        assert_eq!(v.find_uri("u"), Some(id));
        assert_eq!(v.find_literal("u"), None);
    }

    #[test]
    fn resolve_round_trips() {
        let mut v = Vocab::new();
        let u = v.uri("http://e.org/x");
        let l = v.literal("A literal with spaces");
        assert_eq!(v.resolve(u), LabelRef::Uri("http://e.org/x"));
        assert_eq!(v.resolve(l), LabelRef::Literal("A literal with spaces"));
        assert_eq!(v.resolve(u).text(), Some("http://e.org/x"));
        assert_eq!(v.resolve(LabelId::BLANK).text(), None);
    }

    #[test]
    fn raw_parts_rebuild_intern_maps() {
        let mut v = Vocab::new();
        let u = v.uri("u:x");
        let l = v.literal("x");
        let kinds: Vec<LabelKind> =
            (0..v.len()).map(|i| v.kind(LabelId(i as u32))).collect();
        let texts: Vec<String> = (0..v.len())
            .map(|i| v.text(LabelId(i as u32)).to_owned())
            .collect();
        let mut v2 = Vocab::from_raw_parts(kinds, texts).unwrap();
        assert_eq!(v2.find_uri("u:x"), Some(u));
        assert_eq!(v2.find_literal("x"), Some(l));
        // Further interning continues from the rebuilt state.
        assert_eq!(v2.uri("u:x"), u);
        assert_eq!(v2.uri("u:new"), LabelId(v.len() as u32));
    }

    #[test]
    fn raw_parts_reject_bad_dictionaries() {
        assert!(Vocab::from_raw_parts(vec![LabelKind::Blank], vec![]).is_err());
        assert!(Vocab::from_raw_parts(
            vec![LabelKind::Uri],
            vec!["x".into()]
        )
        .is_err());
        assert!(Vocab::from_raw_parts(
            vec![LabelKind::Blank, LabelKind::Blank],
            vec![String::new(), String::new()]
        )
        .is_err());
        assert!(Vocab::from_raw_parts(
            vec![LabelKind::Blank, LabelKind::Uri, LabelKind::Uri],
            vec![String::new(), "dup".into(), "dup".into()]
        )
        .is_err());
    }

    #[test]
    fn default_reserves_blank() {
        let mut v = Vocab::default();
        assert_eq!(v.len(), 1);
        assert!(v.is_empty());
        assert_eq!(v.kind(LabelId::BLANK), LabelKind::Blank);
        let x = v.uri("x");
        assert_ne!(x, LabelId::BLANK);
        assert_eq!(v.text(x), "x");
        assert_eq!(v.find_uri("x"), Some(x));
    }

    #[test]
    fn push_unique_reports_duplicates() {
        let mut v = Vocab::with_capacity(2, 2);
        assert!(v.push_unique(LabelKind::Uri, "a"));
        assert!(v.push_unique(LabelKind::Literal, "a"));
        assert!(!v.push_unique(LabelKind::Uri, "a"));
        assert!(!v.push_unique(LabelKind::Blank, ""));
        assert_eq!(v.len(), 3);
        assert_eq!(v.find_literal("a"), Some(LabelId(2)));
    }

    /// GtoPdb-shaped URIs: numbered ids that differ only in bytes 4–7
    /// of their last 8-byte word. A slot taken from the low hash bits
    /// puts all of them in one cluster (the low 32 bits of the FxHash
    /// product never see those bytes); the high bits spread them.
    #[test]
    fn numbered_ids_keep_probe_runs_short() {
        const PREFIX: &str = "http://www.guidetopharmacology.org/GRAC/Ligands/";
        const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuv";
        // The last word is `"0000XXXX"`: 4 fixed bytes, then 4 numbered.
        assert_eq!(PREFIX.len() % 8, 0);
        let mut v = Vocab::new();
        for batch in 0..20u32 {
            for n in batch * 10_000..(batch + 1) * 10_000 {
                let mut text = format!("{PREFIX}0000");
                for shift in [15, 10, 5, 0] {
                    text.push(DIGITS[(n >> shift) as usize & 31] as char);
                }
                assert_eq!(text.len() % 8, 0);
                v.uri(&text);
            }
            let longest = longest_probe(&v);
            assert!(longest <= 32, "probe run of {longest} slots");
        }
        assert_eq!(v.len(), 200_001);
    }

    /// One step of the model check: intern or look up `(kind, text)`.
    #[derive(Debug, Clone)]
    struct Op {
        intern: bool,
        kind: LabelKind,
        text: String,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // A small alphabet so that texts repeat and collide across
        // the two namespaces.
        let text = proptest::collection::vec(0usize..4, 0..12).prop_map(|cs| {
            cs.into_iter().map(|c| ['a', 'b', 'é', '/'][c]).collect()
        });
        let kind = any::<bool>().prop_map(|uri| {
            if uri {
                LabelKind::Uri
            } else {
                LabelKind::Literal
            }
        });
        (any::<bool>(), kind, text)
            .prop_map(|(intern, kind, text)| Op { intern, kind, text })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The arena vocabulary behaves like a map from `(kind, text)`
        /// to dense ids.
        #[test]
        fn agrees_with_map_model(
            ops in proptest::collection::vec(arb_op(), 0..300)
        ) {
            let mut v = Vocab::new();
            let mut model: HashMap<(LabelKind, String), LabelId> =
                HashMap::new();
            for Op { intern, kind, text } in ops {
                let got = match (intern, kind) {
                    (true, LabelKind::Uri) => Some(v.uri(&text)),
                    (true, _) => Some(v.literal(&text)),
                    (false, LabelKind::Uri) => v.find_uri(&text),
                    (false, _) => v.find_literal(&text),
                };
                let fresh = LabelId(model.len() as u32 + 1);
                let want = if intern {
                    Some(*model.entry((kind, text)).or_insert(fresh))
                } else {
                    model.get(&(kind, text)).copied()
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(v.len(), model.len() + 1);
            }
            for ((kind, text), id) in &model {
                prop_assert_eq!(v.kind(*id), *kind);
                prop_assert_eq!(v.text(*id), text.as_str());
                // Namespaces are disjoint: the other kind's lookup sees
                // only its own entry for the same text.
                let (other, found) = match kind {
                    LabelKind::Uri => {
                        (LabelKind::Literal, v.find_literal(text))
                    }
                    _ => (LabelKind::Uri, v.find_uri(text)),
                };
                let want = model.get(&(other, text.clone())).copied();
                prop_assert_eq!(found, want);
                prop_assert_ne!(found, Some(*id));
            }
        }
    }

    #[test]
    fn display_formats() {
        let mut v = Vocab::new();
        let u = v.uri("u:x");
        let l = v.literal("lit");
        assert_eq!(format!("{}", v.resolve(u)), "u:x");
        assert_eq!(format!("{}", v.resolve(l)), "\"lit\"");
        assert_eq!(format!("{}", v.resolve(LabelId::BLANK)), "_:b");
    }
}
