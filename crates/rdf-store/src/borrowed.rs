//! [`BorrowedStoreReader`]: serve a graph *view* out of a store buffer
//! without materialising owned triple vectors.
//!
//! This is the read side of the zero-copy load path: a [`StoreBuf`]
//! (mapped file or aligned owned buffer) is parsed in place, and the
//! 4-byte `NODE`/`TRPL` columns are handed out as
//! [`rdf_model::TripleGraphView`] columns that **borrow the file
//! bytes** on a little-endian host (big-endian hosts get owned copies
//! through the same API).
//!
//! The view borrows from the reader, which the borrow checker turns
//! into the safety property that matters: a view can never outlive the
//! buffer (mapping) backing it. See the compile-fail example on
//! [`BorrowedStoreReader`].

use crate::container::{Container, KIND_GRAPH};
use crate::error::StoreError;
use crate::fixed::{fixed_column, parse_fixed_body, read_column};
use crate::graph_store::{
    decode_dict_checked, kinds_for_labels, section_span, TAG_DICT, TAG_NODE,
    TAG_TRPL,
};
use crate::mmap::StoreBuf;
use rdf_model::{
    label_ids_from_le_bytes, node_ids_from_le_bytes, LabelId, NodeId,
    TripleGraphView, Vocab,
};
use rdf_obs::Recorder;
use std::borrow::Cow;
use std::path::Path;

/// A graph store opened over a [`StoreBuf`] for borrowed (zero-copy)
/// views.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_store::{graph_to_bytes, BorrowedStoreReader, StoreBuf};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let bytes = graph_to_bytes(&vocab, &g).unwrap();
/// let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
/// let (vocab2, view) = reader.read_view().unwrap();
/// assert_eq!(view.triple_count(), g.triple_count());
/// assert_eq!(view.labels(), g.graph().labels_raw());
/// assert!(vocab2.find_uri("address").is_some());
/// ```
///
/// A view cannot outlive its reader (and thus its mapping) — this does
/// not compile:
///
/// ```compile_fail
/// use rdf_store::{BorrowedStoreReader, StoreBuf};
///
/// let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&[]));
/// let view = reader.read_view();
/// drop(reader); // error: `reader` is still borrowed by `view`
/// let _ = view;
/// ```
#[derive(Debug)]
pub struct BorrowedStoreReader {
    buf: StoreBuf,
}

impl BorrowedStoreReader {
    /// Open a store file as a buffer (mapped when possible).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(BorrowedStoreReader {
            buf: StoreBuf::open(path)?,
        })
    }

    /// Wrap an existing buffer.
    pub fn from_buf(buf: StoreBuf) -> Self {
        BorrowedStoreReader { buf }
    }

    /// The underlying buffer.
    pub fn buf(&self) -> &StoreBuf {
        &self.buf
    }

    /// Decode the dictionary and serve the graph as a view whose
    /// columns borrow from the buffer.
    pub fn read_view(
        &self,
    ) -> Result<(Vocab, TripleGraphView<'_>), StoreError> {
        self.read_view_traced(&Recorder::disabled())
    }

    /// [`BorrowedStoreReader::read_view`] with instrumentation: one
    /// `store.open` span (bytes) plus one `store.section` span per
    /// section touched (`DICT`, `NODE`, `TRPL` — a view never decodes
    /// `BNAM`). The view is identical to the untraced one.
    pub fn read_view_traced(
        &self,
        rec: &Recorder,
    ) -> Result<(Vocab, TripleGraphView<'_>), StoreError> {
        let bytes = self.buf.as_slice();
        let mut open = rec.span("store.open");
        open.field("bytes", bytes.len());
        let c = Container::parse(bytes)?;
        drop(open);
        let header = *c.header();
        if header.kind != KIND_GRAPH {
            return Err(StoreError::WrongContentKind {
                found: header.kind,
                expected: KIND_GRAPH,
            });
        }

        let dict_body = c.section(TAG_DICT)?;
        let vocab = {
            let _sp = section_span(rec, "DICT", dict_body.len());
            decode_dict_checked(dict_body, Some(header.counts[0]))?
        };

        let node_body = c.section(TAG_NODE)?;
        let labels: Cow<'_, [LabelId]> = {
            let _sp = section_span(rec, "NODE", node_body.len());
            let fb = parse_fixed_body(
                node_body,
                1,
                Some(header.counts[1]),
                "NODE section",
            )?;
            let col = fixed_column(node_body, &fb, 0);
            match label_ids_from_le_bytes(col) {
                Some(ids) => Cow::Borrowed(ids),
                None => Cow::Owned(
                    read_column(col).into_iter().map(LabelId).collect(),
                ),
            }
        };
        let kinds = kinds_for_labels(&labels, &vocab)?;

        let trpl_body = c.section(TAG_TRPL)?;
        let [s, p, o] = {
            let _sp = section_span(rec, "TRPL", trpl_body.len());
            let fb = parse_fixed_body(
                trpl_body,
                3,
                Some(header.counts[2]),
                "TRPL section",
            )?;
            [0, 1, 2].map(|i| {
                let col = fixed_column(trpl_body, &fb, i);
                match node_ids_from_le_bytes(col) {
                    Some(ids) => Cow::Borrowed(ids),
                    None => Cow::Owned(
                        read_column(col).into_iter().map(NodeId).collect(),
                    ),
                }
            })
        };

        let view =
            TripleGraphView::from_sorted_columns(labels, kinds, s, p, o)
                .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        Ok((vocab, view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_store::graph_to_bytes;
    use rdf_model::RdfGraphBuilder;

    fn sample() -> (Vocab, rdf_model::RdfGraph) {
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8 9AB");
            b.bul("b1", "city", "Edinburgh");
            b.uul("ss", "name", "Sławek");
            b.uuu("ss", "employer", "ed-uni");
            b.finish()
        };
        (vocab, g)
    }

    #[test]
    fn view_matches_owned_load() {
        let (vocab, g) = sample();
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
        let (v2, view) = reader.read_view().unwrap();
        assert_eq!(view.node_count(), g.node_count());
        assert_eq!(view.triple_count(), g.triple_count());
        assert_eq!(view.labels(), g.graph().labels_raw());
        assert_eq!(view.kinds(), g.graph().kinds_raw());
        assert_eq!(view.to_graph().triples(), g.graph().triples());
        let (owned_v, _) =
            crate::StoreReader::from_bytes(bytes).read_graph().unwrap();
        assert_eq!(v2.len(), owned_v.len());
    }

    #[test]
    fn wide_store_borrows_columns_zero_copy() {
        // A chain graph big enough that the columns dominate the
        // resident-bytes accounting.
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            for i in 0..70_000u32 {
                b.uuu(
                    &format!("n{i}"),
                    "next",
                    &format!("n{}", (i + 1) % 70_000),
                );
            }
            b.finish()
        };
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
        let (_, view) = reader.read_view().unwrap();
        assert!(
            view.columns_borrowed(),
            "LE columns must borrow from the buffer"
        );
        assert_eq!(view.to_graph().triples(), g.graph().triples());
        // Borrowed columns keep almost nothing resident: well under the
        // 12 bytes/triple the owned triple vector alone would cost.
        assert!(
            view.resident_bytes() < 6 * view.triple_count(),
            "resident {} for {} triples",
            view.resident_bytes(),
            view.triple_count()
        );
    }

    #[test]
    fn wrong_kind_rejected() {
        let (vocab, g) = sample();
        let dir = std::env::temp_dir().join(format!(
            "rdf-borrowed-kind-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.rdfm");
        crate::save_sharded(&manifest, &vocab, &g, 2).unwrap();
        let reader = BorrowedStoreReader::open(&manifest).unwrap();
        assert!(matches!(
            reader.read_view(),
            Err(StoreError::WrongContentKind { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
