//! The single-file section walk behind [`Store::graph`] and
//! [`Store::view`]: kind check, then the `DICT`, `NODE` and `TRPL`
//! sections, each in its own `store.section` span.
//!
//! The 4-byte `NODE`/`TRPL` columns are handed out as
//! [`rdf_model::TripleGraphView`] columns that **borrow the store
//! buffer** on a little-endian host (big-endian hosts get owned copies
//! through the same API). The view borrows from the [`Store`], which
//! the borrow checker turns into the safety property that matters: a
//! view can never outlive the buffer (mapping) backing it. See the
//! compile-fail example on [`Store`].
//!
//! [`Store`]: crate::Store
//! [`Store::graph`]: crate::Store::graph
//! [`Store::view`]: crate::Store::view

use crate::container::{Container, KIND_GRAPH};
use crate::error::StoreError;
use crate::fixed::{fixed_column, parse_fixed_body, read_column};
use crate::graph_store::{
    decode_dict_checked, kinds_for_labels, section_span, TAG_DICT, TAG_NODE,
    TAG_TRPL,
};
use rdf_model::{
    label_ids_from_le_bytes, node_ids_from_le_bytes, LabelId, LabelKind,
    NodeId, TripleGraphView, Vocab,
};
use rdf_obs::Recorder;
use std::borrow::Cow;

/// One id column of a parsed fixed body: borrowed from the buffer when
/// `cast` can serve it in place, an owned copy otherwise.
fn id_column<'a, T: Clone>(
    col: &'a [u8],
    cast: fn(&'a [u8]) -> Option<&'a [T]>,
    wrap: fn(u32) -> T,
) -> Cow<'a, [T]> {
    match cast(col) {
        Some(ids) => Cow::Borrowed(ids),
        None => Cow::Owned(read_column(col).into_iter().map(wrap).collect()),
    }
}

/// The decoded graph-global sections: dictionary, per-node labels and
/// per-node kinds.
type Globals<'a> = (Vocab, Cow<'a, [LabelId]>, Vec<LabelKind>);

/// Decode the graph-global `DICT` and `NODE` sections, which single
/// files and manifests share: the dictionary (with `dict_count`, its
/// entry count must match), the per-node label column (exactly `nodes`
/// entries, borrowed where possible) and the per-node kinds.
pub(crate) fn decode_globals<'a>(
    c: &Container<'a>,
    dict_count: Option<u64>,
    nodes: u64,
    rec: &Recorder,
) -> Result<Globals<'a>, StoreError> {
    let dict_body = c.section(TAG_DICT)?;
    let vocab = {
        let _sp = section_span(rec, "DICT", dict_body.len());
        decode_dict_checked(dict_body, dict_count)?
    };
    let node_body = c.section(TAG_NODE)?;
    let labels = {
        let _sp = section_span(rec, "NODE", node_body.len());
        let fb =
            parse_fixed_body(node_body, 1, Some(nodes), "NODE section")?;
        let col = fixed_column(node_body, &fb, 0);
        id_column(col, label_ids_from_le_bytes, LabelId)
    };
    let kinds = kinds_for_labels(&labels, &vocab)?;
    Ok((vocab, labels, kinds))
}

/// Walk a checksummed single-file graph container: check its kind,
/// decode the dictionary and serve the graph as a view whose columns
/// borrow from the container's buffer.
pub(crate) fn walk<'a>(
    c: &Container<'a>,
    rec: &Recorder,
) -> Result<(Vocab, TripleGraphView<'a>), StoreError> {
    let header = *c.header();
    if header.kind != KIND_GRAPH {
        return Err(StoreError::WrongContentKind {
            found: header.kind,
            expected: KIND_GRAPH,
        });
    }
    let (vocab, labels, kinds) =
        decode_globals(c, Some(header.counts[0]), header.counts[1], rec)?;
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
            id_column(col, node_ids_from_le_bytes, NodeId)
        })
    };
    let view = TripleGraphView::from_sorted_columns(labels, kinds, s, p, o)
        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
    Ok((vocab, view))
}

#[cfg(test)]
mod tests {
    use crate::graph_store::graph_to_bytes;
    use crate::Store;
    use rdf_model::{RdfGraphBuilder, Vocab};
    use rdf_obs::Recorder;
    use rdf_par::Threads;

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
        let rec = Recorder::disabled();
        let store = Store::from_bytes(&bytes).unwrap();
        let (v2, view) = store.view(&rec).unwrap();
        assert_eq!(view.node_count(), g.node_count());
        assert_eq!(view.triple_count(), g.triple_count());
        assert_eq!(view.labels(), g.graph().labels_raw());
        assert_eq!(view.kinds(), g.graph().kinds_raw());
        assert_eq!(view.to_graph().triples(), g.graph().triples());
        let (owned_v, _) = store.graph(Threads::Fixed(1), &rec).unwrap();
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
        let store = Store::from_bytes(&bytes).unwrap();
        let (_, view) = store.view(&Recorder::disabled()).unwrap();
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
        let store = Store::open(&manifest).unwrap();
        assert!(matches!(
            store.view(&Recorder::disabled()),
            Err(crate::StoreError::WrongContentKind { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
