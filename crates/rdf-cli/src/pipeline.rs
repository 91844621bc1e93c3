//! Input resolution for the CLI pipeline: every subcommand that reads a
//! graph goes through here, so `.rdfb` single-file stores, `.rdfm`
//! sharded manifests and plain N-Triples text are accepted anywhere a
//! store path is accepted — resolved by file *content* (container magic
//! and kind byte), never by extension.

use crate::CliError;
use rdf_align::Threads;
use rdf_model::{rebase_into, RdfGraph, Vocab};
use rdf_obs::Recorder;
use rdf_store::Store;
use std::path::Path;

pub(crate) fn ctx(path: &Path, e: impl std::fmt::Display) -> CliError {
    CliError::new(format!("{}: {e}", path.display()))
}

/// Sniff a file: `.rdfb`/`.rdfm` containers open with the `RDFB` magic,
/// anything else is treated as N-Triples text.
pub fn is_store(path: &Path) -> Result<bool, CliError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path).map_err(|e| ctx(path, e))?;
    let mut magic = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match file.read(&mut magic[got..]).map_err(|e| ctx(path, e))? {
            0 => return Ok(false),
            n => got += n,
        }
    }
    Ok(magic == rdf_store::MAGIC)
}

/// Open a store of any kind (single-file or sharded), mapped where the
/// platform allows, with the path baked into any error. This is the
/// one store-opening path of the one-shot commands: `info`, `export`
/// and `align` all route through it. The `serve` daemon opens with
/// [`Store::open_owned`] instead.
pub fn open_store(path: &Path) -> Result<Store, CliError> {
    Store::open(path).map_err(|e| ctx(path, e))
}

/// Load either input format (store of either layout, or N-Triples) into
/// the shared session vocabulary. `threads` drives the parallel shard
/// load for manifests and is ignored otherwise. Store loads emit
/// `store.open` / `store.section` / `shard.load` / `vocab.rebase` spans
/// into `rec` (N-Triples text loads are not instrumented). The loaded
/// graph is identical for every thread count, traced or not.
pub fn load_input(
    path: &Path,
    vocab: &mut Vocab,
    threads: Threads,
    rec: &Recorder,
) -> Result<RdfGraph, CliError> {
    if is_store(path)? {
        load_store(&open_store(path)?, path, vocab, threads, rec)
    } else {
        rdf_io::load_file(path, vocab).map_err(|e| ctx(path, e))
    }
}

/// Decode an opened store and re-express its dictionary in the session
/// vocabulary: O(|dictionary|) string work, nothing per node or triple.
pub(crate) fn load_store(
    store: &Store,
    path: &Path,
    vocab: &mut Vocab,
    threads: Threads,
    rec: &Recorder,
) -> Result<RdfGraph, CliError> {
    let (store_vocab, graph) =
        store.graph(threads, rec).map_err(|e| ctx(path, e))?;
    Ok(rebase(vocab, &store_vocab, &graph, rec))
}

/// [`rebase_into`] under a `vocab.rebase` span: `labels` is the size of
/// the store dictionary, `identity` whether the session vocabulary was
/// still empty (the copying shortcut).
pub(crate) fn rebase(
    vocab: &mut Vocab,
    from: &Vocab,
    graph: &RdfGraph,
    rec: &Recorder,
) -> RdfGraph {
    let mut span = rec.span("vocab.rebase");
    span.field("labels", from.len());
    span.field("identity", vocab.is_empty());
    rebase_into(vocab, from, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::RdfGraphBuilder;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rdf-cli-pipeline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Nonexistent paths, `.rdfb` single files and `.rdfm` manifests
    /// each resolve correctly (and with the path in the error message
    /// on failure).
    #[test]
    fn open_any_covers_every_input_shape() {
        let dir = tmp("openany");
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8");
            b.finish()
        };
        let single = dir.join("g.rdfb");
        rdf_store::save_graph(&single, &vocab, &g).unwrap();
        let manifest = dir.join("g.rdfm");
        rdf_store::save_sharded(&manifest, &vocab, &g, 3).unwrap();

        // A single file is its own cache key; a manifest is not.
        assert!(open_store(&single).unwrap().content_key().is_some());
        assert!(open_store(&manifest).unwrap().content_key().is_none());
        let err = open_store(&dir.join("absent.rdfb")).unwrap_err();
        assert!(err.to_string().contains("absent.rdfb"), "got: {err}");

        // And both layouts load to the same graph through the shared
        // session-vocabulary path.
        let mut session = Vocab::new();
        let rec = Recorder::disabled();
        let a = load_input(&single, &mut session, Threads::Auto, &rec)
            .unwrap();
        let b =
            load_input(&manifest, &mut session, Threads::Fixed(2), &rec)
                .unwrap();
        assert_eq!(a.graph().triples(), b.graph().triples());
        assert_eq!(a.graph().labels_raw(), b.graph().labels_raw());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
