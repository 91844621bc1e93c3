//! Persistent dictionary-encoded graph store — the `.rdfb` container.
//!
//! The alignment pipeline's inputs are N-Triples dumps that, before this
//! crate, were re-tokenised on every run. Following the I/O-efficient
//! bisimulation literature (Luo et al., Hellings et al.), the enabling
//! step for big-graph work is a compact binary representation that loads
//! without re-parsing: a deduplicated label dictionary plus the sorted
//! triple list as fixed-width columns (served zero-copy from a mapped
//! file by [`Store::view`]), each section protected by a CRC-32
//! so corruption fails loudly.
//!
//! * [`StoreWriter`] / [`save_graph`] — serialise a graph + vocabulary;
//! * [`Store`] — the one read handle: [`Store::open`] reads a store of
//!   any kind once and resolves its content kind from the header, then
//!   [`Store::graph`] reconstructs the graph with **zero per-triple
//!   string hashing** (only the dictionary itself is re-interned, once
//!   per distinct label), [`Store::view`] serves its columns zero-copy
//!   and [`Store::info`] summarises it;
//! * [`import_ntriples`] — stream N-Triples from any `BufRead` into a
//!   store without materialising the document;
//! * [`sharded`] — the sharded layout: a `.rdfm` manifest (global
//!   dictionary + shard directory) plus N subject-hash-partitioned
//!   `.rdfb` shard files, which [`Store::graph`] loads concurrently and
//!   stitches bit-identically to the single-file load, and
//!   [`Store::shards`] serves one shard at a time ([`save_sharded`],
//!   [`StoreShards`]);
//! * [`container`] — the generic section framing, reused by
//!   `rdf-archive` for persistent archives.
//!
//! The byte-level layout of every container kind — header, section
//! framing, `DICT`/`NODE`/`TRPL`/`BNAM`/`SHRD` bodies, padding, varint
//! and CRC rules, and the `shard_of` subject hash — is specified normatively
//! in **`docs/FORMAT.md`** at the repository root; module comments
//! here only summarise it.
//!
//! ```
//! use rdf_model::{RdfGraphBuilder, Vocab};
//! use rdf_obs::Recorder;
//! use rdf_par::Threads;
//! use rdf_store::{graph_to_bytes, Store};
//!
//! let mut vocab = Vocab::new();
//! let g = {
//!     let mut b = RdfGraphBuilder::new(&mut vocab);
//!     b.uub("ss", "address", "b1");
//!     b.bul("b1", "zip", "EH8");
//!     b.finish()
//! };
//! let bytes = graph_to_bytes(&vocab, &g).unwrap();
//! let store = Store::from_bytes(&bytes).unwrap();
//! let rec = Recorder::disabled();
//! let (vocab2, g2) = store.graph(Threads::Auto, &rec).unwrap();
//! assert_eq!(g2.triple_count(), g.triple_count());
//! assert_eq!(vocab2.find_uri("address").is_some(), true);
//! ```

#![deny(missing_docs)]

pub mod borrowed;
pub mod checksum;
pub mod container;
pub mod dict;
pub mod error;
pub mod fixed;
pub mod graph_store;
pub mod import;
pub mod mmap;
pub mod sharded;
pub mod store;
pub mod varint;

pub use container::{
    version_for, Container, ContainerWriter, Header, Layout,
    ARCHIVE_VERSION, FORMAT_VERSION, KIND_ARCHIVE, KIND_GRAPH,
    KIND_MANIFEST, KIND_SHARD, MAGIC,
};
pub use error::StoreError;
pub use graph_store::{graph_to_bytes, save_graph, StoreWriter};
pub use import::{import_ntriples, ImportError};
pub use mmap::StoreBuf;
pub use sharded::{
    save_sharded, shard_of, Manifest, ShardEntry, ShardedWriter, StoreShards,
    DEFAULT_SHARD_SEED, TAG_SHRD,
};
pub use store::{open_any, Store, StoreInfo};
