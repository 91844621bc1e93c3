//! Typed load/save errors. Corrupt or truncated containers must fail
//! loudly with one of these — never panic, never load garbage.

use std::fmt;

/// Everything that can go wrong writing or (mostly) reading a `.rdfb`
/// container.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `RDFB` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The container's format version is not the one this build reads
    /// for its content kind (e.g. a version-1 graph store written
    /// before the fixed-width layout became the only one).
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The version this build reads for the header's content kind.
        supported: u16,
    },
    /// The container holds a different content kind than requested
    /// (e.g. an archive passed to the graph loader).
    WrongContentKind {
        /// Kind byte found in the header.
        found: u8,
        /// Kind byte expected by the caller.
        expected: u8,
    },
    /// A section payload's CRC-32 does not match its header.
    ChecksumMismatch {
        /// Four-character tag of the failing section.
        section: [u8; 4],
        /// Checksum recorded in the section header.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// The file ends in the middle of a structure.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A required section is absent.
    MissingSection {
        /// Tag of the missing section.
        section: [u8; 4],
    },
    /// A shard file named by a manifest does not exist on disk.
    MissingShard {
        /// Path of the absent shard file.
        path: String,
    },
    /// A shard file's bytes disagree with the whole-file CRC recorded
    /// in its manifest entry (the file was replaced, reordered or
    /// damaged as a unit — finer-grained damage is caught by the
    /// shard's own section checksums).
    ShardChecksumMismatch {
        /// Shard file name as listed in the manifest.
        shard: String,
        /// CRC recorded in the manifest.
        stored: u32,
        /// CRC computed over the file actually read.
        computed: u32,
    },
    /// An error raised while parsing one shard of a sharded store,
    /// wrapped with the shard's file name. A bare
    /// [`StoreError::ChecksumMismatch`] (say) from deep inside a shard
    /// container would otherwise never name which of the N files
    /// failed.
    InShard {
        /// Shard file name as listed in the manifest.
        shard: String,
        /// The underlying error from parsing that shard.
        source: Box<StoreError>,
    },
    /// Structurally invalid content (bad counts, out-of-range ids,
    /// inconsistent dictionaries, …).
    Corrupt(String),
}

fn tag_str(tag: &[u8; 4]) -> String {
    tag.iter()
        .map(|&b| {
            if b.is_ascii_graphic() {
                (b as char).to_string()
            } else {
                format!("\\x{b:02x}")
            }
        })
        .collect()
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => write!(
                f,
                "not an RDFB container (magic {:?})",
                tag_str(found)
            ),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "container format version {found} is not supported (this \
                 build reads version {supported}); re-import the source \
                 data to rewrite the file"
            ),
            StoreError::WrongContentKind { found, expected } => write!(
                f,
                "container holds content kind {found}, expected {expected}"
            ),
            StoreError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "section {:?} checksum mismatch: stored {stored:#010x}, \
                 computed {computed:#010x}",
                tag_str(section)
            ),
            StoreError::Truncated { what } => {
                write!(f, "file truncated while reading {what}")
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section {:?} missing", tag_str(section))
            }
            StoreError::MissingShard { path } => {
                write!(f, "shard file {path} is missing")
            }
            StoreError::ShardChecksumMismatch {
                shard,
                stored,
                computed,
            } => write!(
                f,
                "shard {shard} checksum mismatch: manifest records \
                 {stored:#010x}, file computes {computed:#010x}"
            ),
            StoreError::InShard { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::InShard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
