//! Shared `DICT`-section encoding: the label dictionary used by both the
//! graph store and the archive container (one format, two content
//! kinds — a change here changes both, by construction).
//!
//! Layout: varint entry count (including the implicit blank label at
//! id 0), then per non-blank entry a kind tag (1 = URI, 2 = literal), a
//! varint byte length, and the UTF-8 text.

use crate::error::StoreError;
use crate::varint::{read_varint_usize, write_varint};
use rdf_model::{LabelId, LabelKind, Vocab};

/// Append a dictionary section body for the given label ids (the blank
/// label is implicit and must not be among `ids`).
pub fn write_dict(
    out: &mut Vec<u8>,
    vocab: &Vocab,
    ids: impl ExactSizeIterator<Item = LabelId>,
) -> Result<(), StoreError> {
    write_varint(out, ids.len() as u64 + 1);
    for label in ids {
        let kind = match vocab.kind(label) {
            LabelKind::Uri => 1u8,
            LabelKind::Literal => 2u8,
            LabelKind::Blank => {
                return Err(StoreError::Corrupt(
                    "non-zero blank label in dictionary".into(),
                ))
            }
        };
        let text = vocab.text(label);
        out.push(kind);
        write_varint(out, text.len() as u64);
        out.extend_from_slice(text.as_bytes());
    }
    Ok(())
}

/// Decode a dictionary section body into a fresh [`Vocab`] (dense ids,
/// blank at 0). Each text is validated as UTF-8 in place and copied once,
/// straight into the vocabulary's arena. Counts and lengths are
/// untrusted: allocation is capped by the bytes actually present, and all
/// arithmetic is checked.
pub fn read_dict(buf: &[u8], pos: &mut usize) -> Result<Vocab, StoreError> {
    let label_count = read_varint_usize(buf, pos)?;
    if label_count == 0 {
        return Err(StoreError::Corrupt(
            "dictionary must at least hold the blank label".into(),
        ));
    }
    // Each entry occupies >= 2 payload bytes; never reserve more than
    // the payload could possibly hold, however large the count claims.
    let remaining = buf.len() - *pos;
    let cap = (label_count - 1).min(remaining / 2);
    let mut vocab = Vocab::with_capacity(cap, remaining);
    for _ in 1..label_count {
        let kind = match buf.get(*pos) {
            Some(1) => LabelKind::Uri,
            Some(2) => LabelKind::Literal,
            Some(k) => {
                return Err(StoreError::Corrupt(format!(
                    "invalid label kind tag {k}"
                )))
            }
            None => {
                return Err(StoreError::Truncated {
                    what: "dictionary entry",
                })
            }
        };
        *pos += 1;
        let text = read_str(buf, pos, "dictionary text")?;
        if !vocab.push_unique(kind, text) {
            return Err(StoreError::Corrupt(
                "duplicate label text within a namespace".into(),
            ));
        }
    }
    Ok(vocab)
}

/// Borrow a varint length-prefixed UTF-8 string with checked bounds.
fn read_str<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<&'a str, StoreError> {
    let len = read_varint_usize(buf, pos)?;
    let end = pos
        .checked_add(len)
        .ok_or(StoreError::Truncated { what })?;
    let bytes = buf.get(*pos..end).ok_or(StoreError::Truncated { what })?;
    *pos = end;
    std::str::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt(format!("{what} is not UTF-8")))
}

/// Read a varint length-prefixed UTF-8 string with checked bounds.
pub fn read_string(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<String, StoreError> {
    read_str(buf, pos, what).map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut vocab = Vocab::new();
        let u = vocab.uri("http://e.org/x");
        let l = vocab.literal("a literal");
        let mut buf = Vec::new();
        write_dict(&mut buf, &vocab, [u, l].into_iter()).unwrap();
        let mut pos = 0;
        let v2 = read_dict(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(v2.len(), 3);
        assert_eq!(v2.find_uri("http://e.org/x"), Some(LabelId(1)));
        assert_eq!(v2.find_literal("a literal"), Some(LabelId(2)));
    }

    #[test]
    fn duplicate_entry_is_corrupt() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 4);
        for (tag, text) in [(1u8, "x"), (2, "x"), (1, "x")] {
            buf.push(tag);
            write_varint(&mut buf, text.len() as u64);
            buf.extend_from_slice(text.as_bytes());
        }
        let mut pos = 0;
        assert!(matches!(
            read_dict(&buf, &mut pos),
            Err(StoreError::Corrupt(msg)) if msg.contains("duplicate")
        ));
    }

    #[test]
    fn huge_claimed_count_does_not_allocate() {
        // A 6-byte body claiming 2^60 entries must fail with a typed
        // error, not abort on allocation.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 60);
        buf.push(1);
        let mut pos = 0;
        assert!(matches!(
            read_dict(&buf, &mut pos),
            Err(StoreError::Truncated { .. }) | Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_claimed_string_length_is_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(matches!(
            read_string(&buf, &mut pos, "test"),
            Err(StoreError::Truncated { .. })
        ));
    }
}
