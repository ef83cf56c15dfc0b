//! The byte encodings of protocol values: [`WireCodec`], and the one
//! frames are served in.

use serde::{Deserialize, Serialize};

/// A byte encoding for protocol values. Both encode and decode any
/// protocol value; they differ in where they are used. Frames on a served
/// connection are always [`Binary`](WireCodec::Binary); the hello
/// exchange is always [`Json`](WireCodec::Json); values at rest (harness
/// artifact files, debug dumps) may be either. A [`ClientHelloV2`](crate::ClientHelloV2) lists
/// the frame encodings its sender accepts by these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireCodec {
    /// Human-readable JSON ([`serde::json`]): the hello and readable
    /// files.
    Json,
    /// Compact tag-byte + varint encoding ([`serde::binary`]): every
    /// served frame, every admin payload, compact files.
    Binary,
}

/// The one encoding frames are served in after the hello.
pub(crate) const SERVED_CODEC: WireCodec = WireCodec::Binary;

impl WireCodec {
    /// Encodes a value in this codec's byte form.
    pub fn encode<T: Serialize>(&self, t: &T) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(t, &mut out);
        out
    }

    /// Appends a value's byte form to `out` — [`encode`](Self::encode)
    /// into a buffer the caller keeps across frames.
    pub(crate) fn encode_into<T: Serialize>(&self, t: &T, out: &mut Vec<u8>) {
        match self {
            WireCodec::Json => out.extend_from_slice(serde::json::to_string(t).as_bytes()),
            WireCodec::Binary => t.encode(out),
        }
    }

    /// Decodes a value from this codec's byte form.
    ///
    /// # Errors
    ///
    /// On malformed input or input that does not spell a `T`.
    pub fn decode<T: Deserialize>(&self, bytes: &[u8]) -> Result<T, serde::Error> {
        match self {
            WireCodec::Json => {
                let text = std::str::from_utf8(bytes)
                    .map_err(|_| serde::Error::custom("frame is not utf-8"))?;
                serde::json::from_str(text)
            }
            WireCodec::Binary => serde::binary::from_bytes(bytes),
        }
    }
}
