//! Compact binary codec for cache storage.
//!
//! The persistent evaluation-cache tier ([`crate::persist`]) stores millions
//! of small `(key, Evaluation)` records; a self-describing format (JSON)
//! would spend most of each record on field names. This module provides a
//! minimal storage codec instead: [`BinCodec`] encodes values as
//! little-endian fixed-width scalars with varint-prefixed lengths and **no**
//! field names, tags or padding. JSON remains the wire format of the service
//! protocol — this codec is for on-disk storage only.
//!
//! # Format
//!
//! * `u8`/`bool`: one byte (`bool` is `0`/`1`; any other byte is a decode
//!   error).
//! * `u32`/`u64`: fixed-width little-endian.
//! * `usize`: encoded as `u64` (checked on decode, so 32-bit readers reject
//!   out-of-range values instead of truncating).
//! * `String`: varint (LEB128) byte count, then the bytes.
//! * structs: fields in declaration order, nothing else.
//!
//! Only the types a persisted `(key, Evaluation)` record contains implement
//! the codec.
//! * enums: one `u8` variant tag in declaration order.
//!
//! # Compatibility rule
//!
//! The layout is positional, so **any** change to an encoded type — a field
//! added, removed, reordered or widened; an enum variant added or reordered —
//! changes the meaning of existing bytes. Whenever such a change lands,
//! [`FORMAT_VERSION`] MUST be bumped in the same commit. Decoders never
//! attempt cross-version repair: the persistent tier skips records from any
//! other version (they are re-simulated and re-persisted under the current
//! one), so a version bump costs one cold run, while a missed bump would
//! silently mis-decode. When in doubt, bump.

use std::fmt;

/// Version byte leading every persisted record. Bump on ANY layout change to
/// an encoded type (see the module-level compatibility rule).
pub const FORMAT_VERSION: u8 = 1;

/// A decode failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum/bool tag byte had no corresponding variant.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint ran past 10 bytes (no valid `u64` does).
    VarintOverflow,
    /// A decoded integer does not fit the target type on this platform.
    OutOfRange {
        /// What was being decoded.
        what: &'static str,
    },
    /// String bytes were not valid UTF-8.
    NonUtf8String,
    /// `decode_exact` finished with input left over.
    TrailingBytes {
        /// Number of undecoded bytes.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => {
                write!(f, "input ended while decoding {what}")
            }
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid tag byte {tag} while decoding {what}")
            }
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::OutOfRange { what } => {
                write!(f, "decoded value out of range for {what}")
            }
            CodecError::NonUtf8String => write!(f, "string bytes are not valid UTF-8"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after the value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Binary encode/decode for cache storage. See the module docs for the
/// format and the compatibility rule.
pub trait BinCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the bytes do not form a valid value.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// The encoding of `self` as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a value that must consume `input` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] when bytes remain after the
    /// value, or any error of [`BinCodec::decode`].
    fn decode_exact(mut input: &[u8]) -> Result<Self, CodecError> {
        let value = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(value)
        } else {
            Err(CodecError::TrailingBytes {
                remaining: input.len(),
            })
        }
    }
}

/// Takes the first `n` bytes of `input`, advancing it.
fn take<'a>(input: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::UnexpectedEof { what });
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Appends the LEB128 varint encoding of `value`.
pub fn encode_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from the front of `input`.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] on a truncated varint and
/// [`CodecError::VarintOverflow`] past 10 bytes.
pub fn decode_varint(input: &mut &[u8]) -> Result<u64, CodecError> {
    let mut value = 0u64;
    for shift in 0..10 {
        let byte = take(input, 1, "varint")?[0];
        value |= u64::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(CodecError::VarintOverflow)
}

impl BinCodec for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take(input, 1, "u8")?[0])
    }
}

impl BinCodec for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what: "bool", tag }),
        }
    }
}

impl BinCodec for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let bytes = take(input, 4, "u32")?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }
}

impl BinCodec for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let bytes = take(input, 8, "u64")?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl BinCodec for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(input)?).map_err(|_| CodecError::OutOfRange { what: "usize" })
    }
}

impl BinCodec for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_varint(self.len() as u64, out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::try_from(decode_varint(input)?).map_err(|_| CodecError::OutOfRange {
            what: "string length",
        })?;
        let bytes = take(input, len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::NonUtf8String)
    }
}

impl BinCodec for msfu_distill::ReusePolicy {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            msfu_distill::ReusePolicy::Reuse => 0,
            msfu_distill::ReusePolicy::NoReuse => 1,
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1, "ReusePolicy")?[0] {
            0 => Ok(msfu_distill::ReusePolicy::Reuse),
            1 => Ok(msfu_distill::ReusePolicy::NoReuse),
            tag => Err(CodecError::InvalidTag {
                what: "ReusePolicy",
                tag,
            }),
        }
    }
}

impl BinCodec for msfu_distill::FactoryConfig {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.k.encode_into(out);
        self.levels.encode_into(out);
        self.reuse.encode_into(out);
        self.barriers.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(msfu_distill::FactoryConfig {
            k: usize::decode(input)?,
            levels: usize::decode(input)?,
            reuse: msfu_distill::ReusePolicy::decode(input)?,
            barriers: bool::decode(input)?,
        })
    }
}

impl BinCodec for crate::Evaluation {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.strategy.encode_into(out);
        self.factory.encode_into(out);
        self.latency_cycles.encode_into(out);
        self.area.encode_into(out);
        self.volume.encode_into(out);
        self.stall_cycles.encode_into(out);
        self.routing_conflicts.encode_into(out);
        self.critical_path_cycles.encode_into(out);
        self.critical_volume.encode_into(out);
        self.logical_qubits.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(crate::Evaluation {
            strategy: String::decode(input)?,
            factory: msfu_distill::FactoryConfig::decode(input)?,
            latency_cycles: u64::decode(input)?,
            area: usize::decode(input)?,
            volume: u64::decode(input)?,
            stall_cycles: u64::decode(input)?,
            routing_conflicts: u64::decode(input)?,
            critical_path_cycles: u64::decode(input)?,
            critical_volume: u64::decode(input)?,
            logical_qubits: usize::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Evaluation, EvaluationConfig};
    use msfu_distill::{FactoryConfig, ReusePolicy};

    fn round_trip<T: BinCodec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        let back = T::decode_exact(&bytes).expect("round-trip decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        for v in [0u8, 1, 0x7f, 0xff] {
            round_trip(v);
        }
        round_trip(true);
        round_trip(false);
        for v in [0u32, 1, u32::MAX] {
            round_trip(v);
        }
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            round_trip(v);
        }
        for v in [0usize, 7, usize::MAX] {
            round_trip(v);
        }
        round_trip(String::new());
        round_trip("κ-distillation".to_string());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX] {
            let mut out = Vec::new();
            encode_varint(v, &mut out);
            let mut slice = out.as_slice();
            assert_eq!(decode_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
        assert_eq!(u64::MAX.to_le_bytes().len(), 8);
        let mut eleven = vec![0x80u8; 11];
        let mut slice = eleven.as_mut_slice() as &[u8];
        assert_eq!(decode_varint(&mut slice), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(ReusePolicy::Reuse);
        round_trip(ReusePolicy::NoReuse);
        round_trip(FactoryConfig::two_level(3).with_reuse(ReusePolicy::NoReuse));
        round_trip(FactoryConfig::single_level(2).with_barriers(false));
    }

    #[test]
    fn evaluation_round_trips() {
        let evaluation = crate::evaluate(
            &FactoryConfig::single_level(2),
            &crate::Strategy::linear(),
            &EvaluationConfig::default(),
        )
        .unwrap();
        round_trip(evaluation);
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let full = crate::evaluate(
            &FactoryConfig::single_level(2),
            &crate::Strategy::linear(),
            &EvaluationConfig::default(),
        )
        .unwrap()
        .to_bytes();
        for cut in 0..full.len() {
            assert!(
                Evaluation::decode_exact(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected_by_decode_exact() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert_eq!(
            u64::decode_exact(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn invalid_tags_are_typed_errors() {
        assert_eq!(
            bool::decode_exact(&[2]),
            Err(CodecError::InvalidTag {
                what: "bool",
                tag: 2
            })
        );
        assert!(matches!(
            ReusePolicy::decode_exact(&[9]),
            Err(CodecError::InvalidTag { .. })
        ));
        assert!(String::decode_exact(&[2, 0xff, 0xfe]).is_err());
    }

    #[test]
    fn errors_display_without_panicking() {
        let errors = [
            CodecError::UnexpectedEof { what: "u64" },
            CodecError::InvalidTag {
                what: "bool",
                tag: 9,
            },
            CodecError::VarintOverflow,
            CodecError::OutOfRange { what: "usize" },
            CodecError::NonUtf8String,
            CodecError::TrailingBytes { remaining: 3 },
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
    }
}
