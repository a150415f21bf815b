//! A dependency-free binary codec for I/O-IMC models.
//!
//! The persistent model cache (see `dft_core::store`) serializes *closed*
//! aggregated models to disk so a fleet of analysis servers can share one
//! aggregation run across processes and restarts.  This module provides the
//! wire layer that makes an [`IoImcOf`] externalizable without any external
//! crates:
//!
//! * [`Writer`] / [`Reader`] — bounds-checked little-endian primitives
//!   (integers, IEEE-754 bit patterns, length-prefixed strings);
//! * [`RateCodec`] — the rate-generic hook: `f64` rates encode as their bit
//!   pattern, [`RateForm`]s as their sparse `(slot, coefficient)` term lists,
//!   so the *same* model codec serves numeric and parametric closed models;
//! * [`encode_model`] / [`decode_model`] — the model codec itself.
//!
//! [`Action`]s are interned per process, so the codec ships action *names* and
//! re-interns them on decode; everything else round-trips structurally.
//! [`decode_model`] re-validates the result ([`IoImcOf::validate`]) and fails
//! with a [`DecodeError`] instead of panicking on truncated or corrupted
//! input — the store treats any such failure as a cache miss and rebuilds.
//!
//! Round-tripping is exact: rates are carried as IEEE-754 bit patterns and the
//! constructor re-sorts transitions with the same deterministic order the
//! original model was built with, so a decoded model answers every query
//! bit-identically to the model that was encoded (within the same process).

// Decode file: malformed input is a typed error, never a panic (see README).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unreachable, clippy::unimplemented, clippy::indexing_slicing)]
#![deny(clippy::disallowed_macros, clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::action::Action;
use crate::model::{InteractiveTransition, IoImcOf, Label, MarkovianTransitionOf, StateId};
use crate::rate::{Rate, RateForm};
use crate::signature::Signature;
use std::fmt;

/// A decoding failure: truncated input, a malformed field, or a decoded model
/// that fails validation.  Deliberately coarse — the persistent store treats
/// every decode failure the same way (reject the entry and rebuild).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for decoding operations.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;

/// A growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer and returns the bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the wire format is 64-bit everywhere).
    pub fn len_prefix(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.len_prefix(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A bounds-checked cursor over an immutable byte slice; every accessor fails
/// with a [`DecodeError`] instead of panicking when the input is too short.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`, starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self.pos.checked_add(n);
        match end.and_then(|end| self.bytes.get(self.pos..end)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(DecodeError::new(format!(
                "truncated input: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            ))),
        }
    }

    /// Reads exactly `N` bytes into a fixed-size array; infallible once the
    /// length check passes, so the integer readers below need no conversion
    /// that could panic.
    fn take_array<const N: usize>(&mut self) -> DecodeResult<[u8; N]> {
        let slice = self.take(N)?;
        let mut array = [0u8; N];
        for (dst, src) in array.iter_mut().zip(slice) {
            *dst = *src;
        }
        Ok(array)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> DecodeResult<u8> {
        let [byte] = self.take_array::<1>()?;
        Ok(byte)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    /// Reads a length prefix and sanity-checks it against the remaining input
    /// (each counted element needs at least `min_element_size` bytes), so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn len_prefix(&mut self, min_element_size: usize) -> DecodeResult<usize> {
        let n = self.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| DecodeError::new(format!("length {n} exceeds the address space")))?;
        if n.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(DecodeError::new(format!(
                "length {n} at offset {} exceeds the {} remaining bytes",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` byte, rejecting anything but 0 and 1.
    pub fn bool(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::new(format!("invalid boolean byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> DecodeResult<String> {
        let len = self.len_prefix(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new("string payload is not valid UTF-8"))
    }
}

/// Rates that can cross the wire.  Implemented for `f64` (numeric closed
/// models) and [`RateForm`] (parametric closed models), which is what makes
/// the transition codec rate-generic.
pub trait RateCodec: Rate {
    /// Appends the rate to the writer.
    fn encode_rate(&self, w: &mut Writer);
    /// Reads one rate back.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input; semantic validity (finite,
    /// positive, …) is re-checked by the model validation after decoding.
    fn decode_rate(r: &mut Reader<'_>) -> DecodeResult<Self>;
}

impl RateCodec for f64 {
    fn encode_rate(&self, w: &mut Writer) {
        w.f64(*self);
    }

    fn decode_rate(r: &mut Reader<'_>) -> DecodeResult<f64> {
        r.f64()
    }
}

impl RateCodec for RateForm {
    fn encode_rate(&self, w: &mut Writer) {
        w.len_prefix(self.num_terms());
        for &(slot, coefficient) in self.terms() {
            w.u32(slot);
            w.f64(coefficient);
        }
    }

    fn decode_rate(r: &mut Reader<'_>) -> DecodeResult<RateForm> {
        let n = r.len_prefix(12)?;
        let mut form = RateForm::zero();
        for _ in 0..n {
            let slot = r.u32()?;
            let coefficient = r.f64()?;
            // `add_assign` merges and canonicalizes, so even a non-canonical
            // encoding decodes to the canonical sparse form.
            form.add_assign(&RateForm::scaled_var(slot, coefficient));
        }
        Ok(form)
    }
}

/// Wire tags for the three interactive label kinds.
const LABEL_INPUT: u8 = 0;
const LABEL_OUTPUT: u8 = 1;
const LABEL_INTERNAL: u8 = 2;

/// Encodes a model onto `w`.  The inverse of [`decode_model`].
///
/// Action names are pooled into one table and referenced by index, so a
/// signal that labels many transitions is shipped once.
pub fn encode_model<R: RateCodec>(model: &IoImcOf<R>, w: &mut Writer) {
    // Every action a valid model references appears in its signature, so the
    // signature sets *are* the action table.
    let actions: Vec<Action> = model
        .signature()
        .inputs()
        .chain(model.signature().outputs())
        .chain(model.signature().internals())
        .collect();
    // Unreachable for validated models (every labelled action appears in the
    // signature): instead of panicking on an unvalidated one, encode the
    // sentinel index, which the decoder rejects as out of range — the store
    // then treats the entry as corrupt and rebuilds.
    let index_of = |a: Action| -> u32 {
        actions
            .iter()
            .position(|&b| b == a)
            .and_then(|i| u32::try_from(i).ok())
            .unwrap_or(u32::MAX)
    };

    w.str(model.name());
    w.len_prefix(model.num_states());
    w.u32(model.initial().raw());

    w.len_prefix(actions.len());
    for &a in &actions {
        w.str(a.name());
    }
    w.len_prefix(model.signature().num_inputs());
    w.len_prefix(model.signature().num_outputs());
    w.len_prefix(model.signature().num_internals());

    w.len_prefix(model.num_interactive());
    for t in model.interactive() {
        w.u32(t.from.raw());
        let (kind, action) = match t.label {
            Label::Input(a) => (LABEL_INPUT, a),
            Label::Output(a) => (LABEL_OUTPUT, a),
            Label::Internal(a) => (LABEL_INTERNAL, a),
        };
        w.u8(kind);
        w.u32(index_of(action));
        w.u32(t.to.raw());
    }

    w.len_prefix(model.num_markovian());
    for t in model.markovian() {
        w.u32(t.from.raw());
        t.rate.encode_rate(w);
        w.u32(t.to.raw());
    }

    w.len_prefix(model.prop_names().len());
    for name in model.prop_names() {
        w.str(name);
    }
    for s in model.states() {
        w.u64(model.prop_mask(s));
    }
}

/// Decodes a model previously written by [`encode_model`], re-interning its
/// action names and re-validating the result.
///
/// # Errors
///
/// Fails on truncated or malformed input, on out-of-range indices, and when
/// the decoded model does not pass [`IoImcOf::validate`].
pub fn decode_model<R: RateCodec>(r: &mut Reader<'_>) -> DecodeResult<IoImcOf<R>> {
    let name = r.str()?;
    let num_states = r.len_prefix(0)?;
    let num_states = u32::try_from(num_states)
        .map_err(|_| DecodeError::new(format!("state count {num_states} exceeds u32")))?;
    // Every state index must be checked against the declared state count
    // *here*: the model constructor indexes its per-state tables with them,
    // so an out-of-range id from corrupt bytes must never reach it.
    let state_at = |raw: u32| -> DecodeResult<StateId> {
        if raw < num_states {
            Ok(StateId::new(raw))
        } else {
            Err(DecodeError::new(format!(
                "state index {raw} out of range ({num_states} states)"
            )))
        }
    };
    let initial = state_at(r.u32()?)?;

    let num_actions = r.len_prefix(8)?;
    let actions: Vec<Action> = (0..num_actions)
        .map(|_| Ok(Action::new(&r.str()?)))
        .collect::<DecodeResult<_>>()?;
    let action_at = |index: u32| -> DecodeResult<Action> {
        usize::try_from(index)
            .ok()
            .and_then(|i| actions.get(i))
            .copied()
            .ok_or_else(|| {
                DecodeError::new(format!(
                    "action index {index} out of range ({num_actions} actions)"
                ))
            })
    };

    let (inputs, outputs, internals) = (r.len_prefix(0)?, r.len_prefix(0)?, r.len_prefix(0)?);
    if inputs + outputs + internals != num_actions {
        return Err(DecodeError::new(format!(
            "signature splits {num_actions} actions into {inputs}+{outputs}+{internals}"
        )));
    }
    let mut signature = Signature::new();
    for (i, &a) in actions.iter().enumerate() {
        if i < inputs {
            signature.add_input(a);
        } else if i < inputs + outputs {
            signature.add_output(a);
        } else {
            signature.add_internal(a);
        }
    }

    let num_interactive = r.len_prefix(13)?;
    let mut interactive = Vec::with_capacity(num_interactive);
    for _ in 0..num_interactive {
        let from = state_at(r.u32()?)?;
        let kind = r.u8()?;
        let action = action_at(r.u32()?)?;
        let to = state_at(r.u32()?)?;
        let label = match kind {
            LABEL_INPUT => Label::Input(action),
            LABEL_OUTPUT => Label::Output(action),
            LABEL_INTERNAL => Label::Internal(action),
            other => return Err(DecodeError::new(format!("invalid label kind {other}"))),
        };
        interactive.push(InteractiveTransition { from, label, to });
    }

    let num_markovian = r.len_prefix(9)?;
    let mut markovian = Vec::with_capacity(num_markovian);
    for _ in 0..num_markovian {
        let from = state_at(r.u32()?)?;
        let rate = R::decode_rate(r)?;
        let to = state_at(r.u32()?)?;
        markovian.push(MarkovianTransitionOf { from, rate, to });
    }

    let num_props = r.len_prefix(8)?;
    if num_props > 64 {
        return Err(DecodeError::new(format!(
            "{num_props} atomic propositions exceed the 64-bit mask"
        )));
    }
    let prop_names: Vec<String> = (0..num_props)
        .map(|_| r.str())
        .collect::<DecodeResult<_>>()?;
    let props: Vec<u64> = (0..num_states)
        .map(|_| r.u64())
        .collect::<DecodeResult<_>>()?;

    let model = IoImcOf::from_parts(
        name,
        signature,
        num_states,
        initial,
        interactive,
        markovian,
        prop_names,
        props,
    );
    model
        .validate()
        .map_err(|e| DecodeError::new(format!("decoded model fails validation: {e}")))?;
    Ok(model)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "tests assert; the decode rules bind the non-test code"
)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilderOf;

    fn sample() -> IoImcOf<f64> {
        let mut b = IoImcBuilderOf::<f64>::new("codec-sample");
        let s = [b.add_state(), b.add_state(), b.add_state(), b.add_state()];
        b.initial(s[0]);
        b.markovian(s[0], 1.5, s[1]);
        b.markovian(s[0], 0.25, s[2]);
        b.input(s[0], Action::new("codec_go"), s[2]);
        b.output(s[1], Action::new("codec_done"), s[3]);
        b.internal(s[2], Action::new("codec_step"), s[3]);
        let failed = b.prop("failed");
        b.set_prop(s[3], failed);
        b.build().unwrap()
    }

    fn roundtrip<R: RateCodec>(model: &IoImcOf<R>) -> IoImcOf<R> {
        let mut w = Writer::new();
        encode_model(model, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = decode_model::<R>(&mut r).unwrap();
        assert!(r.is_done(), "decode must consume the whole encoding");
        decoded
    }

    #[test]
    fn numeric_models_round_trip_exactly() {
        let model = sample();
        let decoded = roundtrip(&model);
        assert_eq!(decoded.name(), model.name());
        assert_eq!(decoded.num_states(), model.num_states());
        assert_eq!(decoded.initial(), model.initial());
        assert_eq!(decoded.interactive(), model.interactive());
        assert_eq!(decoded.markovian(), model.markovian());
        assert_eq!(decoded.signature(), model.signature());
        assert_eq!(decoded.prop_names(), model.prop_names());
        for s in model.states() {
            assert_eq!(decoded.prop_mask(s), model.prop_mask(s));
        }
    }

    #[test]
    fn parametric_models_round_trip_exactly() {
        let mut b = IoImcBuilderOf::<RateForm>::new("codec-parametric");
        let s = [b.add_state(), b.add_state()];
        b.initial(s[0]);
        let mut form = RateForm::var(0);
        form.add_assign(&RateForm::scaled_var(3, 0.25));
        b.markovian(s[0], form, s[1]);
        b.output(s[1], Action::new("codec_pfail"), s[1]);
        let model = b.build().unwrap();
        let decoded = roundtrip(&model);
        assert_eq!(decoded.markovian(), model.markovian());
    }

    #[test]
    fn truncation_and_corruption_fail_cleanly() {
        let mut w = Writer::new();
        encode_model(&sample(), &mut w);
        let bytes = w.into_bytes();
        // Every strict prefix fails with an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_model::<f64>(&mut Reader::new(&bytes[..cut])).is_err());
        }
        // An empty input fails too.
        assert!(decode_model::<f64>(&mut Reader::new(&[])).is_err());
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocating() {
        let mut w = Writer::new();
        w.str("evil");
        w.u64(u64::MAX); // claims u64::MAX states
        let bytes = w.into_bytes();
        assert!(decode_model::<f64>(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn reader_primitives_are_bounds_checked() {
        let mut r = Reader::new(&[1, 0]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.u32().is_err());
        assert_eq!(r.remaining(), 1);
        let mut r = Reader::new(&[2]);
        assert!(r.bool().is_err(), "2 is not a boolean");
    }
}
