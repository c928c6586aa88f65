//! Binary snapshot encoding: a tiny std-only codec plus a versioned,
//! length-prefixed, checksummed container.
//!
//! Every piece of simulator state that participates in checkpoint/restore
//! states its wire layout **once**, as a [`Snap`] impl: [`Snap::save`] and
//! [`Snap::restore`] of a plain-data type are both derived from one field
//! list by [`snap_struct!`](crate::snap_struct),
//! [`snap_enum!`](crate::snap_enum) or [`snap_newtype!`](crate::snap_newtype),
//! whose expansions destructure and construct the type exhaustively — a field
//! or variant missing from the list does not compile. The encoding is
//! deliberately boring:
//!
//! * integers are little-endian and fixed-width (`usize` travels as `u64`),
//!   a `bool` is one byte that must be 0 or 1, floats go by their IEEE-754
//!   bits (restore must be *bit*-identical, so floats never go through text);
//! * a struct is its listed fields in list order, a pair is its two halves,
//!   a `Box<T>` is its `T`, a fixed-length array `[T; N]` is its `N` items;
//! * an enum is a one-byte tag, then the variant's fields;
//! * an `Option<T>` is a presence `bool`, then the value if present;
//! * a sequence (`Vec`, `VecDeque`) is a `u64` count, then the items; a reader checks the count against [`Snap::MIN_BYTES`] of the item
//!   and the bytes that remain *before* it allocates anything;
//! * a map is a sequence of `(key, value)` pairs in ascending key order (a
//!   `HashMap`'s iteration order is not part of its state), and a reader
//!   refuses a key it has already seen.
//!
//! A format that is mostly small numbers can also write an integer as a
//! LEB128 varint ([`SnapWriter::put_var`]): seven bits per byte, least
//! significant group first, the high bit set on every byte but the last. A
//! reader refuses a varint with a redundant zero last byte or one that does
//! not fit in a `u64`, so each value has exactly one encoding.
//!
//! State that is overlaid onto an object built from configuration (a switch,
//! a port, a host, a flow table) is not a `Snap`: it keeps a hand-written
//! `restore_state(&mut self, ..)` that moves fields through the trait and
//! holds only what it validates against the object or rebuilds from it. For
//! those, [`SnapWriter::put_all`] / [`SnapReader::fill`] move a run of items
//! whose length both sides already know, [`SnapReader::get_exact`] /
//! [`SnapReader::expect_count`] a counted one whose length must match, and
//! [`SnapWriter::put_option`] / [`SnapReader::get_option_into`] an `Option`
//! of such state, present exactly where the target has it.
//!
//! What makes a stream a *snapshot file* is the outer container written by
//! [`finalize`] and checked by [`open`]:
//!
//! ```text
//! magic (8 bytes) | version (u32) | payload length (u64) | payload | checksum (u64)
//! ```
//!
//! All integers are little-endian. The checksum ([`checksum64`]) covers
//! everything before it, so truncation, bit rot and foreign files are all
//! rejected before any payload byte is interpreted. The version is checked
//! against the reader's expected version — and before the checksum — so a
//! file written under an older payload layout or an older checksum answers
//! [`SnapError::BadVersion`] instead of being misparsed.
//!
//! [`finalize`] builds the whole file in one buffer: the header goes in
//! first, the caller encodes the payload straight after it, and the length
//! and checksum are filled in at the end — a million-record trace is never
//! copied to be framed.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Errors produced while opening or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the decoder got the bytes it needed.
    UnexpectedEof,
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The container's format version is not the one this reader supports.
    BadVersion(u32),
    /// The checksum over the container does not match.
    BadChecksum,
    /// The payload decoded to something structurally impossible.
    Corrupt(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof => write!(f, "snapshot truncated (unexpected end of input)"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch (file corrupted)"),
            SnapError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// The container checksum: FNV-1a-64's xor-then-multiply step taken over
/// little-endian 8-byte words instead of single bytes (the last `len % 8`
/// bytes are folded one at a time), so a file costs one multiply per eight
/// bytes.
///
/// Detection guarantee: for a fixed input word `h -> (h ^ word) * PRIME` is a
/// bijection on `u64` (the prime is odd), and for a fixed `h` it is a
/// bijection in the word. Two inputs of equal length that differ in exactly
/// one word — hence in any one byte — therefore leave that step with
/// different states, and every later step maps different states to different
/// states: the checksums differ. Longer-range damage is caught with the usual
/// 2^-64 odds.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Appends a `u64` to `buf` as a LEB128 varint: one byte below 128, at most
/// ten. What [`SnapWriter::put_var`] writes, for a body held as a plain
/// `Vec<u8>`.
#[inline]
pub fn put_var(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// An append-only byte buffer with fixed-width little-endian encoders.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the raw payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for `additional` more bytes, for a caller that knows how
    /// much it is about to write.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` as a LEB128 varint ([`put_var`]).
    #[inline]
    pub fn put_var(&mut self, v: u64) {
        put_var(&mut self.buf, v);
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by its IEEE-754 bits — exact, no text round-trip.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.put_raw(v);
    }

    /// Appends bytes already encoded, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends an `Option` whose value `save` writes: the `Option<T>`
    /// encoding for a `T` that is overlaid on restore, not a [`Snap`].
    pub fn put_option<T>(&mut self, value: Option<&T>, save: impl FnOnce(&T, &mut SnapWriter)) {
        self.put_bool(value.is_some());
        if let Some(value) = value {
            save(value, self);
        }
    }

    /// Appends every item, with no count: the reader knows how many.
    pub fn put_all<'a, T: Snap + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        for item in items {
            item.save(self);
        }
    }

    /// Appends a map as the sequence of its `(key, value)` pairs in ascending
    /// key order.
    pub fn put_map<'a, K: Snap + Ord + 'a, V: Snap + 'a>(
        &mut self,
        entries: impl Iterator<Item = (&'a K, &'a V)>,
    ) {
        let mut entries: Vec<(&K, &V)> = entries.collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        self.put_usize(entries.len());
        for (key, value) in entries {
            key.save(self);
            value.save(self);
        }
    }
}

/// A cursor over a snapshot payload with decoders mirroring [`SnapWriter`].
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly to the end.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after payload"))
        }
    }

    // `take`, the scalar getters and the scalar / newtype / struct `Snap`
    // impls are `#[inline]` because other crates call them once per scalar:
    // left out of line, reading a 1 M-record `.flight` took 30 % longer than
    // the hand-written loop this trait replaced.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte out of range")),
        }
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a LEB128 varint ([`SnapWriter::put_var`]), refusing one with a
    /// redundant zero last byte or one that overflows a `u64`.
    #[inline]
    pub fn get_var(&mut self) -> Result<u64, SnapError> {
        let rest = &self.buf[self.pos..];
        let mut v = 0;
        for (i, &byte) in rest.iter().take(10).enumerate() {
            v |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                if i == 9 && byte > 1 {
                    break;
                }
                if byte == 0 && i > 0 {
                    return Err(SnapError::Corrupt("overlong varint"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(if rest.len() < 10 {
            SnapError::UnexpectedEof
        } else {
            SnapError::Corrupt("varint overflows u64")
        })
    }

    /// Reads a `u64` and narrows it to `usize`, guarding against payloads
    /// that claim more elements than the input could possibly hold.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("length exceeds usize"))
    }

    /// Reads a length prefix that counts items of at least `min_item_bytes`
    /// each, rejecting counts the remaining input cannot contain.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        if min_item_bytes > 0 && n > self.remaining() / min_item_bytes {
            return Err(SnapError::UnexpectedEof);
        }
        Ok(n)
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64`-length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_count(1)?;
        self.take(n)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SnapError::Corrupt("invalid UTF-8"))
    }

    /// Reads one `T`.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::restore(self)
    }

    /// Reads the count of a sequence of `T`, rejecting one the remaining
    /// input cannot hold.
    pub fn get_len<T: Snap>(&mut self) -> Result<usize, SnapError> {
        self.get_count(T::MIN_BYTES)
    }

    /// Reads an `Option` over `target`: a present value is handed to
    /// `restore`, and a presence that is not `target`'s is
    /// `Corrupt(mismatch)`.
    pub fn get_option_into<T>(
        &mut self,
        target: Option<&mut T>,
        mismatch: &'static str,
        restore: impl FnOnce(&mut T, &mut Self) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        match (self.get_bool()?, target) {
            (true, Some(target)) => restore(target, self),
            (false, None) => Ok(()),
            _ => Err(SnapError::Corrupt(mismatch)),
        }
    }

    /// Reads `dst.len()` uncounted items over `dst`.
    pub fn fill<T: Snap>(&mut self, dst: &mut [T]) -> Result<(), SnapError> {
        for slot in dst {
            *slot = T::restore(self)?;
        }
        Ok(())
    }

    /// Reads a count that must be `expected` (a length fixed by the
    /// configuration the restore target was built from).
    pub fn expect_count(
        &mut self,
        expected: usize,
        mismatch: &'static str,
    ) -> Result<(), SnapError> {
        if self.get_usize()? == expected {
            Ok(())
        } else {
            Err(SnapError::Corrupt(mismatch))
        }
    }

    /// Reads a sequence of exactly `dst.len()` items over `dst`.
    pub fn get_exact<T: Snap>(
        &mut self,
        dst: &mut [T],
        mismatch: &'static str,
    ) -> Result<(), SnapError> {
        self.expect_count(dst.len(), mismatch)?;
        self.fill(dst)
    }

    /// Reads a sequence, handing each item to `push` — for a collection that
    /// keeps the storage it already owns, or grows as its pushes grow it.
    pub fn get_seq<T: Snap>(&mut self, mut push: impl FnMut(T)) -> Result<(), SnapError> {
        for _ in 0..self.get_len::<T>()? {
            push(T::restore(self)?);
        }
        Ok(())
    }

    /// Reads a map into `dst`, which keeps its storage and loses its
    /// contents; a repeated key is `Corrupt(duplicate)`.
    pub fn get_map<K: Snap + Eq + Hash, V: Snap, S: BuildHasher>(
        &mut self,
        dst: &mut HashMap<K, V, S>,
        duplicate: &'static str,
    ) -> Result<(), SnapError> {
        dst.clear();
        for _ in 0..self.get_len::<(K, V)>()? {
            let (key, value) = self.get()?;
            if dst.insert(key, value).is_some() {
                return Err(SnapError::Corrupt(duplicate));
            }
        }
        Ok(())
    }
}

/// A type with one wire encoding (see the module docs for the encodings).
///
/// Plain-data types get their impl from [`snap_struct!`](crate::snap_struct),
/// [`snap_enum!`](crate::snap_enum) or [`snap_newtype!`](crate::snap_newtype).
/// A hand-written impl exists only where `restore` validates what it read or
/// rebuilds state that is derived rather than stored, and says so; its `save`
/// destructures `self` without `..`, so a new field cannot go unmentioned.
pub trait Snap: Sized {
    /// A lower bound on the encoded size of any value, in bytes — what a
    /// sequence reader divides the remaining input by to refuse an impossible
    /// count before allocating for it. Exact for fixed-size types; an enum
    /// claims its tag alone.
    const MIN_BYTES: usize;

    /// Appends the value's encoding.
    fn save(&self, w: &mut SnapWriter);

    /// Decodes one value.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// [`Snap::MIN_BYTES`] of the field a projection selects: lets
/// [`snap_struct!`](crate::snap_struct) sum its fields' bounds from their
/// names alone.
pub const fn field_min_bytes<S, T: Snap>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

macro_rules! snap_scalar {
    ($($ty:ty: $bytes:literal, $put:ident, $get:ident;)+) => {$(
        impl Snap for $ty {
            const MIN_BYTES: usize = $bytes;
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            #[inline]
            fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    )+};
}

snap_scalar! {
    u8: 1, put_u8, get_u8;
    bool: 1, put_bool, get_bool;
    u32: 4, put_u32, get_u32;
    u64: 8, put_u64, get_u64;
    usize: 8, put_usize, get_usize;
    f64: 8, put_f64, get_f64;
}

impl<T: Snap> Snap for Option<T> {
    const MIN_BYTES: usize = bool::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        w.put_option(self.as_ref(), T::save);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_bool()?.then(|| T::restore(r)).transpose()
    }
}

impl<T: Snap> Snap for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        T::save(self, w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        T::restore(r).map(Box::new)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        w.put_all(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut items = [T::default(); N];
        r.fill(&mut items)?;
        Ok(items)
    }
}

impl<T: Snap> Snap for Vec<T> {
    const MIN_BYTES: usize = usize::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        w.put_all(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len::<T>()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::restore(r)?);
        }
        Ok(items)
    }
}

/// Restored through [`SnapReader::get_seq`], not pre-sized: a ring of exactly
/// the saved length would reallocate on the first push of the resumed run.
impl<T: Snap> Snap for VecDeque<T> {
    const MIN_BYTES: usize = usize::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        w.put_all(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut items = VecDeque::new();
        r.get_seq(|item| items.push_back(item))?;
        Ok(items)
    }
}

impl<K: Snap + Ord + Hash, V: Snap, S: BuildHasher + Default> Snap for HashMap<K, V, S> {
    const MIN_BYTES: usize = usize::MIN_BYTES;
    fn save(&self, w: &mut SnapWriter) {
        w.put_map(self.iter());
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut map = HashMap::default();
        r.get_map(&mut map, "duplicate map key")?;
        Ok(map)
    }
}

/// Derives [`Snap`] for a struct from the one list of its fields, in wire
/// order: `snap_struct! { Transmitter { busy_until, wake_pending } }`. Every
/// field must be listed — `save` destructures the struct and `restore`
/// constructs it, both without `..`.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        const _: () = {
            use $crate::snapshot::{field_min_bytes, Snap, SnapError, SnapReader, SnapWriter};
            impl Snap for $ty {
                const MIN_BYTES: usize = 0 $(+ field_min_bytes(|s: &Self| &s.$field))+;
                fn save(&self, w: &mut SnapWriter) {
                    let Self { $($field),+ } = self;
                    $($field.save(w);)+
                }
                #[inline]
                fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                    Ok(Self { $($field: r.get()?),+ })
                }
            }
        };
    };
}

/// Derives [`Snap`] for an enum from one table of `tag => Variant`, each
/// variant a unit, a one-field tuple `Variant(x)` or a struct `Variant { a,
/// b }` with its fields in wire order; the string is the `Corrupt` message
/// for a tag the table lacks. The `match` over `self` has no wildcard arm and
/// the patterns no `..`, so every variant and field must be listed.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident, $unknown:literal {
        $($tag:literal => $variant:ident
            $(($inner:ident))? $({ $($field:ident),* $(,)? })?),+ $(,)?
    }) => {
        const _: () = {
            use $crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
            impl Snap for $ty {
                const MIN_BYTES: usize = u8::MIN_BYTES;
                fn save(&self, w: &mut SnapWriter) {
                    match self {
                        $(Self::$variant $(($inner))? $({ $($field),* })? => {
                            w.put_u8($tag);
                            $($inner.save(w);)?
                            $($($field.save(w);)*)?
                        })+
                    }
                }
                fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                    Ok(match r.get_u8()? {
                        $($tag => Self::$variant
                            $(({ let $inner = r.get()?; $inner }))?
                            $({ $($field: r.get()?),* })?,)+
                        _ => return Err(SnapError::Corrupt($unknown)),
                    })
                }
            }
        };
    };
}

/// Derives [`Snap`] for one-field tuple structs, each encoded as its field:
/// `snap_newtype!(NodeId(u32), FlowId(u32));`.
#[macro_export]
macro_rules! snap_newtype {
    ($($ty:ident($inner:ty)),+ $(,)?) => {$(
        const _: () = {
            use $crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
            impl Snap for $ty {
                const MIN_BYTES: usize = <$inner>::MIN_BYTES;
                #[inline]
                fn save(&self, w: &mut SnapWriter) {
                    let Self(inner) = self;
                    inner.save(w);
                }
                #[inline]
                fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                    r.get().map(Self)
                }
            }
        };
    )+};
}

/// Container header size: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;
/// Trailing checksum size.
const CHECKSUM_LEN: usize = 8;

/// Builds a container file in one buffer: the magic and version, the payload
/// `encode` writes, the payload's length (patched into the header once it is
/// known) and the trailing [`checksum64`] over everything before it.
pub fn finalize(magic: &[u8; 8], version: u32, encode: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.buf.extend_from_slice(magic);
    w.put_u32(version);
    w.put_u64(0);
    encode(&mut w);
    let payload_len = (w.buf.len() - HEADER_LEN) as u64;
    w.buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let sum = checksum64(&w.buf);
    w.put_u64(sum);
    w.buf
}

/// Validates a snapshot container and returns its payload. The magic and
/// version must match exactly; the length prefix must be consistent with the
/// input size; the checksum must verify. Errors are ordered so the most
/// specific diagnosis wins: wrong magic before wrong version before
/// truncation before corruption.
pub fn open<'a>(
    magic: &[u8; 8],
    expected_version: u32,
    bytes: &'a [u8],
) -> Result<&'a [u8], SnapError> {
    if bytes.len() < 8 {
        return Err(SnapError::UnexpectedEof);
    }
    if &bytes[..8] != magic {
        return Err(SnapError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapError::UnexpectedEof);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if version != expected_version {
        return Err(SnapError::BadVersion(version));
    }
    let payload_len =
        u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8-byte slice")) as usize;
    let total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or(SnapError::Corrupt("payload length overflows"))?;
    if bytes.len() < total {
        return Err(SnapError::UnexpectedEof);
    }
    if bytes.len() > total {
        return Err(SnapError::Corrupt("trailing bytes after checksum"));
    }
    let body = &bytes[..total - CHECKSUM_LEN];
    let stored = u64::from_le_bytes(bytes[total - CHECKSUM_LEN..].try_into().expect("8 bytes"));
    if checksum64(body) != stored {
        return Err(SnapError::BadChecksum);
    }
    Ok(&bytes[HEADER_LEN..total - CHECKSUM_LEN])
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTSNAP";

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bytes(b"abc");
        w.put_str("snapshot");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "snapshot");
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn varints_round_trip_at_every_width_and_refuse_redundant_bytes() {
        let mut w = SnapWriter::new();
        let values = (0..64)
            .flat_map(|b| [(1u64 << b) - 1, 1 << b])
            .chain([u64::MAX]);
        for v in values.clone() {
            w.put_var(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for v in values {
            assert_eq!(r.get_var().unwrap(), v);
        }
        assert!(r.expect_end().is_ok());
        // One byte below 128, ten for the top bit.
        for (v, len) in [(0, 1), (127, 1), (128, 2), (u64::MAX, 10)] {
            let mut w = SnapWriter::new();
            w.put_var(v);
            assert_eq!(w.into_bytes().len(), len, "{v}");
        }
        let read = |bytes: &[u8]| SnapReader::new(bytes).get_var();
        assert_eq!(read(&[0x80]), Err(SnapError::UnexpectedEof));
        assert_eq!(
            read(&[0x81, 0x00]),
            Err(SnapError::Corrupt("overlong varint"))
        );
        let mut past_u64 = [0xff; 10];
        past_u64[9] = 0x02;
        assert_eq!(
            read(&past_u64),
            Err(SnapError::Corrupt("varint overflows u64"))
        );
        let mut eleven = [0xff; 11];
        eleven[10] = 0x01;
        assert_eq!(
            read(&eleven),
            Err(SnapError::Corrupt("varint overflows u64"))
        );
    }

    #[test]
    fn reader_rejects_short_input() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u64().unwrap_err(), SnapError::UnexpectedEof);
        // An enormous claimed length cannot silently allocate or wrap.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    /// Every way of damaging `file` that `open` must refuse: each proper
    /// prefix and each single-byte flip.
    fn assert_rejects_all_damage(version: u32, file: &[u8]) {
        for n in 0..file.len() {
            assert!(
                open(MAGIC, version, &file[..n]).is_err(),
                "prefix {n} accepted"
            );
        }
        let mut bad = file.to_vec();
        for i in 0..file.len() {
            bad[i] ^= 0x40;
            assert!(open(MAGIC, version, &bad).is_err(), "flip at {i} accepted");
            bad[i] ^= 0x40;
        }
    }

    #[test]
    fn container_round_trips_and_validates() {
        // Payload lengths 0..=17 put every remainder of the checksum's
        // 8-byte word loop (header 20 + payload) under test.
        for len in 0..=17usize {
            let payload: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) ^ 0xA5).collect();
            let file = finalize(MAGIC, 3, |w| w.buf.extend_from_slice(&payload));
            assert_eq!(file.len(), HEADER_LEN + len + CHECKSUM_LEN);
            assert_eq!(open(MAGIC, 3, &file).unwrap(), &payload[..]);
            assert_eq!(
                open(b"WRONG!!!", 3, &file).unwrap_err(),
                SnapError::BadMagic
            );
            assert_eq!(open(MAGIC, 4, &file).unwrap_err(), SnapError::BadVersion(3));
            assert_rejects_all_damage(3, &file);
        }
    }

    #[test]
    fn checksum_separates_single_word_changes_and_lengths() {
        let base: Vec<u8> = (0..64u8).collect();
        let sum = checksum64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut other = base.clone();
                other[i] ^= 1 << bit;
                assert_ne!(checksum64(&other), sum, "bit {bit} of byte {i}");
            }
        }
        // A zero tail byte is not the same input as no tail byte.
        assert_ne!(checksum64(&[0; 8]), checksum64(&[0; 9]));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
    }

    #[test]
    fn a_version_mismatch_wins_over_a_foreign_checksum() {
        // A file from before the word-wise checksum carries a trailer this
        // reader would compute differently; the version is what it reports.
        let mut old = Vec::new();
        old.extend_from_slice(MAGIC);
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&4u64.to_le_bytes());
        old.extend_from_slice(b"data");
        old.extend_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
        assert_eq!(open(MAGIC, 3, &old).unwrap_err(), SnapError::BadVersion(2));
        assert_eq!(open(MAGIC, 2, &old).unwrap_err(), SnapError::BadChecksum);
    }
}
