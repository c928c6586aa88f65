//! The laws of a [`bfc_sim::snapshot`] encoding, as assertions.

use std::fmt::Debug;

use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// Checks an encoding given `bytes`, the encoding of some value, and
/// `reencode`, which decodes a buffer and encodes what it got again:
///
/// * decoding consumes `bytes` to the end and encodes back to `bytes` — the
///   round trip loses nothing the encoding can see, and a resumed run's next
///   snapshot is the one the uninterrupted run would write;
/// * every strict prefix of `bytes` is an `Err` — not a panic, not a value.
///
/// `reencode` is handed the reader so that state overlaid onto a
/// configuration-built object (a `restore_state(&mut self, ..)`) is checked
/// by the same function as a [`Snap`] value.
pub fn assert_codec_laws(
    bytes: &[u8],
    reencode: impl Fn(&mut SnapReader<'_>, &mut SnapWriter) -> Result<(), SnapError>,
) {
    let run = |input: &[u8]| {
        let (mut r, mut w) = (SnapReader::new(input), SnapWriter::new());
        reencode(&mut r, &mut w)?;
        r.expect_end()?;
        Ok::<_, SnapError>(w.into_bytes())
    };
    assert_eq!(run(bytes).as_deref(), Ok(bytes), "re-encoding differs");
    for cut in 0..bytes.len() {
        assert!(
            run(&bytes[..cut]).is_err(),
            "the {cut}-byte prefix of a {}-byte encoding decoded",
            bytes.len()
        );
    }
}

/// Checks a [`Snap`] value: it decodes to an equal value, its encoding is at
/// least [`Snap::MIN_BYTES`] long, and [`assert_codec_laws`] hold.
pub fn assert_snap_round_trip<T: Snap + PartialEq + Debug>(value: &T) {
    let mut w = SnapWriter::new();
    value.save(&mut w);
    let bytes = w.into_bytes();
    assert!(
        bytes.len() >= T::MIN_BYTES,
        "{value:?} encodes to {} bytes, below MIN_BYTES {}",
        bytes.len(),
        T::MIN_BYTES
    );
    assert_eq!(T::restore(&mut SnapReader::new(&bytes)).as_ref(), Ok(value));
    assert_codec_laws(&bytes, |r, w| {
        T::restore(r)?.save(w);
        Ok(())
    });
}
