//! Adversarial-input hardening for the `.jtrace` reader: every way of
//! mangling a trace must come back as a typed [`TraceError`] — never a
//! panic, never an attacker-controlled allocation.
//!
//! The mutations are deterministic (no RNG): exhaustive truncation,
//! exhaustive single-byte corruption under a handful of XOR masks,
//! forged intern/array lengths, overlong varints, and checksum/record
//! splices.

use jinn_replay::format::fnv1a;
use jinn_replay::{
    check_version, decode_stream, encode_ingest, program_by_name, record_program, Frame,
    FrameDecoder, FrameError, StreamDecoder, Trace, TraceError, FORMAT_VERSION, MAGIC,
};

// Record tags, mirrored from the (crate-private) format module; the
// `end_tag_position` assertion below keeps them honest.
const TAG_INTERN: u8 = 0x01;
const TAG_END: u8 = 0xFF;

fn small_trace() -> Vec<u8> {
    record_program(&program_by_name("LocalRefDangling").expect("corpus program"))
}

/// Position of the END tag: total length minus the end record
/// (1 tag byte + count varint + 8 checksum bytes). Recovered by
/// scanning back for the byte whose prefix checksum matches.
fn end_tag_position(bytes: &[u8]) -> usize {
    for pos in (0..bytes.len().saturating_sub(9)).rev() {
        if bytes[pos] == TAG_END {
            let expected = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
            if fnv1a(&bytes[..pos]) == expected {
                return pos;
            }
        }
    }
    panic!("no END record found");
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = small_trace();
    assert!(Trace::parse(&bytes).is_ok(), "baseline parses");
    for len in 0..bytes.len() {
        let err = Trace::parse(&bytes[..len])
            .expect_err(&format!("prefix of {len} bytes must not parse"));
        match err {
            TraceError::Truncated
            | TraceError::BadMagic
            | TraceError::UnsupportedVersion(_)
            | TraceError::Corrupt(_)
            | TraceError::ChecksumMismatch { .. }
            | TraceError::RecordCountMismatch { .. } => {}
        }
    }
}

#[test]
fn every_single_byte_corruption_is_caught() {
    let bytes = small_trace();
    for mask in [0x01u8, 0x10, 0x80, 0xFF] {
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= mask;
            assert!(
                Trace::parse(&bad).is_err(),
                "flip {mask:#04x} at byte {pos} must not parse"
            );
        }
    }
}

#[test]
fn truncated_varints_do_not_panic() {
    // A header followed by continuation bytes that never terminate.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(TAG_INTERN);
    bytes.extend_from_slice(&[0x80; 32]); // unterminated varint
    match Trace::parse(&bytes) {
        Err(TraceError::Corrupt(msg)) => assert!(msg.contains("varint"), "{msg}"),
        other => panic!("expected varint overflow, got {other:?}"),
    }

    // The same, cut off mid-varint instead of overlong.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(TAG_INTERN);
    bytes.extend_from_slice(&[0x80, 0x80]);
    assert!(matches!(Trace::parse(&bytes), Err(TraceError::Truncated)));
}

#[test]
fn oversized_intern_length_fails_without_allocating() {
    // INTERN id 0 declaring u64::MAX content bytes. The reader must
    // bounds-check against the real buffer, not trust the length.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(TAG_INTERN);
    bytes.push(0x00); // intern id 0
    bytes.extend_from_slice(&[0xFF; 9]); // varint: u64::MAX-ish length
    bytes.push(0x01); // terminate the varint
    bytes.extend_from_slice(b"tiny");
    assert!(matches!(Trace::parse(&bytes), Err(TraceError::Truncated)));

    // And a large-but-plausible forged length (1 GiB) with 4 real bytes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.push(TAG_INTERN);
    bytes.push(0x00);
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x04]); // varint 2^30
    bytes.extend_from_slice(b"tiny");
    assert!(matches!(Trace::parse(&bytes), Err(TraceError::Truncated)));
}

#[test]
fn bad_header_variants() {
    assert!(matches!(Trace::parse(b""), Err(TraceError::Truncated)));
    assert!(matches!(Trace::parse(b"JT"), Err(TraceError::Truncated)));
    assert!(matches!(
        Trace::parse(b"NOPE\x01\x00"),
        Err(TraceError::BadMagic)
    ));
    let mut wrong_version = Vec::new();
    wrong_version.extend_from_slice(&MAGIC);
    wrong_version.extend_from_slice(&999u16.to_le_bytes());
    assert!(matches!(
        Trace::parse(&wrong_version),
        Err(TraceError::UnsupportedVersion(999))
    ));
    assert!(matches!(
        check_version(&wrong_version),
        Err(TraceError::UnsupportedVersion(999))
    ));
}

#[test]
fn forged_record_count_is_a_count_mismatch() {
    // The end record's count varint sits outside the checksummed region,
    // so an attacker can rewrite it freely — the reader must still
    // object.
    let bytes = small_trace();
    let end = end_tag_position(&bytes);
    let mut bad = bytes.clone();
    // One-byte count varint (every corpus trace has < 128 records).
    assert!(bad[end + 1] & 0x80 == 0, "count fits one varint byte");
    bad[end + 1] = (bad[end + 1] + 1) & 0x7F;
    match Trace::parse(&bad) {
        Err(TraceError::RecordCountMismatch { expected, actual }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected RecordCountMismatch, got {other:?}"),
    }
}

#[test]
fn forged_checksum_is_a_checksum_mismatch() {
    let bytes = small_trace();
    let mut bad = bytes.clone();
    let n = bad.len();
    bad[n - 1] ^= 0xFF;
    match Trace::parse(&bad) {
        Err(TraceError::ChecksumMismatch { expected, actual }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_after_end_are_rejected() {
    // Data appended after a valid end record sits outside the checksum;
    // accepting it would let arbitrary bytes ride under a valid seal.
    let bytes = small_trace();
    for junk in [&[0x00u8][..], &[TAG_END], b"extra payload"] {
        let mut bad = bytes.clone();
        bad.extend_from_slice(junk);
        match Trace::parse(&bad) {
            Err(TraceError::Corrupt(msg)) => {
                assert!(msg.contains("trailing"), "{msg}");
            }
            other => panic!("expected trailing-bytes rejection, got {other:?}"),
        }
    }
    // A whole second trace glued on is rejected the same way.
    let mut doubled = bytes.clone();
    doubled.extend_from_slice(&bytes);
    assert!(Trace::parse(&doubled).is_err());
}

#[test]
fn unknown_record_tags_are_corrupt() {
    for tag in [0x10u8, 0x42, 0xFE] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(tag);
        match Trace::parse(&bytes) {
            Err(TraceError::Corrupt(msg)) => assert!(msg.contains("tag"), "{msg}"),
            other => panic!("tag {tag:#04x}: expected Corrupt, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Chunk-boundary fuzz: feeding the incremental decoders one byte at a
// time, or at arbitrary split points, must be invisible — identical
// frames/records and identical poisoning versus a single whole-buffer
// feed. Deterministic LCG for the split points (no RNG dependency).

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// `len` split into chunks at `cuts` pseudo-random points (sorted,
/// deduplicated); always covers the whole buffer.
fn split_points(len: usize, cuts: usize, seed: u64) -> Vec<std::ops::Range<usize>> {
    let mut state = seed;
    let mut points: Vec<usize> = (0..cuts)
        .map(|_| lcg(&mut state) as usize % (len + 1))
        .collect();
    points.push(0);
    points.push(len);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Feeds `stream` to a fresh [`FrameDecoder`] in the given chunks and
/// drains it after every feed: the decoded frames plus the first error
/// (the decoder's error is sticky, so nothing decodes past it).
fn run_frame_decoder<'a>(
    chunks: impl Iterator<Item = &'a [u8]>,
) -> (Vec<Frame>, Option<FrameError>) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut err = None;
    for chunk in chunks {
        dec.feed(chunk);
        while err.is_none() {
            match dec.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => err = Some(e),
            }
        }
    }
    (frames, err)
}

fn corpus_programs() -> Vec<jinn_replay::Program> {
    let mut programs = jinn_microbench::scenarios();
    programs.extend(jinn_replay::case_studies());
    programs
}

#[test]
fn frame_decoder_chunking_is_invisible() {
    for (i, program) in corpus_programs().iter().enumerate() {
        let trace = record_program(program);
        let stream = encode_ingest(i as u64, "fuzz", "jinn", &trace, 512);
        let oneshot = decode_stream(&stream).expect("self-encoded stream decodes");
        let (whole, whole_err) = run_frame_decoder(std::iter::once(&stream[..]));
        assert_eq!(whole_err, None, "{}: whole-feed errored", program.name);
        assert_eq!(whole, oneshot, "{}: whole-feed diverges", program.name);

        // Byte at a time: every frame boundary is also a feed boundary.
        let (bytewise, err) = run_frame_decoder(stream.chunks(1));
        assert_eq!(err, None, "{}: byte-at-a-time errored", program.name);
        assert_eq!(
            bytewise, oneshot,
            "{}: byte-at-a-time diverges",
            program.name
        );

        // Pseudo-random split points, several shapes per stream.
        for round in 0..4u64 {
            let seed = 0x9E3779B97F4A7C15 ^ (i as u64) << 8 ^ round;
            let cuts = split_points(stream.len(), 3 + 8 * round as usize, seed);
            let (frames, err) = run_frame_decoder(cuts.iter().map(|r| &stream[r.clone()]));
            assert_eq!(err, None, "{}: split round {round} errored", program.name);
            assert_eq!(
                frames, oneshot,
                "{}: split round {round} diverges",
                program.name
            );
        }
    }
}

#[test]
fn frame_decoder_poisoning_is_chunking_invariant() {
    for (i, program) in corpus_programs().iter().enumerate() {
        let trace = record_program(program);
        let stream = encode_ingest(i as u64, "fuzz", "jinn", &trace, 512);
        let mut state = 0xC0FFEE ^ i as u64;
        for round in 0..8u64 {
            let mut bad = stream.clone();
            let at = lcg(&mut state) as usize % bad.len();
            bad[at] ^= 1 << (lcg(&mut state) % 8);
            let (ref_frames, ref_err) = run_frame_decoder(std::iter::once(&bad[..]));
            let cuts = split_points(bad.len(), 16, lcg(&mut state));
            let (frames, err) = run_frame_decoder(cuts.iter().map(|r| &bad[r.clone()]));
            assert_eq!(
                (frames, err),
                (ref_frames.clone(), ref_err.clone()),
                "{}: flip at {at} (round {round}): chunked poisoning diverges",
                program.name
            );
            // Byte-at-a-time on a sample of the rounds (quadratic-ish cost).
            if round < 2 {
                let (frames, err) = run_frame_decoder(bad.chunks(1));
                assert_eq!(
                    (frames, err),
                    (ref_frames, ref_err),
                    "{}: flip at {at}: byte-at-a-time poisoning diverges",
                    program.name
                );
            }
        }
    }
}

/// The trace-level incremental scanner gets the same treatment over the
/// whole corpus: record-for-record agreement with `Trace::parse`'s
/// decoder under arbitrary chunking, and identical first errors on
/// mutated bytes.
#[test]
fn stream_decoder_chunking_matches_batch_parse_across_corpus() {
    let run = |chunks: &mut dyn Iterator<Item = &[u8]>| -> (u64, Option<TraceError>, bool) {
        let mut dec = StreamDecoder::new();
        let mut err = None;
        for chunk in chunks {
            dec.feed(chunk);
            while err.is_none() {
                match dec.next_record() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => err = Some(e),
                }
            }
        }
        if err.is_none() {
            err = dec.finish().err();
        }
        (dec.records_decoded(), err, dec.is_finished())
    };

    for (i, program) in corpus_programs().iter().enumerate() {
        let bytes = record_program(program);
        assert!(Trace::parse(&bytes).is_ok(), "{} parses", program.name);
        let reference = run(&mut std::iter::once(&bytes[..]));
        assert_eq!(reference.1, None, "{}: clean trace errored", program.name);
        assert!(reference.2, "{}: clean trace must finish", program.name);
        assert_eq!(
            run(&mut bytes.chunks(1)),
            reference,
            "{}: byte-at-a-time diverges",
            program.name
        );

        let mut state = 0xDEADBEEF ^ i as u64;
        for _ in 0..6 {
            let mut bad = bytes.clone();
            let at = lcg(&mut state) as usize % bad.len();
            bad[at] ^= 1 << (lcg(&mut state) % 8);
            let batch_err = Trace::parse(&bad).expect_err("corruption must not parse");
            let cuts = split_points(bad.len(), 16, lcg(&mut state));
            let (_, stream_err, _) = run(&mut cuts.iter().map(|r| &bad[r.clone()]));
            assert_eq!(
                stream_err.map(|e| e.to_string()),
                Some(batch_err.to_string()),
                "{}: flip at {at}: streaming error diverges from batch parse",
                program.name
            );
        }
    }
}

#[test]
fn whole_corpus_survives_sampled_mutations() {
    // Broader sweep at lower density: every corpus program, truncations
    // and flips at stride 7.
    for program in jinn_microbench::scenarios()
        .iter()
        .chain(jinn_replay::case_studies().iter())
    {
        let bytes = record_program(program);
        for len in (0..bytes.len()).step_by(7) {
            assert!(
                Trace::parse(&bytes[..len]).is_err(),
                "{}: truncation at {len}",
                program.name
            );
        }
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(
                Trace::parse(&bad).is_err(),
                "{}: flip at {pos}",
                program.name
            );
        }
    }
}
