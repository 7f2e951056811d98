//! Hostile corpus and property tests for the shipping envelope and its
//! delta payload.
//!
//! The safety statement both shipping paths — standby replication and
//! resize handoff — depend on: a truncated, bit-flipped, junk, misaddressed
//! or wrong-purpose envelope, or a damaged delta, never panics the decoder
//! and never silently mis-applies. Every failure is a typed error, and
//! every success reconstructs the exact original bytes.

use darwin_ckpt::delta::DeltaFrame;
use darwin_ckpt::{seal, CkptError, Enc};
use darwin_shard::{
    ShipError, ShipFrame, ShipPayload, ShipPurpose, CKPT_MAGIC, CKPT_VERSION, SHIP_MAGIC, SHIP_VERSION,
};
use proptest::prelude::*;

/// A sealed checkpoint-shaped frame to ride inside envelope payloads.
fn ckpt_frame(body: &[u8]) -> Vec<u8> {
    seal(CKPT_MAGIC, CKPT_VERSION, body)
}

fn purpose(handoff: bool) -> ShipPurpose {
    if handoff {
        ShipPurpose::Handoff
    } else {
        ShipPurpose::Replicate
    }
}

fn envelope(purpose: ShipPurpose, shard: usize, generation: u32, payload: ShipPayload) -> ShipFrame {
    ShipFrame { purpose, shard, generation, seq: 7_000, payload }
}

fn full(purpose: ShipPurpose, body: &[u8]) -> ShipFrame {
    envelope(purpose, 2, 5, ShipPayload::Full(ckpt_frame(body)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Envelopes round-trip exactly, for both purposes and both payload
    /// kinds.
    #[test]
    fn envelope_roundtrip(
        shard in 0usize..64, generation in 0u32..=u32::MAX,
        seq in 0u64..=u64::MAX, base_seq in 0u64..=u64::MAX,
        body in proptest::collection::vec(0u8..=255, 0..2048),
        is_delta in proptest::bool::ANY, handoff in proptest::bool::ANY,
    ) {
        let payload = if is_delta {
            ShipPayload::Delta { base_seq, frame: body.clone() }
        } else {
            ShipPayload::Full(body.clone())
        };
        let e = ShipFrame { purpose: purpose(handoff), shard, generation, seq, payload };
        prop_assert_eq!(ShipFrame::from_frame(&e.to_frame()).unwrap(), e);
    }

    /// Truncating an envelope at any point yields an error, never a panic
    /// and never a decoded frame.
    #[test]
    fn truncated_envelope_never_decodes(
        body in proptest::collection::vec(0u8..=255, 0..512),
        cut in 0usize..1 << 20,
        handoff in proptest::bool::ANY,
    ) {
        let frame = full(purpose(handoff), &body).to_frame();
        let cut = cut % frame.len(); // 0..len, strictly shorter
        prop_assert!(ShipFrame::from_frame(&frame[..cut]).is_err());
    }

    /// A single flipped bit anywhere in an envelope is caught by the CRC
    /// (or magic/version check) — a corrupted shipment never decodes.
    #[test]
    fn bit_flipped_envelope_never_decodes(
        body in proptest::collection::vec(0u8..=255, 0..512),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
        handoff in proptest::bool::ANY,
    ) {
        let mut frame = full(purpose(handoff), &body).to_frame();
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        prop_assert!(ShipFrame::from_frame(&frame).is_err());
    }

    /// Arbitrary junk never decodes as an envelope and never panics the
    /// decoder.
    #[test]
    fn junk_never_decodes_as_envelope(junk in proptest::collection::vec(0u8..=255, 0..512)) {
        // Skip the astronomically unlikely junk that opens with the real
        // magic AND carries a matching CRC-64 trailer; everything else must
        // be refused.
        if junk.len() < 4 || junk[..4] != SHIP_MAGIC.to_le_bytes() {
            prop_assert!(ShipFrame::from_frame(&junk).is_err());
        }
    }

    /// A wrong-generation envelope is refused before any payload work —
    /// neither a standby nor a booting generation applies another epoch's
    /// cut.
    #[test]
    fn wrong_generation_never_resolves(
        expect in 0u32..1 << 30,
        skew in 1u32..1 << 30,
        body in proptest::collection::vec(0u8..=255, 0..256),
        handoff in proptest::bool::ANY,
    ) {
        let addressed = expect + skew; // always != expect
        let p = purpose(handoff);
        let e = envelope(p, 0, addressed, ShipPayload::Full(ckpt_frame(&body)));
        prop_assert_eq!(
            e.resolve(p, 0, expect, None),
            Err(ShipError::WrongGeneration { expected: expect, found: addressed })
        );
    }

    /// A wrong-shard envelope is refused — cross-wired lanes fail loudly
    /// instead of poisoning a receiver.
    #[test]
    fn wrong_shard_never_resolves(
        expect in 0usize..1 << 16,
        skew in 1usize..1 << 16,
        body in proptest::collection::vec(0u8..=255, 0..256),
        handoff in proptest::bool::ANY,
    ) {
        let addressed = expect + skew; // always != expect
        let p = purpose(handoff);
        let e = envelope(p, addressed, 3, ShipPayload::Full(ckpt_frame(&body)));
        prop_assert_eq!(
            e.resolve(p, expect, 3, None),
            Err(ShipError::WrongShard { expected: expect, found: addressed })
        );
    }

    /// A frame shipped for one purpose is never applied for the other,
    /// whatever the payload: a standby refuses a handoff, a booting
    /// generation refuses a replica.
    #[test]
    fn wrong_purpose_never_resolves(
        body in proptest::collection::vec(0u8..=255, 0..256),
        is_delta in proptest::bool::ANY,
        handoff in proptest::bool::ANY,
    ) {
        let payload = if is_delta {
            ShipPayload::Delta { base_seq: 100, frame: body }
        } else {
            ShipPayload::Full(body)
        };
        let (sent, wanted) = (purpose(handoff), purpose(!handoff));
        let e = envelope(sent, 1, 1, payload);
        prop_assert_eq!(
            e.resolve(wanted, 1, 1, None),
            Err(ShipError::WrongPurpose { expected: wanted, found: sent })
        );
    }

    /// Delta compute→apply is the identity on arbitrary image pairs, and
    /// the sealed delta frame round-trips.
    #[test]
    fn delta_reconstructs_exactly(
        base in proptest::collection::vec(0u8..=255, 0..4096),
        target in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        let delta = DeltaFrame::compute(&base, &target);
        prop_assert_eq!(delta.apply(&base).unwrap(), target.clone());
        let reparsed = DeltaFrame::from_frame(&delta.to_frame()).unwrap();
        prop_assert_eq!(reparsed.apply(&base).unwrap(), target);
    }

    /// A structured image pair (shared blocks + churn) still reconstructs
    /// exactly and ships less than the full image once enough is shared.
    #[test]
    fn delta_on_shared_blocks_reconstructs(
        block in proptest::collection::vec(0u8..=255, 256..512),
        churn in proptest::collection::vec(0u8..=255, 0..128),
        repeat in 2usize..6,
    ) {
        let base: Vec<u8> = block.iter().cycle().take(block.len() * repeat).copied().collect();
        let mut target = base.clone();
        let mid = target.len() / 2;
        for (i, &b) in churn.iter().enumerate() {
            target[mid + i] = b;
        }
        let delta = DeltaFrame::compute(&base, &target);
        prop_assert_eq!(delta.apply(&base).unwrap(), target);
    }

    /// Applying a delta to the wrong base fails loudly — never a silent
    /// mis-restore.
    #[test]
    fn delta_refuses_wrong_base(
        base in proptest::collection::vec(0u8..=255, 1..2048),
        target in proptest::collection::vec(0u8..=255, 0..2048),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let delta = DeltaFrame::compute(&base, &target);
        let mut wrong = base.clone();
        let at = pos % wrong.len();
        wrong[at] ^= 1 << bit;
        prop_assert_eq!(delta.apply(&wrong), Err(CkptError::BadCrc));
    }

    /// Truncating or flipping a sealed delta frame yields an error, never a
    /// panic.
    #[test]
    fn corrupted_delta_frame_never_decodes(
        base in proptest::collection::vec(0u8..=255, 64..1024),
        target in proptest::collection::vec(0u8..=255, 64..1024),
        cut in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let frame = DeltaFrame::compute(&base, &target).to_frame();
        let cut_at = cut % frame.len();
        prop_assert!(DeltaFrame::from_frame(&frame[..cut_at]).is_err());
        let mut flipped = frame.clone();
        flipped[cut_at] ^= 1 << bit;
        prop_assert!(DeltaFrame::from_frame(&flipped).is_err());
    }
}

/// Hand-built corpus: tag, version, format-confusion and payload corner
/// cases the fuzz loops are unlikely to synthesize.
#[test]
fn corpus_of_hostile_frames() {
    // Unknown purpose tag inside an otherwise valid sealed body.
    let mut e = Enc::new();
    e.u8(0x7F); // no such purpose
    e.usize(0);
    e.u32(0);
    e.u64(10);
    e.u8(0x01); // full payload tag
    e.bytes(b"body");
    let frame = seal(SHIP_MAGIC, SHIP_VERSION, &e.into_bytes());
    assert!(matches!(ShipFrame::from_frame(&frame), Err(CkptError::Malformed(_))));

    // Unknown payload tag after a valid purpose.
    for tag in [0x01, 0x02] {
        let mut e = Enc::new();
        e.u8(tag);
        e.usize(0);
        e.u32(2);
        e.u64(10);
        e.u8(0x7F); // no such payload tag
        let frame = seal(SHIP_MAGIC, SHIP_VERSION, &e.into_bytes());
        assert!(matches!(ShipFrame::from_frame(&frame), Err(CkptError::Malformed(_))));
    }

    // Right magic, wrong version.
    let frame = seal(SHIP_MAGIC, SHIP_VERSION + 1, b"");
    assert!(matches!(ShipFrame::from_frame(&frame), Err(CkptError::BadVersion { .. })));

    // Format confusion: neither a checkpoint frame nor a delta frame is an
    // envelope.
    let frame = ckpt_frame(b"shard image");
    assert!(matches!(ShipFrame::from_frame(&frame), Err(CkptError::BadMagic { .. })));
    let delta = DeltaFrame::compute(b"a", b"b").to_frame();
    assert!(matches!(ShipFrame::from_frame(&delta), Err(CkptError::BadMagic { .. })));

    for p in [ShipPurpose::Replicate, ShipPurpose::Handoff] {
        // A resolved Full payload must itself be a sealed checkpoint frame.
        let e = envelope(p, 0, 0, ShipPayload::Full(b"garbage".to_vec()));
        assert!(matches!(e.resolve(p, 0, 0, None), Err(ShipError::Frame(_))));

        // A delta with no base held at the receiver is refused, not applied.
        let e = envelope(p, 0, 0, ShipPayload::Delta { base_seq: 512, frame: delta.clone() });
        assert_eq!(e.resolve(p, 0, 0, None), Err(ShipError::MissingBase { base_seq: 512 }));

        // A delta whose embedded frame is garbage fails as a frame error
        // even with a base on hand.
        let e = envelope(p, 0, 0, ShipPayload::Delta { base_seq: 512, frame: b"garbage".to_vec() });
        assert!(matches!(e.resolve(p, 0, 0, Some(b"base")), Err(ShipError::Frame(_))));
    }

    // Empty input.
    assert!(ShipFrame::from_frame(&[]).is_err());
    assert!(DeltaFrame::from_frame(&[]).is_err());
}

/// Cross-purpose confusion on the wire: a decoded handoff frame offered to
/// a standby, and a decoded replica frame offered to a booting generation,
/// are refused with a wrong-purpose error even when shard, generation and
/// payload are all valid.
#[test]
fn cross_purpose_frames_are_refused() {
    let image = ckpt_frame(b"shard image");
    let handoff = ShipFrame::from_frame(&full(ShipPurpose::Handoff, b"shard image").to_frame()).unwrap();
    assert_eq!(
        handoff.resolve(ShipPurpose::Replicate, 2, 5, None),
        Err(ShipError::WrongPurpose { expected: ShipPurpose::Replicate, found: ShipPurpose::Handoff })
    );
    assert_eq!(handoff.resolve(ShipPurpose::Handoff, 2, 5, None).unwrap(), image);

    let replica =
        ShipFrame::from_frame(&full(ShipPurpose::Replicate, b"shard image").to_frame()).unwrap();
    assert_eq!(
        replica.resolve(ShipPurpose::Handoff, 2, 5, None),
        Err(ShipError::WrongPurpose { expected: ShipPurpose::Handoff, found: ShipPurpose::Replicate })
    );
    assert_eq!(replica.resolve(ShipPurpose::Replicate, 2, 5, None).unwrap(), image);
}
