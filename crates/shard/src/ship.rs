//! The one sealed envelope a shard's checkpoint travels in.
//!
//! A shard's learned state — its sealed [`ShardCheckpoint`] of cache and
//! driver — leaves the shard for two reasons: a hot standby replicates
//! every checkpoint cut ([`ShipPurpose::Replicate`]), and a resize hands
//! each surviving shard's final cut to the next generation
//! ([`ShipPurpose::Handoff`]). Both travel as one [`ShipFrame`]: the full
//! image when the receiver holds nothing, otherwise a [`DeltaFrame`]
//! against the base it holds, so a stream of cuts costs O(churn) bytes per
//! checkpoint window, not O(cache).
//!
//! ## Frame format (magic `DRBS`, version 1, CRC-64 sealed)
//!
//! | field        | type    | meaning                                        |
//! |--------------|---------|------------------------------------------------|
//! | `purpose`    | `u8`    | `0x01` replicate, `0x02` handoff               |
//! | `shard`      | `usize` | shard the checkpoint belongs to                |
//! | `generation` | `u32`   | fleet generation the frame is addressed to     |
//! | `seq`        | `u64`   | request-sequence boundary of the cut           |
//! | payload tag  | `u8`    | `0x01` full, `0x02` delta                      |
//! | payload      | bytes   | full image, or `base_seq: u64` + sealed delta  |
//!
//! [`ShipFrame::resolve`] is the receiver's one gate. It refuses a frame
//! shipped for the other purpose ([`ShipError::WrongPurpose`]), to another
//! shard ([`ShipError::WrongShard`]) or generation
//! ([`ShipError::WrongGeneration`]), and a delta without its base
//! ([`ShipError::MissingBase`]); then it opens the result as a sealed
//! checkpoint frame. Damage surfaces as [`CkptError`]s from the sealed-frame
//! layer, and the embedded [`DeltaFrame`] refuses both the wrong base and a
//! reconstruction that does not hash to its recorded checksum — a shipment
//! can fail loudly but never silently mis-apply.
//!
//! [`ship`] plays both ends of the channel in process, for the standby feed
//! and the resize alike: it seals the envelope as a sender would put it on
//! the wire, then decodes, resolves and re-validates it as a receiver would.

use crate::ckpt::{ShardCheckpoint, CKPT_MAGIC, CKPT_VERSION};
use crate::metrics::ShardPhase;
use darwin_ckpt::delta::DeltaFrame;
use darwin_ckpt::{open, seal, CkptError, Dec, Enc};
use std::fmt;

/// Magic for sealed shipping envelopes: `DRBS`.
pub const SHIP_MAGIC: u32 = 0x4452_4253;
/// Current shipping envelope version.
pub const SHIP_VERSION: u16 = 1;

/// Payload tag for a full checkpoint image.
const PAYLOAD_FULL: u8 = 0x01;
/// Payload tag for a delta against the receiver's base.
const PAYLOAD_DELTA: u8 = 0x02;

/// Why a checkpoint is being shipped; a receiver applies only its own kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipPurpose {
    /// A serving primary feeds its hot standby.
    Replicate,
    /// A draining shard hands its final cut to the next generation.
    Handoff,
}

impl ShipPurpose {
    fn tag(self) -> u8 {
        match self {
            ShipPurpose::Replicate => 0x01,
            ShipPurpose::Handoff => 0x02,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CkptError> {
        match tag {
            0x01 => Ok(ShipPurpose::Replicate),
            0x02 => Ok(ShipPurpose::Handoff),
            other => Err(CkptError::Malformed(format!("ship purpose tag {other:#x}"))),
        }
    }
}

/// How the checkpoint travels inside the envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipPayload {
    /// The complete sealed checkpoint frame — O(cache) bytes.
    Full(Vec<u8>),
    /// A sealed [`DeltaFrame`] against the frame the receiver holds at
    /// `base_seq` — O(churn) bytes.
    Delta {
        /// Request-sequence boundary of the base the delta was computed
        /// against; the receiver must hold exactly that frame.
        base_seq: u64,
        /// The sealed delta frame ([`DeltaFrame::to_frame`]).
        frame: Vec<u8>,
    },
}

/// Why a shipment must not be applied, or a resize could not hand off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipError {
    /// The envelope, its embedded delta or the resolved image failed frame
    /// validation.
    Frame(CkptError),
    /// Shipped for the other purpose: a standby applies only replication,
    /// a booting generation only handoffs.
    WrongPurpose {
        /// Purpose the receiver applies.
        expected: ShipPurpose,
        /// Purpose the envelope carries.
        found: ShipPurpose,
    },
    /// Addressed to a different shard.
    WrongShard {
        /// Shard the receiver serves.
        expected: usize,
        /// Shard the envelope names.
        found: usize,
    },
    /// Addressed to a different fleet generation.
    WrongGeneration {
        /// Generation the receiver serves in.
        expected: u32,
        /// Generation the envelope names.
        found: u32,
    },
    /// A delta arrived but the receiver holds no base to apply it against.
    MissingBase {
        /// Base boundary the delta requires.
        base_seq: u64,
    },
    /// The resolved image is not the shipped shard's cut at the shipped
    /// boundary, byte for byte.
    Diverged {
        /// Shard that shipped.
        shard: usize,
        /// Boundary it shipped.
        seq: u64,
    },
    /// A resize tried to move a shard out of the one-way handoff order.
    IllegalPhase {
        /// Shard being moved.
        shard: usize,
        /// Phase it was in.
        from: ShardPhase,
        /// Phase it was asked to enter.
        to: ShardPhase,
    },
}

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipError::Frame(e) => write!(f, "shipping frame: {e}"),
            ShipError::WrongPurpose { expected, found } => {
                write!(f, "{found:?} frame offered to a {expected:?} receiver")
            }
            ShipError::WrongShard { expected, found } => {
                write!(f, "frame for shard {found}, receiver serves shard {expected}")
            }
            ShipError::WrongGeneration { expected, found } => {
                write!(f, "frame for generation {found}, receiver serves generation {expected}")
            }
            ShipError::MissingBase { base_seq } => {
                write!(f, "delta against base seq {base_seq} but no base is held")
            }
            ShipError::Diverged { shard, seq } => {
                write!(f, "shard {shard}: resolved image is not the cut at seq {seq}")
            }
            ShipError::IllegalPhase { shard, from, to } => {
                write!(f, "shard {shard}: illegal transition {from:?} -> {to:?}")
            }
        }
    }
}

impl std::error::Error for ShipError {}

impl From<CkptError> for ShipError {
    fn from(e: CkptError) -> Self {
        ShipError::Frame(e)
    }
}

/// One shipment: a checkpoint cut addressed purpose-, shard- and
/// generation-explicitly. See the module docs for the byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipFrame {
    /// Why the cut travels.
    pub purpose: ShipPurpose,
    /// Shard whose checkpoint this is.
    pub shard: usize,
    /// Fleet generation the frame is addressed to: the one the primary
    /// serves in (replication), or the one being booted (handoff).
    pub generation: u32,
    /// Request-sequence boundary of the cut.
    pub seq: u64,
    /// Full image or delta against the receiver's base.
    pub payload: ShipPayload,
}

impl ShipFrame {
    /// Serializes into a sealed, CRC-guarded envelope.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(self.purpose.tag());
        e.usize(self.shard);
        e.u32(self.generation);
        e.u64(self.seq);
        match &self.payload {
            ShipPayload::Full(bytes) => {
                e.u8(PAYLOAD_FULL);
                e.bytes(bytes);
            }
            ShipPayload::Delta { base_seq, frame } => {
                e.u8(PAYLOAD_DELTA);
                e.u64(*base_seq);
                e.bytes(frame);
            }
        }
        seal(SHIP_MAGIC, SHIP_VERSION, &e.into_bytes())
    }

    /// Parses a sealed envelope. Truncation, bit flips, a wrong magic or
    /// version and an unknown purpose or payload tag all surface as
    /// [`CkptError`]s — never a panic.
    pub fn from_frame(frame: &[u8]) -> Result<ShipFrame, CkptError> {
        let body = open(frame, SHIP_MAGIC, SHIP_VERSION)?;
        let mut d = Dec::new(body);
        let purpose = ShipPurpose::from_tag(d.u8()?)?;
        let shard = d.usize()?;
        let generation = d.u32()?;
        let seq = d.u64()?;
        let payload = match d.u8()? {
            PAYLOAD_FULL => ShipPayload::Full(d.bytes()?.to_vec()),
            PAYLOAD_DELTA => ShipPayload::Delta { base_seq: d.u64()?, frame: d.bytes()?.to_vec() },
            tag => return Err(CkptError::Malformed(format!("ship payload tag {tag:#x}"))),
        };
        d.finish()?;
        Ok(ShipFrame { purpose, shard, generation, seq, payload })
    }

    /// Bytes the payload ships: a full image's length, or the sealed
    /// delta's. The O(churn) accounting compares this against the full
    /// checkpoint size.
    pub fn shipped_bytes(&self) -> u64 {
        match &self.payload {
            ShipPayload::Full(bytes) => bytes.len() as u64,
            ShipPayload::Delta { frame, .. } => frame.len() as u64,
        }
    }

    /// The receiver's gate: checks purpose, shard and generation, then
    /// materializes the checkpoint — a copy of the full payload, or the
    /// delta applied to `base` (the frame the receiver holds at the delta's
    /// `base_seq`) — and opens it as a sealed checkpoint frame before
    /// handing it out.
    pub fn resolve(
        &self,
        purpose: ShipPurpose,
        shard: usize,
        generation: u32,
        base: Option<&[u8]>,
    ) -> Result<Vec<u8>, ShipError> {
        if self.purpose != purpose {
            return Err(ShipError::WrongPurpose { expected: purpose, found: self.purpose });
        }
        if self.shard != shard {
            return Err(ShipError::WrongShard { expected: shard, found: self.shard });
        }
        if self.generation != generation {
            return Err(ShipError::WrongGeneration { expected: generation, found: self.generation });
        }
        let image = match &self.payload {
            ShipPayload::Full(bytes) => bytes.clone(),
            ShipPayload::Delta { base_seq, frame } => {
                let base = base.ok_or(ShipError::MissingBase { base_seq: *base_seq })?;
                DeltaFrame::from_frame(frame)?.apply(base)?
            }
        };
        open(&image, CKPT_MAGIC, CKPT_VERSION)?;
        Ok(image)
    }
}

/// What [`ship`] delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shipped {
    /// The receiver's resolved checkpoint frame: byte for byte the cut.
    pub image: Vec<u8>,
    /// Payload bytes the envelope carried.
    pub shipped_bytes: u64,
    /// True when the payload was a delta against the base.
    pub delta: bool,
}

/// Ships `shard`'s checkpoint `cut` at `seq` for `purpose` through the
/// sealed envelope, both ends in process. With a `base` (its boundary and
/// the frame the receiver holds) the payload is a delta against it,
/// otherwise the full image. The receiving side decodes the envelope,
/// [resolves](ShipFrame::resolve) it against `(purpose, shard, generation,
/// base)`, and accepts the image only if it decodes as this shard's
/// [`ShardCheckpoint`] at `seq` and equals `cut` byte for byte — so the
/// bytes a receiver keeps are exactly those that survived the wire format.
pub fn ship(
    purpose: ShipPurpose,
    shard: usize,
    generation: u32,
    seq: u64,
    cut: &[u8],
    base: Option<(u64, &[u8])>,
) -> Result<Shipped, ShipError> {
    let payload = match base {
        Some((base_seq, base)) => {
            ShipPayload::Delta { base_seq, frame: DeltaFrame::compute(base, cut).to_frame() }
        }
        None => ShipPayload::Full(cut.to_vec()),
    };
    let wire = ShipFrame { purpose, shard, generation, seq, payload }.to_frame();
    let received = ShipFrame::from_frame(&wire)?;
    let image = received.resolve(purpose, shard, generation, base.map(|(_, frame)| frame))?;
    let ckpt = ShardCheckpoint::from_frame(&image)?;
    if ckpt.shard != shard || ckpt.seq != seq || image != cut {
        return Err(ShipError::Diverged { shard, seq });
    }
    Ok(Shipped {
        shipped_bytes: received.shipped_bytes(),
        delta: matches!(received.payload, ShipPayload::Delta { .. }),
        image,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use darwin_cache::ThresholdPolicy;

    fn image(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// A sealed checkpoint-shaped frame around `body`.
    fn ckpt(body: &[u8]) -> Vec<u8> {
        seal(CKPT_MAGIC, CKPT_VERSION, body)
    }

    fn full(purpose: ShipPurpose, seq: u64, bytes: Vec<u8>) -> ShipFrame {
        ShipFrame { purpose, shard: 3, generation: 2, seq, payload: ShipPayload::Full(bytes) }
    }

    #[test]
    fn envelope_round_trips() {
        for purpose in [ShipPurpose::Replicate, ShipPurpose::Handoff] {
            for payload in [
                ShipPayload::Full(vec![1, 2, 3]),
                ShipPayload::Delta { base_seq: 8_000, frame: vec![9, 9] },
            ] {
                let t = ShipFrame { purpose, shard: 3, generation: 2, seq: 9_000, payload };
                assert_eq!(ShipFrame::from_frame(&t.to_frame()).unwrap(), t);
            }
        }
    }

    #[test]
    fn full_roundtrip_resolves_to_the_image() {
        let img = ckpt(&image(4096, 1));
        let wire = full(ShipPurpose::Replicate, 1_000, img.clone()).to_frame();
        let parsed = ShipFrame::from_frame(&wire).unwrap();
        assert_eq!(parsed.seq, 1_000);
        assert_eq!(parsed.shipped_bytes(), img.len() as u64);
        assert_eq!(parsed.resolve(ShipPurpose::Replicate, 3, 2, None).unwrap(), img);
    }

    #[test]
    fn delta_roundtrip_needs_and_uses_its_base() {
        let body = image(64 * 1024, 2);
        let base = ckpt(&body);
        let mut churned = body.clone();
        for b in &mut churned[1_000..1_200] {
            *b ^= 0x5A;
        }
        let target = ckpt(&churned);
        let delta = DeltaFrame::compute(&base, &target);
        let env = ShipFrame {
            purpose: ShipPurpose::Handoff,
            shard: 0,
            generation: 0,
            seq: 2_000,
            payload: ShipPayload::Delta { base_seq: 1_000, frame: delta.to_frame() },
        };
        let parsed = ShipFrame::from_frame(&env.to_frame()).unwrap();
        assert!(parsed.shipped_bytes() < target.len() as u64 / 10, "delta ships O(churn)");
        let handoff = |base| parsed.resolve(ShipPurpose::Handoff, 0, 0, base);
        assert_eq!(handoff(Some(&base)).unwrap(), target);
        assert_eq!(handoff(None), Err(ShipError::MissingBase { base_seq: 1_000 }));
        // The wrong base is refused by the delta's own checksum, not applied.
        let wrong = ckpt(&image(64 * 1024, 3));
        assert_eq!(handoff(Some(&wrong)), Err(ShipError::Frame(CkptError::BadCrc)));
    }

    #[test]
    fn wrong_addressing_is_rejected_specifically() {
        let parsed =
            ShipFrame::from_frame(&full(ShipPurpose::Handoff, 500, ckpt(b"body")).to_frame()).unwrap();
        let gate = |shard, generation| parsed.resolve(ShipPurpose::Handoff, shard, generation, None);
        assert_eq!(gate(4, 2), Err(ShipError::WrongShard { expected: 4, found: 3 }));
        assert_eq!(gate(3, 7), Err(ShipError::WrongGeneration { expected: 7, found: 2 }));
        assert!(gate(3, 2).is_ok(), "the right address resolves");
    }

    #[test]
    fn wrong_purpose_is_rejected_never_applied() {
        for (sent, wanted) in [
            (ShipPurpose::Handoff, ShipPurpose::Replicate),
            (ShipPurpose::Replicate, ShipPurpose::Handoff),
        ] {
            let parsed = ShipFrame::from_frame(&full(sent, 500, ckpt(b"body")).to_frame()).unwrap();
            assert_eq!(
                parsed.resolve(wanted, 3, 2, None),
                Err(ShipError::WrongPurpose { expected: wanted, found: sent })
            );
        }
    }

    #[test]
    fn resolved_bytes_must_be_a_checkpoint_frame() {
        let t = full(ShipPurpose::Handoff, 500, b"not a checkpoint".to_vec());
        assert!(matches!(t.resolve(ShipPurpose::Handoff, 3, 2, None), Err(ShipError::Frame(_))));
    }

    #[test]
    fn unknown_purpose_and_payload_tags_are_malformed() {
        let mut e = Enc::new();
        e.u8(0x7F); // no such purpose
        e.usize(0);
        e.u32(0);
        e.u64(100);
        e.u8(PAYLOAD_FULL);
        e.bytes(b"body");
        let frame = seal(SHIP_MAGIC, SHIP_VERSION, &e.into_bytes());
        assert!(matches!(ShipFrame::from_frame(&frame), Err(CkptError::Malformed(_))));

        let mut e = Enc::new();
        e.u8(ShipPurpose::Replicate.tag());
        e.usize(0);
        e.u32(0);
        e.u64(100);
        e.u8(0x7F); // no such payload
        let frame = seal(SHIP_MAGIC, SHIP_VERSION, &e.into_bytes());
        assert!(matches!(ShipFrame::from_frame(&frame), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn damage_is_detected_not_applied() {
        let wire = full(ShipPurpose::Replicate, 900, image(2048, 6)).to_frame();
        for keep in [0, 1, wire.len() / 2, wire.len() - 1] {
            assert!(ShipFrame::from_frame(&wire[..keep]).is_err(), "kept {keep} bytes");
        }
        let mut flipped = wire.clone();
        flipped[wire.len() / 2] ^= 0x10;
        assert!(ShipFrame::from_frame(&flipped).is_err());
    }

    fn shard_cut(shard: usize, seq: u64, fill: u8) -> Vec<u8> {
        ShardCheckpoint {
            shard,
            seq,
            policy: ThresholdPolicy::new(2, 64 * 1024),
            cache: vec![fill; 4096],
            driver: vec![fill ^ 0xFF; 128],
            restarts: 0,
            budget_marks: Vec::new(),
        }
        .to_frame()
    }

    #[test]
    fn ship_delivers_the_cut_or_refuses_it() {
        let (base, cut) = (shard_cut(1, 500, 7), shard_cut(1, 1_000, 7));
        for purpose in [ShipPurpose::Replicate, ShipPurpose::Handoff] {
            let seeded = ship(purpose, 1, 4, 1_000, &cut, None).unwrap();
            assert_eq!(
                seeded,
                Shipped { image: cut.clone(), shipped_bytes: cut.len() as u64, delta: false }
            );
            let delta = ship(purpose, 1, 4, 1_000, &cut, Some((500, &base))).unwrap();
            assert_eq!(delta.image, cut);
            assert!(delta.delta && delta.shipped_bytes < cut.len() as u64 / 2, "{delta:?}");
        }
        let refuse = |cut: &[u8], seq| ship(ShipPurpose::Replicate, 1, 0, seq, cut, None);
        assert_eq!(refuse(&cut, 900), Err(ShipError::Diverged { shard: 1, seq: 900 }));
        assert_eq!(refuse(&shard_cut(2, 900, 7), 900), Err(ShipError::Diverged { shard: 1, seq: 900 }));
        assert!(matches!(refuse(b"not a checkpoint", 900), Err(ShipError::Frame(_))));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn purpose(handoff: bool) -> ShipPurpose {
        if handoff {
            ShipPurpose::Handoff
        } else {
            ShipPurpose::Replicate
        }
    }

    proptest! {
        /// Decoding arbitrary bytes as an envelope never panics.
        #[test]
        fn from_frame_never_panics(junk in proptest::collection::vec(0u8..=255, 0..512)) {
            let _ = ShipFrame::from_frame(&junk);
        }

        /// Any single bit flip in a sealed envelope is detected.
        #[test]
        fn any_bit_flip_detected(
            body in proptest::collection::vec(0u8..=255, 0..256),
            pos in 0.0f64..1.0,
            bit in 0u8..8,
            handoff in proptest::bool::ANY,
        ) {
            let wire = ShipFrame {
                purpose: purpose(handoff),
                shard: 1,
                generation: 1,
                seq: 42,
                payload: ShipPayload::Full(body),
            }
            .to_frame();
            let mut bad = wire.clone();
            let byte = ((pos * bad.len() as f64) as usize).min(bad.len() - 1);
            bad[byte] ^= 1 << bit;
            prop_assert!(ShipFrame::from_frame(&bad).is_err());
        }

        /// Envelopes roundtrip bit-exactly for any payload.
        #[test]
        fn any_full_payload_roundtrips(
            body in proptest::collection::vec(0u8..=255, 0..256),
            seq in 0u64..1_000_000,
            handoff in proptest::bool::ANY,
        ) {
            let env = ShipFrame {
                purpose: purpose(handoff),
                shard: 2,
                generation: 9,
                seq,
                payload: ShipPayload::Full(body),
            };
            prop_assert_eq!(ShipFrame::from_frame(&env.to_frame()).unwrap(), env);
        }
    }
}
