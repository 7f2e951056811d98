#![warn(missing_docs)]

//! # darwin-rebalance
//!
//! Elastic fleet rebalancing for the sharded serving layer: resize a live
//! Darwin cache fleet `N → M` shards without losing a request, a counter,
//! or (for the surviving keyspace) a warm cache.
//!
//! ```text
//!  generation g (N shards)                generation g+1 (M shards)
//!  ┌──────────────────────┐   transfer    ┌──────────────────────────┐
//!  │ Serving → Draining   │   envelopes   │  warm boot from resolved │
//!  │  final cut @ seq ────┼──────────────▶│  frames (survivors) /    │
//!  │  Transferring        │  Full | Delta │  cold (moved keyspace)   │
//!  │  Retired             │               │  Serving                 │
//!  └──────────────────────┘               └──────────────────────────┘
//!            ▲                                        ▲
//!            └────────── RingRouter(seed, vnodes) ────┘
//!                 same ring family at every fleet size
//! ```
//!
//! * [`ring`] — [`RingRouter`]: consistent-hash ring with virtual nodes;
//!   resizing `N → M` remaps only `|M−N|/max(N,M)` of the keyspace, with
//!   exact per-object stability guarantees (see the module docs).
//! * [`elastic`] — [`ElasticFleet`]: the orchestrator that walks a
//!   generation's shards through the one-way phase order `Serving →
//!   Draining → Transferring → Retired`, ships each survivor's final cut and
//!   boots the successor warm, keeping the exactly-once conservation ledger
//!   intact across any resize sequence.
//!
//! A cut travels in the serving layer's one sealed shipping envelope,
//! [`darwin_shard::ShipFrame`] tagged `Handoff` — the envelope a hot
//! standby's `Replicate` feed uses too — as the full image or an O(churn)
//! block delta against the pre-copied base. A failed resize reports a
//! [`ShipError`].
//!
//! Every rebalance is byte-auditable: `DrainStart`, `HandoffCut`,
//! `HandoffRestore`, `Cutover` and `RingResize` events land in the shards'
//! journals keyed on request sequence numbers, and seeded runs reproduce
//! bit-for-bit.

pub mod elastic;
pub mod ring;

pub use darwin_shard::ShipError;
pub use elastic::{ElasticFleet, ElasticProducer, ElasticReport, TransferStat};
pub use ring::{theoretical_remap, RingRouter, DEFAULT_SEED, DEFAULT_VNODES};
