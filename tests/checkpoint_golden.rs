//! Golden BEAGLE-CKPT v1 fixture: a snapshot written by an earlier build
//! must still decode, re-encode byte-identically, restore, and reproduce the
//! log-likelihood it was taken at, bit for bit. Same-build round trips
//! cannot catch a change to how the journal records or replays calls; this
//! file can.
//!
//! The fixture (`tests/data/checkpoint_v1.ckpt`) is a checkpointed
//! CPU-serial instance: 5 taxa, 12 patterns, 4 states, 2 rate categories.
//! Tips 0–2 hold compact states and tips 3–4 ambiguous partials; matrix 0
//! was set directly and matrices 1–7 derived from the eigen system; the
//! traversal ran with per-operation scaling and the factors were
//! accumulated into cumulative buffer 9. It was taken after a root
//! integration at buffer 8.

use beagle::core::Checkpoint;
use beagle::harness::full_manager;
use beagle::prelude::*;

const FIXTURE: &str = include_str!("data/checkpoint_v1.ckpt");

/// Bits of the root log-likelihood (−191.8362454827271) the writing
/// instance computed.
const LNL_BITS: u64 = 0xc067_fac2_85e2_f7b3;

#[test]
fn golden_v1_checkpoint_restores_bit_exactly() {
    for record in [
        "tip_states ",
        "tip_partials ",
        "matrix ",
        "matrix_update ",
        "op 8 8 ",
        "scale_acc 9 ",
    ] {
        assert!(
            FIXTURE.lines().any(|l| l.starts_with(record)),
            "fixture lacks a {record:?} record"
        );
    }
    let ckpt = Checkpoint::decode(FIXTURE).unwrap();
    assert_eq!(ckpt.encode(), FIXTURE, "re-encode must be byte-identical");

    let mut restored = ckpt.restore(&full_manager()).unwrap();
    let lnl = restored
        .integrate_root(
            BufferId(8),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(9),
        )
        .unwrap();
    assert_eq!(lnl.to_bits(), LNL_BITS, "restored lnL {lnl}");
    // The restored instance journals again: a fresh snapshot of it is the
    // fixture byte for byte.
    assert_eq!(restored.checkpoint().unwrap().encode(), FIXTURE);
}
