//! Windowed hit-ratio curves and the recovery check the `recovery`,
//! `failover` and `rebalance` experiments share: after a disruption (a
//! crash, a failover, a resize), how many requests pass before a window's
//! hit ratio is back to [`RECOVERY_THRESHOLD`] of the steady state?

use serde::Serialize;

/// Fraction of the steady-state hit ratio a post-disruption window must
/// reach to count as recovered.
pub const RECOVERY_THRESHOLD: f64 = 0.95;

/// One point of a windowed (not cumulative) hit-ratio curve.
#[derive(Debug, Clone, Serialize)]
pub struct CurvePoint {
    /// Request sequence number at the window's end.
    pub seq: u64,
    /// HOC object hit ratio within the window.
    pub ohr: f64,
}

impl CurvePoint {
    /// The point for a window ending at `seq` that saw `requests` requests
    /// and `hits` HOC hits (an empty window reads 0).
    pub fn window(seq: u64, requests: u64, hits: u64) -> Self {
        Self { seq, ohr: if requests == 0 { 0.0 } else { hits as f64 / requests as f64 } }
    }
}

/// The steady-state hit ratio of a curve segment: the mean windowed hit
/// ratio over its last quarter.
pub fn steady_ohr(curve: &[CurvePoint]) -> f64 {
    let tail = &curve[curve.len() * 3 / 4..];
    tail.iter().map(|p| p.ohr).sum::<f64>() / tail.len() as f64
}

/// Requests after the disruption at `at` until the first later window
/// reaches [`RECOVERY_THRESHOLD`] × `steady`; `None` if none does.
pub fn recovery_requests(curve: &[CurvePoint], at: u64, steady: f64) -> Option<u64> {
    curve
        .iter()
        .filter(|p| p.seq > at)
        .find(|p| p.ohr >= RECOVERY_THRESHOLD * steady)
        .map(|p| p.seq - at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_point_is_first_window_at_threshold() {
        let curve = vec![
            CurvePoint { seq: 500, ohr: 0.4 },
            CurvePoint { seq: 1_000, ohr: 0.1 }, // the dip
            CurvePoint { seq: 1_500, ohr: 0.3 },
            CurvePoint { seq: 2_000, ohr: 0.39 },
        ];
        assert_eq!(recovery_requests(&curve, 500, 0.4), Some(1_500));
        assert_eq!(recovery_requests(&curve, 500, 0.3), Some(1_000));
        assert_eq!(recovery_requests(&curve, 500, 0.6), None);
    }

    #[test]
    fn steady_ohr_uses_the_last_quarter() {
        let curve: Vec<CurvePoint> =
            (0..8).map(|i| CurvePoint { seq: i * 100, ohr: i as f64 / 10.0 }).collect();
        // Last quarter of 8 points is indices 6..8 -> mean of 0.6 and 0.7.
        assert!((steady_ohr(&curve) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn empty_window_reads_zero() {
        assert_eq!(CurvePoint::window(10, 0, 0).ohr, 0.0);
        assert_eq!(CurvePoint::window(10, 4, 1).ohr, 0.25);
    }
}
