//! Piecewise-linear distance schedules — "varying distance of clients
//! from BS" (§6.3.1), the x-axes of Figures 8 and 10.

/// A distance-over-time schedule defined by waypoints `(step, metres)`
/// and linearly interpolated between them.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceSchedule {
    waypoints: Vec<(f64, f64)>,
}

impl DistanceSchedule {
    /// Build from waypoints; steps must be strictly increasing and
    /// distances positive.
    pub fn new(waypoints: &[(f64, f64)]) -> DistanceSchedule {
        assert!(!waypoints.is_empty(), "need at least one waypoint");
        for pair in waypoints.windows(2) {
            assert!(pair[0].0 < pair[1].0, "steps must increase");
        }
        assert!(
            waypoints.iter().all(|&(_, d)| d > 0.0),
            "distances positive"
        );
        DistanceSchedule {
            waypoints: waypoints.to_vec(),
        }
    }

    /// Figure 8's client A trajectory: approach from 100 m to 50 m over
    /// x-points 0–3, then back out to 100 m by point 5.
    pub fn figure8_client_a() -> DistanceSchedule {
        DistanceSchedule::new(&[(0.0, 100.0), (3.0, 50.0), (5.0, 100.0)])
    }

    /// Distance at `step` (clamped to the schedule's ends).
    pub fn at(&self, step: f64) -> f64 {
        let pts = &self.waypoints;
        if step <= pts[0].0 {
            return pts[0].1;
        }
        if step >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for pair in pts.windows(2) {
            let ((s0, d0), (s1, d1)) = (pair[0], pair[1]);
            if step <= s1 {
                let t = (step - s0) / (s1 - s0);
                return d0 + t * (d1 - d0);
            }
        }
        unreachable!("step within range must hit a segment")
    }

    /// Sample at integer steps `0..=last`.
    pub fn samples(&self, last: usize) -> Vec<f64> {
        (0..=last).map(|s| self.at(s as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_and_clamping() {
        let s = DistanceSchedule::new(&[(0.0, 100.0), (4.0, 20.0)]);
        assert_eq!(s.at(0.0), 100.0);
        assert_eq!(s.at(2.0), 60.0);
        assert_eq!(s.at(4.0), 20.0);
        assert_eq!(s.at(-1.0), 100.0);
        assert_eq!(s.at(10.0), 20.0);
    }

    #[test]
    fn figure8_shape() {
        let s = DistanceSchedule::figure8_client_a();
        let d = s.samples(5);
        assert_eq!(d[0], 100.0);
        assert_eq!(d[3], 50.0);
        assert_eq!(d[5], 100.0);
        assert!(d[1] < d[0] && d[2] < d[1], "approaching");
        assert!(d[4] > d[3], "receding");
    }

    #[test]
    fn constant_schedule() {
        let s = DistanceSchedule::new(&[(0.0, 75.0)]);
        assert!(s.samples(5).iter().all(|&d| d == 75.0));
    }

    #[test]
    #[should_panic(expected = "steps must increase")]
    fn rejects_unsorted() {
        DistanceSchedule::new(&[(1.0, 10.0), (1.0, 20.0)]);
    }
}
