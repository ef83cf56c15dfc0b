//! Regional carbon-intensity profiles fitted to the paper's Figure 1.
//!
//! Each [`RegionProfile`] parameterizes the synthetic trace generator:
//! a mean level, a 24-hour diurnal shape (piecewise-linear multiplier over
//! hour-of-day), weekday/weekend modulation, mean-reverting noise, and
//! occasional multi-hour excursions (generation-mix shifts). Profiles for
//! Ontario, California, and Uruguay reproduce the levels and volatility
//! visible in Fig. 1; the California profile doubles as the CAISO-2020
//! stand-in used throughout §5.

use serde::{Deserialize, Serialize};

/// A serializable *name* for one of the built-in regional profiles, so
/// a scenario spec can say "California" instead of embedding (and
/// possibly drifting from) the full parameter set. Use
/// [`RegionKind::profile`] to materialize the parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionKind {
    /// Nuclear-dominated, low and flat (~25-45 g/kWh).
    Ontario,
    /// Hydro with wind swings (~40-110 g/kWh).
    Uruguay,
    /// CAISO: fossil base, deep solar duck curve, evening peaks
    /// (~90-350 g/kWh) -- the paper's Section 5 signal.
    California,
}

impl RegionKind {
    /// The built-in profile this name denotes.
    pub fn profile(self) -> RegionProfile {
        match self {
            RegionKind::Ontario => ontario(),
            RegionKind::Uruguay => uruguay(),
            RegionKind::California => california(),
        }
    }
}

impl std::str::FromStr for RegionKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ontario" => Ok(RegionKind::Ontario),
            "uruguay" => Ok(RegionKind::Uruguay),
            "california" | "caiso" => Ok(RegionKind::California),
            other => Err(format!("unknown region `{other}`")),
        }
    }
}

/// Parameter set describing one grid region's carbon-intensity behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionProfile {
    /// Human-readable region name (e.g. `"California"`).
    pub name: String,
    /// Mean carbon intensity in g·CO2/kWh.
    pub(crate) base_intensity: f64,
    /// Piecewise-linear diurnal multiplier: `(hour_of_day, multiplier)`
    /// control points, cyclic over 24 h. Must be sorted by hour.
    diurnal_shape: Vec<(f64, f64)>,
    /// Multiplier applied on weekends (days 5 and 6 of each week).
    pub(crate) weekend_factor: f64,
    /// Standard deviation of the mean-reverting (OU) noise process,
    /// relative to `base_intensity`.
    pub(crate) noise_std: f64,
    /// Mean-reversion rate of the noise process, per hour.
    pub(crate) noise_reversion: f64,
    /// Probability per hour of an excursion (generation-mix shift) starting.
    pub(crate) excursion_prob_per_hour: f64,
    /// Relative magnitude range of excursions `(lo, hi)`; sign is random.
    pub(crate) excursion_magnitude: (f64, f64),
    /// Excursion duration range in hours `(lo, hi)`.
    pub(crate) excursion_hours: (f64, f64),
    /// Hard floor for generated intensity, g·CO2/kWh.
    pub floor: f64,
    /// Hard ceiling for generated intensity, g·CO2/kWh.
    pub ceiling: f64,
}

impl RegionProfile {
    /// Evaluates the diurnal multiplier at an hour-of-day in `[0, 24)`,
    /// interpolating linearly and wrapping across midnight.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no diurnal control points.
    pub fn diurnal_multiplier(&self, hour: f64) -> f64 {
        assert!(
            !self.diurnal_shape.is_empty(),
            "diurnal shape must have control points"
        );
        let h = hour.rem_euclid(24.0);
        let pts = &self.diurnal_shape;
        if pts.len() == 1 {
            return pts[0].1;
        }
        // Find the segment containing h, wrapping the last->first segment
        // across midnight.
        for w in pts.windows(2) {
            let (h0, m0) = w[0];
            let (h1, m1) = w[1];
            if h >= h0 && h < h1 {
                let frac = (h - h0) / (h1 - h0);
                return m0 + frac * (m1 - m0);
            }
        }
        // Wrap segment: from last point to first point + 24h.
        let (h0, m0) = *pts.last().expect("non-empty");
        let (h1, m1) = (pts[0].0 + 24.0, pts[0].1);
        let h_adj = if h < h0 { h + 24.0 } else { h };
        let frac = ((h_adj - h0) / (h1 - h0)).clamp(0.0, 1.0);
        m0 + frac * (m1 - m0)
    }
}

/// Ontario, Canada: nuclear-dominated, lowest and flattest intensity in
/// Fig. 1 (~25–45 g/kWh).
pub(crate) fn ontario() -> RegionProfile {
    RegionProfile {
        name: "Ontario".to_string(),
        base_intensity: 32.0,
        diurnal_shape: vec![
            (0.0, 0.92),
            (6.0, 0.95),
            (10.0, 1.05),
            (18.0, 1.12),
            (22.0, 1.0),
        ],
        weekend_factor: 0.95,
        noise_std: 0.06,
        noise_reversion: 0.5,
        excursion_prob_per_hour: 0.01,
        excursion_magnitude: (0.1, 0.25),
        excursion_hours: (1.0, 3.0),
        floor: 18.0,
        ceiling: 60.0,
    }
}

/// Uruguay: hydro-dominated with wind variability, slightly above Ontario
/// in Fig. 1 (~40–110 g/kWh) with visible swings.
pub(crate) fn uruguay() -> RegionProfile {
    RegionProfile {
        name: "Uruguay".to_string(),
        base_intensity: 68.0,
        diurnal_shape: vec![
            (0.0, 0.85),
            (7.0, 1.0),
            (13.0, 1.05),
            (20.0, 1.2),
            (23.0, 0.95),
        ],
        weekend_factor: 0.9,
        noise_std: 0.15,
        noise_reversion: 0.35,
        excursion_prob_per_hour: 0.03,
        excursion_magnitude: (0.2, 0.5),
        excursion_hours: (2.0, 6.0),
        floor: 25.0,
        ceiling: 140.0,
    }
}

/// California (CAISO): highest intensity and variability in Fig. 1
/// (~90–350 g/kWh) — the "duck curve": deep midday dips from utility
/// solar, steep evening ramps onto gas peakers. This is the profile the
/// §5 experiments run against (CAISO 2020 stand-in).
pub fn california() -> RegionProfile {
    RegionProfile {
        name: "California".to_string(),
        base_intensity: 230.0,
        diurnal_shape: vec![
            (0.0, 1.05),
            (4.0, 1.0),
            (7.0, 1.1),
            (9.0, 0.85),
            (12.0, 0.55), // midday solar dip
            (15.0, 0.65),
            (18.0, 1.15), // evening ramp
            (20.0, 1.35), // peak
            (23.0, 1.12),
        ],
        weekend_factor: 0.93,
        noise_std: 0.10,
        noise_reversion: 0.4,
        excursion_prob_per_hour: 0.045,
        excursion_magnitude: (0.15, 0.45),
        excursion_hours: (2.0, 9.0),
        floor: 80.0,
        ceiling: 360.0,
    }
}

/// All three Figure-1 regions in display order.
pub fn figure1_regions() -> Vec<RegionProfile> {
    vec![ontario(), california(), uruguay()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_interpolation_within_segment() {
        let p = california();
        // Between (9.0, 0.85) and (12.0, 0.55): at 10.5 expect midpoint 0.70.
        let m = p.diurnal_multiplier(10.5);
        assert!((m - 0.70).abs() < 1e-9, "got {m}");
    }

    #[test]
    fn diurnal_wraps_midnight() {
        let p = california();
        // Between (23.0, 1.12) and (24.0 -> 0.0, 1.05): halfway at 23.5.
        let m = p.diurnal_multiplier(23.5);
        assert!((m - 1.085).abs() < 1e-9, "got {m}");
        // Hour 24 aliases hour 0.
        assert!((p.diurnal_multiplier(24.0) - p.diurnal_multiplier(0.0)).abs() < 1e-12);
    }

    #[test]
    fn diurnal_negative_hours_wrap() {
        let p = ontario();
        assert!((p.diurnal_multiplier(-1.0) - p.diurnal_multiplier(23.0)).abs() < 1e-12);
    }

    #[test]
    fn california_has_duck_curve() {
        let p = california();
        let midday = p.diurnal_multiplier(12.0);
        let evening = p.diurnal_multiplier(20.0);
        let night = p.diurnal_multiplier(2.0);
        assert!(midday < night, "midday dip below night level");
        assert!(evening > night, "evening peak above night level");
        assert!(evening / midday > 2.0, "duck-curve swing should exceed 2x");
    }

    #[test]
    fn region_ordering_matches_figure1() {
        // Fig. 1: Ontario lowest, Uruguay middle, California highest.
        assert!(ontario().base_intensity < uruguay().base_intensity);
        assert!(uruguay().base_intensity < california().base_intensity);
    }

    #[test]
    fn figure1_regions_named() {
        let names: Vec<String> = figure1_regions().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["Ontario", "California", "Uruguay"]);
    }
}
