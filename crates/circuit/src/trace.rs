//! Waveform storage and measurements.
//!
//! A [`Trace`] is a set of named signals sampled on a shared (non-uniform)
//! time axis — the output of a transient run. The measurement methods
//! implement what `.measure` does in HSPICE: interpolated point values,
//! trapezoidal integrals (energy!), windowed averages, extrema and
//! threshold crossings.

use std::collections::HashMap;
use std::fmt;

/// Error returned by measurements that reference a missing signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSignalError {
    /// The requested signal name.
    pub name: String,
}

impl fmt::Display for UnknownSignalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no signal named `{}` in trace", self.name)
    }
}

impl std::error::Error for UnknownSignalError {}

/// Time-series results of a transient analysis.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    t: Vec<f64>,
    index: HashMap<String, usize>,
    names: Vec<String>,
    cols: Vec<Vec<f64>>,
}

impl Trace {
    /// Creates an empty trace with the given signal names.
    ///
    /// # Panics
    ///
    /// Panics on duplicate signal names.
    pub fn new<S: Into<String>>(signals: impl IntoIterator<Item = S>) -> Self {
        let names: Vec<String> = signals.into_iter().map(Into::into).collect();
        let mut index = HashMap::new();
        for (i, n) in names.iter().enumerate() {
            let prev = index.insert(n.clone(), i);
            assert!(prev.is_none(), "duplicate signal name `{n}`");
        }
        let cols = vec![Vec::new(); names.len()];
        Trace {
            t: Vec::new(),
            index,
            names,
            cols,
        }
    }

    /// Appends one sample row.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the signal count or if `t` is
    /// not monotonically non-decreasing.
    pub fn push(&mut self, t: f64, values: &[f64]) {
        assert_eq!(values.len(), self.cols.len(), "sample width mismatch");
        if let Some(&last) = self.t.last() {
            assert!(t >= last, "time must be non-decreasing");
        }
        self.t.push(t);
        for (col, &v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// The time axis.
    pub fn time(&self) -> &[f64] {
        &self.t
    }

    /// Signal names in column order.
    pub fn signal_names(&self) -> &[String] {
        &self.names
    }

    /// Iterates `(name, samples)` pairs in column order.
    ///
    /// The structural accessor for exporters walking every signal: unlike
    /// per-name [`signal`](Trace::signal) lookups, it cannot fail on a
    /// name the trace itself supplied.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.cols.iter().map(Vec::as_slice))
    }

    /// The samples of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    pub fn signal(&self, name: &str) -> Result<&[f64], UnknownSignalError> {
        self.index
            .get(name)
            .map(|&i| self.cols[i].as_slice())
            .ok_or_else(|| UnknownSignalError {
                name: name.to_owned(),
            })
    }

    /// Linearly interpolated value of `name` at time `at` (clamped to the
    /// trace's time range).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    pub fn value_at(&self, name: &str, at: f64) -> Result<f64, UnknownSignalError> {
        let y = self.signal(name)?;
        if self.t.is_empty() {
            return Ok(0.0);
        }
        if at <= self.t[0] {
            return Ok(y[0]);
        }
        let last = self.t.len() - 1;
        if at >= self.t[last] {
            return Ok(y[last]);
        }
        let idx = match self.t.partition_point(|&v| v <= at) {
            0 => 0,
            i => i - 1,
        };
        let (t0, t1) = (self.t[idx], self.t[idx + 1]);
        if t1 == t0 {
            return Ok(y[idx + 1]);
        }
        let f = (at - t0) / (t1 - t0);
        Ok(y[idx] + f * (y[idx + 1] - y[idx]))
    }

    /// Trapezoidal integral of `name` over the whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    pub fn integral(&self, name: &str) -> Result<f64, UnknownSignalError> {
        let y = self.signal(name)?;
        let mut acc = 0.0;
        for k in 1..self.t.len() {
            acc += 0.5 * (y[k] + y[k - 1]) * (self.t[k] - self.t[k - 1]);
        }
        Ok(acc)
    }

    /// Trapezoidal integral of `name` over `[t0, t1]`, interpolating the
    /// endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    #[allow(clippy::needless_range_loop)] // walks t and y in lockstep
    pub fn integral_between(
        &self,
        name: &str,
        t0: f64,
        t1: f64,
    ) -> Result<f64, UnknownSignalError> {
        let y = self.signal(name)?;
        if self.t.len() < 2 || t1 <= t0 {
            return Ok(0.0);
        }
        let mut acc = 0.0;
        let mut prev_t = t0;
        let mut prev_y = self.value_at(name, t0)?;
        for k in 0..self.t.len() {
            let tk = self.t[k];
            if tk <= t0 {
                continue;
            }
            if tk >= t1 {
                break;
            }
            acc += 0.5 * (y[k] + prev_y) * (tk - prev_t);
            prev_t = tk;
            prev_y = y[k];
        }
        let end_y = self.value_at(name, t1)?;
        acc += 0.5 * (end_y + prev_y) * (t1 - prev_t);
        Ok(acc)
    }

    /// Time-average of `name` over `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    pub fn average(&self, name: &str, t0: f64, t1: f64) -> Result<f64, UnknownSignalError> {
        if t1 <= t0 {
            return Ok(0.0);
        }
        Ok(self.integral_between(name, t0, t1)? / (t1 - t0))
    }

    /// Maximum sample of `name`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    pub fn max(&self, name: &str) -> Result<f64, UnknownSignalError> {
        Ok(self
            .signal(name)?
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| m.max(v)))
    }

    /// Minimum sample of `name`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    pub fn min(&self, name: &str) -> Result<f64, UnknownSignalError> {
        Ok(self
            .signal(name)?
            .iter()
            .fold(f64::INFINITY, |m, &v| m.min(v)))
    }

    /// First time ≥ `after` at which `name` crosses `level` in the given
    /// direction (`rising: true` = upward crossing), linearly interpolated.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignalError`] if the signal does not exist.
    pub fn crossing(
        &self,
        name: &str,
        level: f64,
        rising: bool,
        after: f64,
    ) -> Result<Option<f64>, UnknownSignalError> {
        let y = self.signal(name)?;
        for k in 1..self.t.len() {
            if self.t[k] < after {
                continue;
            }
            let (y0, y1) = (y[k - 1], y[k]);
            let crossed = if rising {
                y0 < level && y1 >= level
            } else {
                y0 > level && y1 <= level
            };
            if crossed {
                let f = if y1 == y0 {
                    1.0
                } else {
                    (level - y0) / (y1 - y0)
                };
                let tc = self.t[k - 1] + f * (self.t[k] - self.t[k - 1]);
                // A segment that straddles `after` may cross before it.
                if tc >= after {
                    return Ok(Some(tc));
                }
            }
        }
        Ok(None)
    }

    /// Appends all samples of `other`, offsetting its time axis by
    /// `t_offset`. Signal sets must match exactly.
    ///
    /// # Panics
    ///
    /// Panics if the signal names differ or the offset would make time go
    /// backwards.
    pub fn append(&mut self, other: &Trace, t_offset: f64) {
        assert_eq!(self.names, other.names, "signal sets must match");
        for k in 0..other.len() {
            let row: Vec<f64> = other.cols.iter().map(|c| c[k]).collect();
            self.push(other.t[k] + t_offset, &row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> Trace {
        // y = t over [0, 1] in 11 samples.
        let mut tr = Trace::new(["y"]);
        for k in 0..=10 {
            let t = k as f64 / 10.0;
            tr.push(t, &[t]);
        }
        tr
    }

    #[test]
    fn basic_accessors() {
        let tr = ramp_trace();
        assert_eq!(tr.len(), 11);
        assert!(!tr.is_empty());
        assert_eq!(tr.signal_names(), &["y".to_owned()]);
        assert_eq!(tr.signal("y").unwrap().len(), 11);
        assert!(tr.signal("z").is_err());
        assert_eq!(
            tr.signal("z").unwrap_err().to_string(),
            "no signal named `z` in trace"
        );
    }

    #[test]
    fn interpolation_and_clamping() {
        let tr = ramp_trace();
        assert!((tr.value_at("y", 0.55).unwrap() - 0.55).abs() < 1e-12);
        assert_eq!(tr.value_at("y", -1.0).unwrap(), 0.0);
        assert_eq!(tr.value_at("y", 2.0).unwrap(), 1.0);
    }

    #[test]
    fn integrals() {
        let tr = ramp_trace();
        // ∫₀¹ t dt = 0.5 (trapezoid is exact for linear).
        assert!((tr.integral("y").unwrap() - 0.5).abs() < 1e-12);
        // ∫₀.₂₅^0.75 t dt = (0.75² − 0.25²)/2 = 0.25.
        assert!((tr.integral_between("y", 0.25, 0.75).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(tr.integral_between("y", 0.5, 0.5).unwrap(), 0.0);
        // Average over [0,1] = 0.5.
        assert!((tr.average("y", 0.0, 1.0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn integral_between_subinterval_of_one_segment() {
        let tr = ramp_trace();
        let v = tr.integral_between("y", 0.51, 0.59).unwrap();
        assert!((v - (0.59f64.powi(2) - 0.51f64.powi(2)) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn extrema() {
        let mut tr = Trace::new(["y"]);
        tr.push(0.0, &[1.0]);
        tr.push(1.0, &[-3.0]);
        tr.push(2.0, &[2.0]);
        assert_eq!(tr.max("y").unwrap(), 2.0);
        assert_eq!(tr.min("y").unwrap(), -3.0);
    }

    #[test]
    fn crossings() {
        let tr = ramp_trace();
        let t = tr.crossing("y", 0.42, true, 0.0).unwrap().unwrap();
        assert!((t - 0.42).abs() < 1e-12);
        assert_eq!(tr.crossing("y", 0.42, false, 0.0).unwrap(), None);
        // `after` skips earlier crossings.
        let mut tri = Trace::new(["y"]);
        for (t, y) in [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)] {
            tri.push(t, &[y]);
        }
        let t = tri.crossing("y", 0.5, true, 1.5).unwrap().unwrap();
        assert!((t - 2.5).abs() < 1e-12);
        // A crossing inside the segment that straddles `after`, but before
        // it, is not reported.
        assert_eq!(tr.crossing("y", 0.05, true, 0.08).unwrap(), None);
    }

    #[test]
    fn append_with_offset() {
        let mut a = ramp_trace();
        let b = ramp_trace();
        let n = a.len();
        a.append(&b, 1.0);
        assert_eq!(a.len(), 2 * n);
        assert_eq!(*a.time().last().unwrap(), 2.0);
        assert!((a.value_at("y", 1.5).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn time_must_not_go_backwards() {
        let mut tr = Trace::new(["y"]);
        tr.push(1.0, &[0.0]);
        tr.push(0.5, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate signal")]
    fn duplicate_signals_rejected() {
        let _ = Trace::new(["a", "a"]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn sample_width_checked() {
        let mut tr = Trace::new(["a", "b"]);
        tr.push(0.0, &[1.0]);
    }
}
