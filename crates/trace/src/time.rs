//! The trace calendar: 10-minute bins over a four-week window.
//!
//! The paper's trace covers Aug 1–31 2014 (Aug 1 was a **Friday**);
//! the analysis drops 3 days "to make the duration consist of four
//! entire weeks", i.e. Mon Aug 4 00:00 through Sun Aug 31 24:00 —
//! 28 days × 144 ten-minute bins = 4,032 samples. All timestamps in
//! this workspace are seconds since the *trace epoch* (Aug 1 00:00
//! local), so the window simply starts at `3 × 86400`.

/// Seconds per aggregation bin (10 minutes).
pub const BIN_SECS: u64 = 600;
/// Bins per day.
pub const BINS_PER_DAY: usize = 144;
/// Days in the analysis window (four full weeks).
pub const WINDOW_DAYS: usize = 28;
/// Total bins in the analysis window (the paper's `N = 4032`).
pub const N_BINS: usize = WINDOW_DAYS * BINS_PER_DAY;
/// Seconds per day.
pub const DAY_SECS: u64 = 86_400;
/// Offset of the window start from the trace epoch: Aug 1 (Fri) →
/// Aug 4 (Mon) is 3 days.
pub const WINDOW_START_S: u64 = 3 * DAY_SECS;

/// A binning window: `n_bins` bins of `bin_secs` starting at
/// `start_s` (seconds since trace epoch). Day 0 of the window is a
/// Monday, so `dow == 5 | 6` means weekend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceWindow {
    /// Window start, seconds since trace epoch.
    pub start_s: u64,
    /// Bin width in seconds.
    pub bin_secs: u64,
    /// Number of bins.
    pub n_bins: usize,
}

impl TraceWindow {
    /// The paper's window: 4,032 ten-minute bins starting Mon Aug 4.
    ///
    /// ```
    /// use towerlens_trace::TraceWindow;
    ///
    /// let window = TraceWindow::paper();
    /// assert_eq!(window.n_bins, 4_032);
    /// assert!(!window.is_weekend_bin(0));        // Monday
    /// assert!(window.is_weekend_bin(5 * 144));   // Saturday
    /// ```
    pub fn paper() -> Self {
        TraceWindow {
            start_s: WINDOW_START_S,
            bin_secs: BIN_SECS,
            n_bins: N_BINS,
        }
    }

    /// A shortened window of `days` full days (used by tests and the
    /// fast examples). Day 0 is still a Monday.
    pub fn days(days: usize) -> Self {
        TraceWindow {
            start_s: WINDOW_START_S,
            bin_secs: BIN_SECS,
            n_bins: days * BINS_PER_DAY,
        }
    }

    /// Window end (exclusive), seconds since trace epoch.
    pub fn end_s(&self) -> u64 {
        self.start_s + self.bin_secs * self.n_bins as u64
    }

    /// The bin containing the timestamp, if inside the window.
    pub fn bin_of(&self, t_s: u64) -> Option<usize> {
        if t_s < self.start_s || t_s >= self.end_s() {
            return None;
        }
        Some(((t_s - self.start_s) / self.bin_secs) as usize)
    }

    /// Start timestamp of a bin (seconds since trace epoch).
    pub fn bin_start(&self, bin: usize) -> u64 {
        self.start_s + self.bin_secs * bin as u64
    }

    /// Calls `f(bin, overlap_fraction)` for every bin overlapping the
    /// half-open interval `[start_s, end_s)`, where `overlap_fraction`
    /// is the share of the interval falling in that bin. Intervals
    /// partially outside the window contribute only their inside part;
    /// a zero-length interval maps fully to its containing bin. This
    /// is the allocation rule the vectorizer uses to spread a
    /// connection's bytes across bins.
    pub fn for_each_overlap<F: FnMut(usize, f64)>(&self, start_s: u64, end_s: u64, mut f: F) {
        if end_s < start_s || self.n_bins == 0 {
            return;
        }
        if start_s == end_s {
            if let Some(bin) = self.bin_of(start_s) {
                f(bin, 1.0);
            }
            return;
        }
        let total = (end_s - start_s) as f64;
        let lo = start_s.max(self.start_s);
        let hi = end_s.min(self.end_s());
        if lo >= hi {
            return;
        }
        let first = ((lo - self.start_s) / self.bin_secs) as usize;
        let last = ((hi - 1 - self.start_s) / self.bin_secs) as usize;
        for bin in first..=last.min(self.n_bins - 1) {
            let b_start = self.bin_start(bin);
            let b_end = b_start + self.bin_secs;
            let overlap = (hi.min(b_end) - lo.max(b_start)) as f64;
            if overlap > 0.0 {
                f(bin, overlap / total);
            }
        }
    }

    /// Day index (0-based, day 0 = Monday) of a bin.
    pub fn day_of_bin(&self, bin: usize) -> usize {
        (bin as u64 * self.bin_secs / DAY_SECS) as usize
    }

    /// Day-of-week of a bin: 0 = Monday … 6 = Sunday.
    pub fn dow_of_bin(&self, bin: usize) -> usize {
        self.day_of_bin(bin) % 7
    }

    /// Whether a bin falls on a weekend (Saturday/Sunday).
    pub fn is_weekend_bin(&self, bin: usize) -> bool {
        self.dow_of_bin(bin) >= 5
    }

    /// Time of day of a bin start, as `(hour, minute)`.
    pub fn time_of_day(&self, bin: usize) -> (u32, u32) {
        let day_offset = (self.bin_start(bin) - self.start_s) % DAY_SECS;
        (
            (day_offset / 3600) as u32,
            ((day_offset % 3600) / 60) as u32,
        )
    }

    /// Bin index within its day (`0..BINS_PER_DAY` for 10-minute
    /// bins).
    pub fn bin_in_day(&self, bin: usize) -> usize {
        let per_day = (DAY_SECS / self.bin_secs) as usize;
        bin % per_day
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_window_constants() {
        let w = TraceWindow::paper();
        assert_eq!(w.n_bins, 4_032);
        assert_eq!(w.start_s, 259_200);
        assert_eq!(w.end_s(), 259_200 + 28 * 86_400);
    }

    #[test]
    fn bin_of_boundaries() {
        let w = TraceWindow::paper();
        assert_eq!(w.bin_of(w.start_s), Some(0));
        assert_eq!(w.bin_of(w.start_s + 599), Some(0));
        assert_eq!(w.bin_of(w.start_s + 600), Some(1));
        assert_eq!(w.bin_of(w.start_s - 1), None);
        assert_eq!(w.bin_of(w.end_s()), None);
        assert_eq!(w.bin_of(w.end_s() - 1), Some(4_031));
    }

    #[test]
    fn overlap_fractions_sum_to_inside_share() {
        let w = TraceWindow::paper();
        // A 30-minute connection crossing three bins: 5 + 10 + 15 min.
        let start = w.start_s + 300; // 5 min into bin 0
        let end = start + 1_800;
        let mut parts = Vec::new();
        w.for_each_overlap(start, end, |bin, frac| parts.push((bin, frac)));
        assert_eq!(parts.len(), 4); // 5' in b0, 10' b1, 10' b2, 5' b3
        let total: f64 = parts.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((parts[0].1 - 300.0 / 1800.0).abs() < 1e-12);
        assert!((parts[1].1 - 600.0 / 1800.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_clips_to_window() {
        let w = TraceWindow::paper();
        // Starts 10 minutes before the window.
        let start = w.start_s - 600;
        let end = w.start_s + 600;
        let mut parts = Vec::new();
        w.for_each_overlap(start, end, |bin, frac| parts.push((bin, frac)));
        assert_eq!(parts, vec![(0, 0.5)]);
        // Entirely outside.
        let mut none = Vec::new();
        w.for_each_overlap(0, 100, |b, f| none.push((b, f)));
        assert!(none.is_empty());
    }

    #[test]
    fn zero_length_connection_lands_in_one_bin() {
        let w = TraceWindow::paper();
        let t = w.start_s + 12_345;
        let mut parts = Vec::new();
        w.for_each_overlap(t, t, |bin, frac| parts.push((bin, frac)));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1, 1.0);
        assert_eq!(Some(parts[0].0), w.bin_of(t));
    }

    #[test]
    fn reversed_interval_is_ignored() {
        let w = TraceWindow::paper();
        let mut called = false;
        w.for_each_overlap(w.start_s + 100, w.start_s, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn calendar_weekday_weekend() {
        let w = TraceWindow::paper();
        // Bin 0 is Monday 00:00.
        assert_eq!(w.dow_of_bin(0), 0);
        assert!(!w.is_weekend_bin(0));
        // Day 5 (Saturday) and 6 (Sunday) are weekend.
        assert!(w.is_weekend_bin(5 * BINS_PER_DAY));
        assert!(w.is_weekend_bin(6 * BINS_PER_DAY + 143));
        // Day 7 is Monday again.
        assert!(!w.is_weekend_bin(7 * BINS_PER_DAY));
        // The window has exactly 8 weekend days.
        let weekend_days = (0..w.n_bins)
            .step_by(BINS_PER_DAY)
            .filter(|&b| w.is_weekend_bin(b))
            .count();
        assert_eq!(weekend_days, 8);
    }

    #[test]
    fn time_of_day_arithmetic() {
        let w = TraceWindow::paper();
        assert_eq!(w.time_of_day(0), (0, 0));
        assert_eq!(w.time_of_day(6 * 7), (7, 0)); // 42 bins = 7h
        assert_eq!(w.time_of_day(BINS_PER_DAY - 1), (23, 50));
        assert_eq!(w.time_of_day(BINS_PER_DAY), (0, 0)); // next day
        assert_eq!(w.bin_in_day(BINS_PER_DAY + 3), 3);
    }

    #[test]
    fn shortened_window() {
        let w = TraceWindow::days(7);
        assert_eq!(w.n_bins, 1_008);
        assert_eq!(w.day_of_bin(w.n_bins - 1), 6);
    }
}
