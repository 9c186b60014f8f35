//! The power-schedule matrix `p = (p_{n,c})`, with incrementally maintained
//! aggregates.
//!
//! Every quantity the engine reads per update — section loads `P_c`, OLEV
//! totals `p_n`, the grand total, and `P_{-n,c}` of Eq. 8 — is cached and
//! maintained as an O(C) delta per [`PowerSchedule::set_row`] (O(1) per
//! [`PowerSchedule::set`]) instead of being recomputed with an O(N·C) matrix
//! sweep on every query. Because delta maintenance changes float summation
//! order, the caches drift from the exact column/row sums by a few ulps per
//! write; the schedule transparently [resyncs](PowerSchedule::resync) itself
//! every [`RESYNC_WRITES`] writes, which keeps the residual many orders of
//! magnitude below the engine's 1e-9 tolerances (property-tested in
//! `tests/incremental_state.rs`).

use oes_units::{OlevId, SectionId};

/// Default number of writes the schedule accepts between automatic exact
/// resyncs of its cached aggregates. The per-write drift is a few ulps, so
/// the residual stays far below 1e-9 over any such window; the amortized
/// resync cost is O(N·C / `RESYNC_WRITES`) per write. Configurable per
/// schedule via [`PowerSchedule::set_resync_writes`] (and at scenario level
/// via [`crate::GameBuilder::schedule_resync_writes`]).
pub const RESYNC_WRITES: usize = 512;

/// An `N × C` matrix of non-negative power allocations: row `n` is OLEV `n`'s
/// schedule `p_n` across all sections.
///
/// Equality compares dimensions and entries only — the cached aggregates are
/// derived state and two schedules with the same entries are the same
/// schedule regardless of their write histories.
#[derive(Debug, Clone)]
pub struct PowerSchedule {
    olevs: usize,
    sections: usize,
    /// Row-major `olevs × sections` entries, kW.
    entries: Vec<f64>,
    /// Cached `P_c = Σ_n p_{n,c}` per section.
    loads: Vec<f64>,
    /// Cached `p_n = Σ_c p_{n,c}` per OLEV (recomputed exactly from the row
    /// on every `set_row`; O(1) delta on `set`).
    totals: Vec<f64>,
    /// Cached `Σ p_{n,c}`.
    total: f64,
    /// Writes since the last exact resync.
    writes: usize,
    /// Writes between automatic exact resyncs (default [`RESYNC_WRITES`]).
    resync_writes: usize,
}

impl PartialEq for PowerSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.olevs == other.olevs
            && self.sections == other.sections
            && self.entries == other.entries
    }
}

impl PowerSchedule {
    /// Creates the all-zero schedule.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(olevs: usize, sections: usize) -> Self {
        assert!(
            olevs > 0 && sections > 0,
            "schedule dimensions must be nonzero"
        );
        Self {
            olevs,
            sections,
            entries: vec![0.0; olevs * sections],
            loads: vec![0.0; sections],
            totals: vec![0.0; olevs],
            total: 0.0,
            writes: 0,
            resync_writes: RESYNC_WRITES,
        }
    }

    /// Sets how many writes pass between automatic exact resyncs of the
    /// cached aggregates. An interval of 1 resyncs after *every* write, so
    /// the caches always equal the exact naive column/row sums bit-for-bit;
    /// larger intervals trade a bounded ulp-scale drift for an
    /// O(N·C / interval) amortized resync cost.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is zero.
    pub fn set_resync_writes(&mut self, writes: usize) {
        assert!(writes > 0, "resync interval must be nonzero");
        self.resync_writes = writes;
    }

    /// Number of OLEVs (rows).
    #[must_use]
    pub fn olev_count(&self) -> usize {
        self.olevs
    }

    /// Number of sections (columns).
    #[must_use]
    pub fn section_count(&self) -> usize {
        self.sections
    }

    /// `p_{n,c}`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn get(&self, n: OlevId, c: SectionId) -> f64 {
        assert!(
            n.index() < self.olevs && c.index() < self.sections,
            "index out of range"
        );
        self.entries[n.index() * self.sections + c.index()]
    }

    /// Sets `p_{n,c}`, clamping negatives to zero. O(1).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or the value is not finite.
    pub fn set(&mut self, n: OlevId, c: SectionId, value: f64) {
        assert!(
            n.index() < self.olevs && c.index() < self.sections,
            "index out of range"
        );
        assert!(value.is_finite(), "schedule entries must be finite");
        let idx = n.index() * self.sections + c.index();
        let new = value.max(0.0);
        let delta = new - self.entries[idx];
        self.entries[idx] = new;
        self.loads[c.index()] = (self.loads[c.index()] + delta).max(0.0);
        self.totals[n.index()] = (self.totals[n.index()] + delta).max(0.0);
        self.total = (self.total + delta).max(0.0);
        self.count_write();
    }

    /// OLEV `n`'s row.
    #[must_use]
    pub fn row(&self, n: OlevId) -> &[f64] {
        &self.entries[n.index() * self.sections..(n.index() + 1) * self.sections]
    }

    /// Replaces OLEV `n`'s row. O(C): section loads take the per-entry delta,
    /// the row total is recomputed exactly from the stored row.
    ///
    /// # Panics
    ///
    /// Panics if the row length mismatches or any entry is negative/NaN.
    pub fn set_row(&mut self, n: OlevId, row: &[f64]) {
        assert_eq!(row.len(), self.sections, "row length mismatch");
        assert!(
            row.iter().all(|v| v.is_finite() && *v >= -1e-12),
            "schedule rows must be non-negative"
        );
        let start = n.index() * self.sections;
        for (i, &v) in row.iter().enumerate() {
            let new = v.max(0.0);
            let delta = new - self.entries[start + i];
            self.entries[start + i] = new;
            self.loads[i] = (self.loads[i] + delta).max(0.0);
        }
        let new_total: f64 = self.entries[start..start + self.sections].iter().sum();
        self.total = (self.total + (new_total - self.totals[n.index()])).max(0.0);
        self.totals[n.index()] = new_total;
        self.count_write();
    }

    /// Replaces OLEV `n`'s row *sparsely*: only the entries at the given
    /// ascending `sections` are written, with the same per-entry delta
    /// maintenance as [`PowerSchedule::set_row`]. The partitioned parallel
    /// apply path uses this to commit a move in O(|footprint|) instead of
    /// O(C).
    ///
    /// Contract: the row must be zero outside `sections` (both before and
    /// after the write — `sections` is the move's footprint, the union of the
    /// old and new supports). Under that contract the resulting entries,
    /// cached loads, and totals are bit-identical to a full-width
    /// [`PowerSchedule::set_row`] of the scattered row: the skipped sections
    /// would have contributed exact-zero deltas and exact-zero row-total
    /// terms, and adding `0.0` to a non-negative partial sum is exact.
    ///
    /// # Panics
    ///
    /// Panics if `sections` and `values` lengths mismatch, a section index is
    /// out of range or out of ascending order, or a value is negative/NaN.
    /// Debug builds also assert the zero-outside-footprint contract.
    pub fn patch_row(&mut self, n: OlevId, sections: &[usize], values: &[f64]) {
        assert_eq!(
            sections.len(),
            values.len(),
            "footprint/values length mismatch"
        );
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= -1e-12),
            "schedule rows must be non-negative"
        );
        let start = n.index() * self.sections;
        let mut prev = None;
        for (&c, &v) in sections.iter().zip(values) {
            assert!(c < self.sections, "index out of range");
            assert!(prev.is_none_or(|p| p < c), "footprint must be ascending");
            prev = Some(c);
            let new = v.max(0.0);
            let delta = new - self.entries[start + c];
            self.entries[start + c] = new;
            self.loads[c] = (self.loads[c] + delta).max(0.0);
        }
        debug_assert!(
            self.entries[start..start + self.sections]
                .iter()
                .enumerate()
                .all(|(c, &v)| v == 0.0 || sections.contains(&c)),
            "patch_row row must be zero outside its footprint"
        );
        // The footprint holds every nonzero entry, in ascending order, so
        // this partial sum replays the full-width row sum bit for bit.
        let new_total: f64 = sections.iter().map(|&c| self.entries[start + c]).sum();
        self.total = (self.total + (new_total - self.totals[n.index()])).max(0.0);
        self.totals[n.index()] = new_total;
        self.count_write();
    }

    fn count_write(&mut self) {
        self.writes += 1;
        if self.writes >= self.resync_writes {
            self.resync();
        }
    }

    /// Recomputes every cached aggregate exactly from the entries, absorbing
    /// any float residual the delta maintenance accumulated. Runs
    /// automatically every [`RESYNC_WRITES`] writes; callers that need exact
    /// naive-path summation order (e.g. equivalence tests) can force it.
    pub fn resync(&mut self) {
        for load in &mut self.loads {
            *load = 0.0;
        }
        for n in 0..self.olevs {
            for (c, load) in self.loads.iter_mut().enumerate() {
                *load += self.entries[n * self.sections + c];
            }
        }
        for n in 0..self.olevs {
            self.totals[n] = self.entries[n * self.sections..(n + 1) * self.sections]
                .iter()
                .sum();
        }
        self.total = self.entries.iter().sum();
        self.writes = 0;
    }

    /// `p_n = Σ_c p_{n,c}` — OLEV `n`'s total power. O(1) (cached, exact).
    #[must_use]
    pub fn olev_total(&self, n: OlevId) -> f64 {
        self.totals[n.index()]
    }

    /// `P_c = Σ_n p_{n,c}` — section `c`'s load. O(1) (cached).
    #[must_use]
    pub fn section_load(&self, c: SectionId) -> f64 {
        self.loads[c.index()]
    }

    /// All section loads, borrowed from the cache.
    #[must_use]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// All section loads as a fresh vector.
    #[must_use]
    pub fn section_loads(&self) -> Vec<f64> {
        self.loads.clone()
    }

    /// Section loads excluding OLEV `n` (`P_{-n,c}` of Eq. 8). O(C).
    #[must_use]
    pub fn loads_excluding(&self, n: OlevId) -> Vec<f64> {
        let mut loads = self.loads.clone();
        self.subtract_row(n, &mut loads);
        loads
    }

    /// [`PowerSchedule::loads_excluding`] into a caller-owned buffer, so hot
    /// paths can reuse one scratch allocation across updates.
    pub fn loads_excluding_into(&self, n: OlevId, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
        self.subtract_row(n, out);
    }

    fn subtract_row(&self, n: OlevId, loads: &mut [f64]) {
        for (c, load) in loads.iter_mut().enumerate() {
            *load -= self.entries[n.index() * self.sections + c];
            if *load < 0.0 {
                *load = 0.0;
            }
        }
    }

    /// Total allocated power across the whole system. O(1) (cached).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Congestion degree of section `c`: `P_c / cap_c` (the paper's
    /// `P_c / P_line`).
    ///
    /// A non-positive capacity is degenerate (the builder rejects it): an
    /// unloaded zero-capacity section reports 0 congestion, a loaded one
    /// reports `+∞` — never NaN, so trajectory gauges and journals stay
    /// well-defined.
    #[must_use]
    pub fn congestion_degree(&self, c: SectionId, cap: f64) -> f64 {
        let load = self.section_load(c);
        if cap <= 0.0 {
            if load <= 0.0 {
                return 0.0;
            }
            return f64::INFINITY;
        }
        load / cap
    }

    /// System congestion degree: total load over total capacity, with the
    /// same zero-capacity guard as [`PowerSchedule::congestion_degree`].
    ///
    /// # Panics
    ///
    /// Panics if `caps` length mismatches the section count.
    #[must_use]
    pub fn system_congestion(&self, caps: &[f64]) -> f64 {
        assert_eq!(caps.len(), self.sections, "capacity vector length mismatch");
        self.congestion_over(caps.iter().sum())
    }

    /// [`PowerSchedule::system_congestion`] for a total capacity `cap`
    /// summed by the caller (`caps.iter().sum()`, in that order, for the
    /// same bits).
    pub(crate) fn congestion_over(&self, cap: f64) -> f64 {
        let total = self.total();
        if cap <= 0.0 {
            if total <= 0.0 {
                return 0.0;
            }
            return f64::INFINITY;
        }
        total / cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> PowerSchedule {
        let mut s = PowerSchedule::zeros(2, 3);
        s.set_row(OlevId(0), &[1.0, 2.0, 3.0]);
        s.set_row(OlevId(1), &[4.0, 0.0, 6.0]);
        s
    }

    #[test]
    fn totals_and_loads() {
        let s = sched();
        assert_eq!(s.olev_total(OlevId(0)), 6.0);
        assert_eq!(s.olev_total(OlevId(1)), 10.0);
        assert_eq!(s.section_load(SectionId(0)), 5.0);
        assert_eq!(s.section_loads(), vec![5.0, 2.0, 9.0]);
        assert_eq!(s.total(), 16.0);
    }

    #[test]
    fn loads_excluding_removes_row() {
        let s = sched();
        assert_eq!(s.loads_excluding(OlevId(0)), vec![4.0, 0.0, 6.0]);
        assert_eq!(s.loads_excluding(OlevId(1)), vec![1.0, 2.0, 3.0]);
        let mut buf = Vec::new();
        s.loads_excluding_into(OlevId(0), &mut buf);
        assert_eq!(buf, vec![4.0, 0.0, 6.0]);
    }

    #[test]
    fn congestion_degrees() {
        let s = sched();
        assert_eq!(s.congestion_degree(SectionId(2), 18.0), 0.5);
        assert_eq!(s.system_congestion(&[10.0, 10.0, 12.0]), 0.5);
    }

    #[test]
    fn zero_capacity_is_guarded_not_nan() {
        // Regression: `0 load / 0 cap` used to emit NaN and a loaded
        // zero-capacity section emitted whatever `x / 0.0` gave, poisoning
        // gauges and journals downstream.
        let empty = PowerSchedule::zeros(2, 3);
        assert_eq!(empty.congestion_degree(SectionId(0), 0.0), 0.0);
        assert_eq!(empty.system_congestion(&[0.0, 0.0, 0.0]), 0.0);
        let s = sched();
        assert_eq!(s.congestion_degree(SectionId(0), 0.0), f64::INFINITY);
        assert_eq!(s.system_congestion(&[0.0, 0.0, 0.0]), f64::INFINITY);
        assert!(!s.congestion_degree(SectionId(0), 0.0).is_nan());
    }

    #[test]
    fn cached_aggregates_track_overwrites() {
        let mut s = sched();
        // Overwrite the same row repeatedly; caches must track exactly.
        s.set_row(OlevId(0), &[0.5, 0.0, 0.25]);
        s.set(OlevId(1), SectionId(1), 2.0);
        assert!((s.section_load(SectionId(0)) - 4.5).abs() < 1e-12);
        assert!((s.olev_total(OlevId(0)) - 0.75).abs() < 1e-12);
        assert!((s.olev_total(OlevId(1)) - 12.0).abs() < 1e-12);
        assert!((s.total() - 12.75).abs() < 1e-12);
        // And a forced resync lands on the same values.
        let before = s.clone();
        s.resync();
        assert_eq!(s, before);
        assert!((s.total() - 12.75).abs() < 1e-12);
    }

    #[test]
    fn automatic_resync_kicks_in() {
        let mut s = PowerSchedule::zeros(2, 3);
        for k in 0..(2 * RESYNC_WRITES) {
            let v = (k % 7) as f64 * 0.1;
            s.set_row(OlevId(k % 2), &[v, v + 0.1, v + 0.2]);
        }
        // Cached loads agree with a from-scratch recompute.
        let cached = s.section_loads();
        s.resync();
        for (a, b) in cached.iter().zip(s.section_loads()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn resync_every_write_tracks_naive_sums_bit_for_bit() {
        // Regression for the configurable interval: at interval 1 every
        // cached aggregate must equal the exact naive recompute, bit for
        // bit, after every single write.
        let mut s = PowerSchedule::zeros(3, 4);
        s.set_resync_writes(1);
        for k in 0..200 {
            let v = (k % 11) as f64 * 0.37 + 0.01;
            s.set_row(OlevId(k % 3), &[v, v * 0.5, v * 1.5, v * 0.25]);
            let mut exact = s.clone();
            exact.resync();
            for (c, load) in exact.loads().iter().enumerate() {
                assert_eq!(
                    s.section_load(SectionId(c)).to_bits(),
                    load.to_bits(),
                    "load {c} drifted at write {k}"
                );
            }
            assert_eq!(s.total().to_bits(), exact.total().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "resync interval must be nonzero")]
    fn zero_resync_writes_rejected() {
        PowerSchedule::zeros(1, 1).set_resync_writes(0);
    }

    #[test]
    fn patch_row_is_bit_identical_to_full_set_row() {
        // The sparse commit path must replay the full-width write exactly:
        // same entries, same cached loads/totals, bit for bit.
        let mut full = PowerSchedule::zeros(3, 6);
        let mut sparse = PowerSchedule::zeros(3, 6);
        let writes: [(usize, &[usize], &[f64]); 4] = [
            (0, &[1, 3], &[2.5, 4.0]),
            (1, &[0, 1, 5], &[1.0, 0.5, 3.25]),
            (0, &[1, 3], &[0.0, 7.5]),
            (2, &[2], &[9.0]),
        ];
        for (n, sections, values) in writes {
            let mut row = vec![0.0; 6];
            for (&c, &v) in sections.iter().zip(values) {
                row[c] = v;
            }
            full.set_row(OlevId(n), &row);
            sparse.patch_row(OlevId(n), sections, values);
            assert_eq!(full, sparse);
            for c in 0..6 {
                assert_eq!(
                    full.section_load(SectionId(c)).to_bits(),
                    sparse.section_load(SectionId(c)).to_bits()
                );
            }
            assert_eq!(
                full.olev_total(OlevId(n)).to_bits(),
                sparse.olev_total(OlevId(n)).to_bits()
            );
            assert_eq!(full.total().to_bits(), sparse.total().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "footprint must be ascending")]
    fn patch_row_rejects_unsorted_footprints() {
        let mut s = PowerSchedule::zeros(1, 4);
        s.patch_row(OlevId(0), &[2, 1], &[1.0, 1.0]);
    }

    #[test]
    fn equality_ignores_write_history() {
        let mut a = PowerSchedule::zeros(2, 3);
        a.set_row(OlevId(0), &[1.0, 2.0, 3.0]);
        a.set_row(OlevId(0), &[0.0, 0.0, 0.0]);
        let b = PowerSchedule::zeros(2, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn set_clamps_negatives() {
        let mut s = PowerSchedule::zeros(1, 1);
        s.set(OlevId(0), SectionId(0), -4.0);
        assert_eq!(s.get(OlevId(0), SectionId(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_get_panics() {
        let _ = sched().get(OlevId(5), SectionId(0));
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn wrong_row_length_panics() {
        sched().set_row(OlevId(0), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimensions_panic() {
        let _ = PowerSchedule::zeros(0, 3);
    }
}
