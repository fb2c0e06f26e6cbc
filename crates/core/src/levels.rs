//! Level partitions of the value-function range (§3, Table 1).
//!
//! A partition plan is the boundary sequence `0 = β_0 < β_1 < … < β_m = 1`.
//! Levels are `L_i = [β_i, β_{i+1})` for `i < m` plus the degenerate target
//! level `L_m = [1, 1]`. Only the interior boundaries `β_1..β_{m-1}` are
//! stored; `β_0 = 0` and `β_m = 1` are implicit.

/// Error building a [`PartitionPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A boundary fell outside the open interval (0, 1).
    OutOfRange(f64),
    /// Boundaries were not strictly increasing after sorting (duplicates).
    NotStrictlyIncreasing,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::OutOfRange(v) => {
                write!(f, "partition boundary {v} outside the open interval (0,1)")
            }
            PlanError::NotStrictlyIncreasing => {
                write!(f, "partition boundaries must be strictly increasing")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A level partition plan `B = {β_1, …, β_{m-1}}` (interior boundaries).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Strictly increasing interior boundaries, each in (0, 1).
    boundaries: Vec<f64>,
}

impl PartitionPlan {
    /// The trivial plan with no interior boundary: a single level `[0,1)`
    /// plus the target. MLSS under this plan is plain SRS regardless of
    /// splitting ratio.
    pub fn trivial() -> Self {
        Self { boundaries: vec![] }
    }

    /// Build a plan from interior boundaries. They are sorted; duplicates
    /// or out-of-range values are rejected.
    pub fn new(mut boundaries: Vec<f64>) -> Result<Self, PlanError> {
        for &b in &boundaries {
            if !(b.is_finite() && b > 0.0 && b < 1.0) {
                return Err(PlanError::OutOfRange(b));
            }
        }
        boundaries.sort_by(|a, b| a.partial_cmp(b).expect("finite boundaries"));
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PlanError::NotStrictlyIncreasing);
        }
        Ok(Self { boundaries })
    }

    /// Evenly spaced plan with `m` levels below the target, i.e. interior
    /// boundaries `1/m, 2/m, …, (m-1)/m`.
    pub fn uniform(m: usize) -> Self {
        assert!(m >= 1, "need at least one level");
        let boundaries = (1..m).map(|i| i as f64 / m as f64).collect();
        Self { boundaries }
    }

    /// Geometric plan: boundaries at `g^(m-1), …, g^1` for ratio `g ∈ (0,1)`
    /// — the natural first guess for "balanced growth" when advancement
    /// difficulty scales multiplicatively with `f`.
    pub fn geometric(m: usize, g: f64) -> Self {
        assert!(m >= 1);
        assert!(g > 0.0 && g < 1.0, "geometric ratio must be in (0,1)");
        let mut boundaries: Vec<f64> = (1..m).map(|i| g.powi((m - i) as i32)).collect();
        boundaries.dedup();
        Self { boundaries }
    }

    /// Number of levels *below* the target, `m` (so the total number of
    /// intervals including the target level is `m + 1`). The paper's
    /// estimator exponent is `r^{m-1}`.
    pub fn num_levels(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Interior boundaries `β_1..β_{m-1}`.
    pub fn interior(&self) -> &[f64] {
        &self.boundaries
    }

    /// Boundary `β_i` for `i in 0..=m`, including the implicit endpoints.
    pub fn boundary(&self, i: usize) -> f64 {
        let m = self.num_levels();
        assert!(i <= m, "boundary index {i} out of range (m = {m})");
        if i == 0 {
            0.0
        } else if i == m {
            1.0
        } else {
            self.boundaries[i - 1]
        }
    }

    /// Index of the level containing value `v`: the largest `i` with
    /// `β_i ≤ v` (values ≥ 1 map to the target level `m`).
    pub fn level_of(&self, v: f64) -> usize {
        if v >= 1.0 {
            return self.num_levels();
        }
        // Linear scan: plans have a handful of levels (the paper finds 3-6
        // optimal), so this beats binary search in practice.
        let mut lvl = 0;
        for (idx, &b) in self.boundaries.iter().enumerate() {
            if v >= b {
                lvl = idx + 1;
            } else {
                break;
            }
        }
        lvl
    }

    /// Add one interior boundary, returning the extended plan.
    pub fn with_boundary(&self, v: f64) -> Result<Self, PlanError> {
        let mut b = self.boundaries.clone();
        b.push(v);
        Self::new(b)
    }

    /// The level interval `[lo, hi)` for level `i < m`.
    pub fn level_interval(&self, i: usize) -> (f64, f64) {
        (self.boundary(i), self.boundary(i + 1))
    }
}

impl std::fmt::Display for PartitionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{0")?;
        for b in &self.boundaries {
            write!(f, ", {b:.4}")?;
        }
        write!(f, ", 1}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_is_single_level() {
        let p = PartitionPlan::trivial();
        assert_eq!(p.num_levels(), 1);
        assert_eq!(p.boundary(0), 0.0);
        assert_eq!(p.boundary(1), 1.0);
        assert_eq!(p.level_of(0.5), 0);
        assert_eq!(p.level_of(1.0), 1);
    }

    #[test]
    fn new_sorts_boundaries() {
        let p = PartitionPlan::new(vec![0.67, 0.4]).unwrap();
        assert_eq!(p.interior(), &[0.4, 0.67]);
        assert_eq!(p.num_levels(), 3);
    }

    #[test]
    fn rejects_bad_boundaries() {
        assert!(matches!(
            PartitionPlan::new(vec![0.0]),
            Err(PlanError::OutOfRange(_))
        ));
        assert!(matches!(
            PartitionPlan::new(vec![1.0]),
            Err(PlanError::OutOfRange(_))
        ));
        assert!(matches!(
            PartitionPlan::new(vec![f64::NAN]),
            Err(PlanError::OutOfRange(_))
        ));
        assert!(matches!(
            PartitionPlan::new(vec![0.3, 0.3]),
            Err(PlanError::NotStrictlyIncreasing)
        ));
    }

    #[test]
    fn level_of_figure1_example() {
        // Figure 1: L0=[0,0.4), L1=[0.4,0.67), L2=[0.67,1), L3=[1,1].
        let p = PartitionPlan::new(vec![0.4, 0.67]).unwrap();
        assert_eq!(p.level_of(0.0), 0);
        assert_eq!(p.level_of(0.39), 0);
        assert_eq!(p.level_of(0.4), 1);
        assert_eq!(p.level_of(0.66), 1);
        assert_eq!(p.level_of(0.67), 2);
        assert_eq!(p.level_of(0.999), 2);
        assert_eq!(p.level_of(1.0), 3);
        assert_eq!(p.level_of(1.5), 3);
    }

    #[test]
    fn uniform_plan_boundaries() {
        let p = PartitionPlan::uniform(4);
        assert_eq!(p.num_levels(), 4);
        assert_eq!(p.interior(), &[0.25, 0.5, 0.75]);
    }

    #[test]
    fn geometric_plan_is_increasing() {
        let p = PartitionPlan::geometric(5, 0.5);
        let b = p.interior();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!((b[0] - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn with_boundary_extends() {
        let p = PartitionPlan::new(vec![0.5]).unwrap();
        let q = p.with_boundary(0.25).unwrap();
        assert_eq!(q.interior(), &[0.25, 0.5]);
        assert!(q.with_boundary(0.25).is_err());
    }

    #[test]
    fn level_interval_covers_range() {
        let p = PartitionPlan::new(vec![0.2, 0.6]).unwrap();
        assert_eq!(p.level_interval(0), (0.0, 0.2));
        assert_eq!(p.level_interval(1), (0.2, 0.6));
        assert_eq!(p.level_interval(2), (0.6, 1.0));
    }
}
