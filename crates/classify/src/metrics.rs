//! Classification metrics: confusion matrix, per-class precision/recall/F1,
//! macro/micro averages (the paper reports F1 = 0.87 under 5-fold CV).

/// A k×k confusion matrix; `m[true][pred]` counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Confusion {
    k: usize,
    m: Vec<u64>,
}

impl Confusion {
    /// An empty k-class matrix.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "need at least two classes");
        Self { k, m: vec![0; k * k] }
    }

    /// Record one prediction.
    pub fn add(&mut self, truth: usize, pred: usize) {
        assert!(truth < self.k && pred < self.k, "class out of range");
        self.m[truth * self.k + pred] += 1;
    }

    /// Count at `(truth, pred)`.
    pub fn get(&self, truth: usize, pred: usize) -> u64 {
        self.m[truth * self.k + pred]
    }

    /// Accumulate another matrix cell-wise (pooling per-fold confusions;
    /// counts are commutative, so merge order cannot affect the result).
    pub fn merge(&mut self, other: &Confusion) {
        assert_eq!(self.k, other.k, "class count mismatch");
        for (a, b) in self.m.iter_mut().zip(&other.m) {
            *a += b;
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.m.iter().sum()
    }

    /// Per-class row sums (true-label supports).
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.k).map(|t| (0..self.k).map(|p| self.get(t, p)).sum()).collect()
    }

    /// Per-class column sums (prediction counts).
    pub fn col_sums(&self) -> Vec<u64> {
        (0..self.k).map(|p| (0..self.k).map(|t| self.get(t, p)).sum()).collect()
    }

    /// Audit the matrix against an expected observation count: the cells
    /// must sum to `expected`, and the row and column marginals must both
    /// re-sum to the same grand total. Under k-fold CV every sample is
    /// validated exactly once, so the pooled matrix must account for the
    /// whole corpus — a dropped or double-counted fold shows up here.
    pub fn check_books(&self, expected: u64) -> Result<(), String> {
        let total = self.total();
        if total != expected {
            return Err(format!("confusion holds {total} observations, expected {expected}"));
        }
        let rows: u64 = self.row_sums().iter().sum();
        let cols: u64 = self.col_sums().iter().sum();
        if rows != total || cols != total {
            return Err(format!(
                "marginals disagree: rows {rows}, cols {cols}, total {total}"
            ));
        }
        Ok(())
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.k).map(|i| self.get(i, i)).sum();
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            correct as f64 / t as f64
        }
    }

    /// Precision for one class (0 when the class is never predicted).
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.get(class, class);
        let predicted: u64 = (0..self.k).map(|t| self.get(t, class)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall for one class (0 when the class never occurs).
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.get(class, class);
        let actual: u64 = (0..self.k).map(|p| self.get(class, p)).sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// Per-class F1.
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Support-weighted mean of per-class F1 — scikit-learn's
    /// `f1_score(average="weighted")`, the convention behind the paper's
    /// 0.87 on a heavily imbalanced corpus.
    pub fn weighted_f1(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (0..self.k)
            .map(|c| {
                let support: u64 = (0..self.k).map(|p| self.get(c, p)).sum();
                self.f1(c) * support as f64 / total as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Confusion {
        // 3 classes; diagonal-heavy.
        let mut c = Confusion::new(3);
        for _ in 0..8 {
            c.add(0, 0);
        }
        c.add(0, 1);
        c.add(0, 2);
        for _ in 0..15 {
            c.add(1, 1);
        }
        for _ in 0..5 {
            c.add(1, 0);
        }
        for _ in 0..20 {
            c.add(2, 2);
        }
        c
    }

    #[test]
    fn accuracy_matches_hand_count() {
        let c = sample();
        assert!((c.accuracy() - 43.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_class0() {
        let c = sample();
        // class 0: tp=8, predicted 0 = 8+5 = 13, actual = 10.
        assert!((c.precision(0) - 8.0 / 13.0).abs() < 1e-12);
        assert!((c.recall(0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn f1_harmonic_mean() {
        let c = sample();
        let p = c.precision(0);
        let r = c.recall(0);
        assert!((c.f1(0) - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn perfect_classifier() {
        let mut c = Confusion::new(2);
        c.add(0, 0);
        c.add(1, 1);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.weighted_f1(), 1.0);
    }

    #[test]
    fn degenerate_class_scores_zero() {
        let mut c = Confusion::new(3);
        c.add(0, 0);
        // Class 2 never occurs and is never predicted.
        assert_eq!(c.f1(2), 0.0);
        assert_eq!(c.precision(2), 0.0);
        assert_eq!(c.recall(2), 0.0);
    }

    #[test]
    fn weighted_f1_leans_on_majority() {
        // Majority class perfect, minority class awful.
        let mut c = Confusion::new(2);
        for _ in 0..90 {
            c.add(0, 0);
        }
        for _ in 0..10 {
            c.add(1, 0);
        }
        // Class 0: precision 0.9, recall 1, F1 = 18/19, support 90 of
        // 100; class 1: F1 = 0. Weighted: 0.9 * 18/19 = 81/95.
        assert!((c.weighted_f1() - 81.0 / 95.0).abs() < 1e-12);
    }

    #[test]
    fn marginals_reconcile() {
        let c = sample();
        assert_eq!(c.row_sums(), vec![10, 20, 20]);
        assert_eq!(c.col_sums(), vec![13, 16, 21]);
        assert_eq!(c.row_sums().iter().sum::<u64>(), c.total());
        assert_eq!(c.check_books(50), Ok(()));
        let err = c.check_books(49).unwrap_err();
        assert!(err.contains("expected 49"), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        Confusion::new(2).add(0, 5);
    }
}
