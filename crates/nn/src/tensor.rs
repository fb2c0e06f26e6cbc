//! Minimal dense linear algebra for the LSTM-MDN substrate.
//!
//! A row-major `f64` matrix with exactly the operations the network
//! needs: matrix-vector products, transposed products for backprop, outer
//! products for weight gradients, and element-wise updates. Deliberately
//! small — the models here are tiny (tens of units), so clarity and
//! testability beat BLAS.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw data slice (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// `y += A·x` (matrix-vector multiply-accumulate).
    pub fn gemv_acc(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "gemv dimension mismatch");
        assert_eq!(y.len(), self.rows, "gemv output mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr += acc;
        }
    }

    /// `y += Aᵀ·x` (transposed multiply-accumulate, for backprop).
    pub fn gemv_transpose_acc(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "gemv^T dimension mismatch");
        assert_eq!(y.len(), self.cols, "gemv^T output mismatch");
        for (r, &xr) in x.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            if xr == 0.0 {
                continue;
            }
            for (yc, a) in y.iter_mut().zip(row) {
                *yc += xr * a;
            }
        }
    }

    /// `self += scale · u vᵀ` (outer-product accumulate, for weight grads).
    pub fn outer_acc(&mut self, u: &[f64], v: &[f64], scale: f64) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (r, &u_r) in u.iter().enumerate() {
            let ur = u_r * scale;
            if ur == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter_mut().zip(v) {
                *a += ur * b;
            }
        }
    }

    /// Set all entries to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of squared entries (for gradient-norm diagnostics/clipping).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }
}

/// `y += a·x` over slices.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Numerically stable softmax into a fresh vector.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_basic() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64); // [[0,1,2],[3,4,5]]
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 2];
        a.gemv_acc(&x, &mut y);
        assert_eq!(y, [8.0, 26.0]);
    }

    #[test]
    fn gemv_transpose_is_adjoint() {
        // ⟨A x, u⟩ == ⟨x, Aᵀ u⟩.
        let a = Matrix::from_fn(3, 2, |r, c| (r as f64 + 1.0) * (c as f64 - 0.5));
        let x = [0.7, -1.3];
        let u = [2.0, 0.5, -1.0];
        let mut ax = [0.0; 3];
        a.gemv_acc(&x, &mut ax);
        let lhs: f64 = ax.iter().zip(&u).map(|(p, q)| p * q).sum();
        let mut atu = [0.0; 2];
        a.gemv_transpose_acc(&u, &mut atu);
        let rhs: f64 = atu.iter().zip(&x).map(|(p, q)| p * q).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.outer_acc(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(1, 1), 4.0);
        a.outer_acc(&[1.0, 0.0], &[1.0, 0.0], 1.0);
        assert_eq!(a.get(0, 0), 2.5);
    }

    #[test]
    fn softmax_normalizes_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability with large logits.
        let q = softmax(&[1000.0, 1000.0]);
        assert!((q[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(-100.0) >= 0.0);
    }

    #[test]
    fn axpy_works() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }
}
