//! Trainable models with analytic gradients.
//!
//! All models expose gradients as **sums** over the requested samples (not
//! means): IS-GC sums per-partition gradients across workers, and the master
//! normalizes once by the total number of samples recovered (paper
//! Assumption 2). Losses are reported as means for monitoring.

use isgc_linalg::{kernels, log_sum_exp, sigmoid, softmax_in_place, Vector};
use rand::RngCore;

use crate::dataset::Dataset;

/// A model trainable by (distributed) SGD.
///
/// Implementations are stateless descriptions of the architecture; the
/// parameter vector is owned by the caller, which lets a simulation keep
/// many synchronized replicas cheaply.
pub trait Model {
    /// Dimension of the flat parameter vector.
    fn param_dim(&self) -> usize;

    /// A zero-initialized parameter vector (fine for convex models).
    fn zero_params(&self) -> Vector {
        Vector::zeros(self.param_dim())
    }

    /// A small-random parameter vector (needed to break symmetry in MLPs).
    fn init_params(&self, rng: &mut dyn RngCore) -> Vector;

    /// Mean loss over the given sample indices.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong dimension, an index is out of
    /// bounds, or `indices` is empty.
    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64;

    /// Sum of per-sample loss gradients over the given indices,
    /// **accumulated** into `out` (the caller zeroes or pre-loads it).
    ///
    /// This is the allocation-free primitive the per-step hot path uses: a
    /// worker keeps one scratch `Vector` alive across steps and partitions
    /// instead of allocating a gradient per call. Accumulation semantics
    /// make `Σ_partitions gradient_sum` a single running `out` when the
    /// bracketing allows it.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `out` has the wrong dimension or an index is
    /// out of bounds. An empty `indices` leaves `out` unchanged.
    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    );

    /// Sum of per-sample loss gradients over the given indices, as a fresh
    /// vector. Convenience wrapper over [`Model::gradient_sum_into`]; cold
    /// paths and tests use this, the per-step loop should not.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong dimension or an index is out of
    /// bounds. An empty `indices` yields the zero vector.
    fn gradient_sum(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> Vector {
        let mut out = Vector::zeros(self.param_dim());
        self.gradient_sum_into(params, data, indices, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Linear regression
// ---------------------------------------------------------------------------

/// Least-squares linear regression `ŷ = wᵀx + b` with loss `½(ŷ − y)²`.
///
/// # Examples
///
/// ```
/// use isgc_ml::dataset::Dataset;
/// use isgc_ml::model::{LinearRegression, Model};
///
/// let data = Dataset::synthetic_regression(32, 3, 0.0, 1);
/// let model = LinearRegression::new(3);
/// let params = model.zero_params();
/// let idx: Vec<usize> = (0..32).collect();
/// assert!(model.loss_mean(&params, &data, &idx) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearRegression {
    features: usize,
}

impl LinearRegression {
    /// Creates the model for `features`-dimensional inputs.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "features must be positive");
        Self { features }
    }

    /// The prediction `wᵀx + b`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn predict(&self, params: &Vector, x: &[f64]) -> f64 {
        assert_eq!(params.len(), self.param_dim(), "bad parameter vector");
        assert_eq!(x.len(), self.features, "bad feature vector");
        kernels::dot(x, &params.as_slice()[..self.features]) + params[self.features]
    }
}

impl Model for LinearRegression {
    fn param_dim(&self) -> usize {
        self.features + 1 // weights + bias
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        Vector::random_normal(self.param_dim(), 0.0, 0.01, rng)
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let total: f64 = indices
            .iter()
            .map(|&i| {
                let e = self.predict(params, data.features_of(i)) - data.target_of(i);
                0.5 * e * e
            })
            .sum();
        total / indices.len() as f64
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        assert_eq!(out.len(), self.param_dim(), "bad gradient vector");
        for &i in indices {
            let x = data.features_of(i);
            let e = self.predict(params, x) - data.target_of(i);
            let os = out.as_mut_slice();
            kernels::axpy(&mut os[..self.features], e, x);
            os[self.features] += e;
        }
    }
}

// ---------------------------------------------------------------------------
// Logistic regression
// ---------------------------------------------------------------------------

/// Binary logistic regression with cross-entropy loss; targets are 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogisticRegression {
    features: usize,
}

impl LogisticRegression {
    /// Creates the model for `features`-dimensional inputs.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "features must be positive");
        Self { features }
    }

    /// The probability `P(y = 1 | x)`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn probability(&self, params: &Vector, x: &[f64]) -> f64 {
        assert_eq!(params.len(), self.param_dim(), "bad parameter vector");
        assert_eq!(x.len(), self.features, "bad feature vector");
        let z = kernels::dot(x, &params.as_slice()[..self.features]) + params[self.features];
        sigmoid(z)
    }

    /// The hard 0/1 prediction.
    pub fn predict_class(&self, params: &Vector, x: &[f64]) -> usize {
        usize::from(self.probability(params, x) >= 0.5)
    }
}

impl Model for LogisticRegression {
    fn param_dim(&self) -> usize {
        self.features + 1
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        Vector::random_normal(self.param_dim(), 0.0, 0.01, rng)
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let total: f64 = indices
            .iter()
            .map(|&i| {
                let p = self
                    .probability(params, data.features_of(i))
                    .clamp(1e-12, 1.0 - 1e-12);
                let y = data.target_of(i);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            })
            .sum();
        total / indices.len() as f64
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        assert_eq!(out.len(), self.param_dim(), "bad gradient vector");
        for &i in indices {
            let x = data.features_of(i);
            let e = self.probability(params, x) - data.target_of(i);
            let os = out.as_mut_slice();
            kernels::axpy(&mut os[..self.features], e, x);
            os[self.features] += e;
        }
    }
}

// ---------------------------------------------------------------------------
// Softmax regression
// ---------------------------------------------------------------------------

/// Multinomial logistic (softmax) regression with `k` classes.
///
/// Parameter layout: `k` weight rows of length `features`, then `k` biases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftmaxRegression {
    features: usize,
    classes: usize,
}

impl SoftmaxRegression {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `classes < 2`.
    pub fn new(features: usize, classes: usize) -> Self {
        assert!(features > 0, "features must be positive");
        assert!(classes >= 2, "need at least two classes");
        Self { features, classes }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Writes the logits `z_c = w_cᵀx + b_c` into `z` (one per class).
    fn logits_into(&self, params: &Vector, x: &[f64], z: &mut [f64]) {
        assert_eq!(params.len(), self.param_dim(), "bad parameter vector");
        assert_eq!(x.len(), self.features, "bad feature vector");
        let p = self.features;
        for (c, zc) in z.iter_mut().enumerate() {
            let w = &params.as_slice()[c * p..(c + 1) * p];
            let b = params[self.classes * p + c];
            *zc = kernels::dot(x, w) + b;
        }
    }

    fn logits(&self, params: &Vector, x: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.classes];
        self.logits_into(params, x, &mut z);
        z
    }

    /// Class probabilities for input `x`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn probabilities(&self, params: &Vector, x: &[f64]) -> Vec<f64> {
        let mut z = self.logits(params, x);
        softmax_in_place(&mut z);
        z
    }

    /// The arg-max class prediction.
    pub fn predict_class(&self, params: &Vector, x: &[f64]) -> usize {
        let z = self.logits(params, x);
        z.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least two classes")
    }
}

impl Model for SoftmaxRegression {
    fn param_dim(&self) -> usize {
        self.classes * self.features + self.classes
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        Vector::random_normal(self.param_dim(), 0.0, 0.01, rng)
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let mut z = vec![0.0; self.classes];
        let total: f64 = indices
            .iter()
            .map(|&i| {
                self.logits_into(params, data.features_of(i), &mut z);
                let y = data.target_of(i) as usize;
                log_sum_exp(&z) - z[y]
            })
            .sum();
        total / indices.len() as f64
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        assert_eq!(out.len(), self.param_dim(), "bad gradient vector");
        let p = self.features;
        let mut probs = vec![0.0; self.classes];
        for &i in indices {
            let x = data.features_of(i);
            // `probabilities`, into the one scratch buffer.
            self.logits_into(params, x, &mut probs);
            softmax_in_place(&mut probs);
            let y = data.target_of(i) as usize;
            let os = out.as_mut_slice();
            for (c, &pc) in probs.iter().enumerate() {
                let e = pc - f64::from(c == y);
                kernels::axpy(&mut os[c * p..(c + 1) * p], e, x);
                os[self.classes * p + c] += e;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-hidden-layer MLP
// ---------------------------------------------------------------------------

/// A one-hidden-layer perceptron with `tanh` activation and softmax output —
/// the non-convex stand-in for the paper's ResNet-18.
///
/// Parameter layout: `W1 (hidden × features)`, `b1 (hidden)`,
/// `W2 (classes × hidden)`, `b2 (classes)`, all row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mlp {
    features: usize,
    hidden: usize,
    classes: usize,
}

impl Mlp {
    /// Creates the architecture.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(features: usize, hidden: usize, classes: usize) -> Self {
        assert!(features > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        Self {
            features,
            hidden,
            classes,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    fn w1_offset(&self) -> usize {
        0
    }
    fn b1_offset(&self) -> usize {
        self.hidden * self.features
    }
    fn w2_offset(&self) -> usize {
        self.b1_offset() + self.hidden
    }
    fn b2_offset(&self) -> usize {
        self.w2_offset() + self.classes * self.hidden
    }

    /// Forward pass into caller buffers: hidden activations into `a`
    /// (`hidden` long), logits into `z` (`classes` long).
    fn forward_into(&self, params: &Vector, x: &[f64], a: &mut [f64], z: &mut [f64]) {
        assert_eq!(params.len(), self.param_dim(), "bad parameter vector");
        assert_eq!(x.len(), self.features, "bad feature vector");
        let ps = params.as_slice();
        for (h, ah) in a.iter_mut().enumerate() {
            let w = &ps[self.w1_offset() + h * self.features..][..self.features];
            let b = ps[self.b1_offset() + h];
            *ah = (kernels::dot(x, w) + b).tanh();
        }
        for (c, zc) in z.iter_mut().enumerate() {
            let w = &ps[self.w2_offset() + c * self.hidden..][..self.hidden];
            let b = ps[self.b2_offset() + c];
            *zc = kernels::dot(a, w) + b;
        }
    }

    /// Forward pass: returns (hidden activations, logits).
    fn forward(&self, params: &Vector, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut a = vec![0.0; self.hidden];
        let mut z = vec![0.0; self.classes];
        self.forward_into(params, x, &mut a, &mut z);
        (a, z)
    }

    /// Class probabilities for input `x`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn probabilities(&self, params: &Vector, x: &[f64]) -> Vec<f64> {
        let (_, mut z) = self.forward(params, x);
        softmax_in_place(&mut z);
        z
    }

    /// The arg-max class prediction.
    pub fn predict_class(&self, params: &Vector, x: &[f64]) -> usize {
        let (_, z) = self.forward(params, x);
        z.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least two classes")
    }
}

impl Model for Mlp {
    fn param_dim(&self) -> usize {
        self.hidden * self.features + self.hidden + self.classes * self.hidden + self.classes
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        // Xavier-ish scaling keeps tanh units in their linear regime.
        let s1 = (1.0 / self.features as f64).sqrt();
        let s2 = (1.0 / self.hidden as f64).sqrt();
        let mut v = Vector::zeros(self.param_dim());
        let w1 = Vector::random_normal(self.hidden * self.features, 0.0, s1, rng);
        let w2 = Vector::random_normal(self.classes * self.hidden, 0.0, s2, rng);
        for (i, &w) in w1.iter().enumerate() {
            v[self.w1_offset() + i] = w;
        }
        for (i, &w) in w2.iter().enumerate() {
            v[self.w2_offset() + i] = w;
        }
        v
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let mut scratch = vec![0.0; self.hidden + self.classes];
        let (a, z) = scratch.split_at_mut(self.hidden);
        let total: f64 = indices
            .iter()
            .map(|&i| {
                self.forward_into(params, data.features_of(i), a, z);
                let y = data.target_of(i) as usize;
                log_sum_exp(z) - z[y]
            })
            .sum();
        total / indices.len() as f64
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        assert_eq!(out.len(), self.param_dim(), "bad gradient vector");
        let ps = params.as_slice();
        // One scratch buffer per call: activations, probabilities, and the
        // hidden-layer deltas.
        let mut scratch = vec![0.0f64; 2 * self.hidden + self.classes];
        let (a, rest) = scratch.split_at_mut(self.hidden);
        let (probs, delta_hidden) = rest.split_at_mut(self.classes);
        for &i in indices {
            let x = data.features_of(i);
            self.forward_into(params, x, a, probs);
            softmax_in_place(probs);
            let y = data.target_of(i) as usize;
            // Output layer deltas: dL/dz_c = p_c − 1[c = y].
            delta_hidden.fill(0.0);
            let os = out.as_mut_slice();
            for (c, &pc) in probs.iter().enumerate() {
                let dz = pc - f64::from(c == y);
                let w2_row = &ps[self.w2_offset() + c * self.hidden..][..self.hidden];
                kernels::axpy(
                    &mut os[self.w2_offset() + c * self.hidden..][..self.hidden],
                    dz,
                    a,
                );
                kernels::axpy(delta_hidden, dz, w2_row);
                os[self.b2_offset() + c] += dz;
            }
            // Hidden layer: dL/da_h through tanh'(u) = 1 − a².
            for (h, &dh) in delta_hidden.iter().enumerate() {
                let da = dh * (1.0 - a[h] * a[h]);
                kernels::axpy(
                    &mut os[self.w1_offset() + h * self.features..][..self.features],
                    da,
                    x,
                );
                os[self.b1_offset() + h] += da;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference check of `gradient_sum` against
    /// `loss_mean * len` for an arbitrary parameter point.
    fn check_gradient<M: Model>(model: &M, data: &Dataset, indices: &[usize], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = model.init_params(&mut rng);
        let grad = model.gradient_sum(&params, data, indices);
        let eps = 1e-6;
        let k = indices.len() as f64;
        for d in 0..model.param_dim() {
            let mut plus = params.clone();
            plus[d] += eps;
            let mut minus = params.clone();
            minus[d] -= eps;
            // loss_mean * k = summed loss, matching gradient_sum convention.
            let numeric = (model.loss_mean(&plus, data, indices)
                - model.loss_mean(&minus, data, indices))
                * k
                / (2.0 * eps);
            let analytic = grad[d];
            let scale = 1.0_f64.max(analytic.abs()).max(numeric.abs());
            assert!(
                (numeric - analytic).abs() / scale < 1e-4,
                "param {d}: numeric={numeric}, analytic={analytic}"
            );
        }
    }

    #[test]
    fn linear_regression_gradient_matches_finite_differences() {
        let data = Dataset::synthetic_regression(20, 3, 0.3, 1);
        let idx: Vec<usize> = (0..20).collect();
        check_gradient(&LinearRegression::new(3), &data, &idx, 10);
    }

    #[test]
    fn logistic_regression_gradient_matches_finite_differences() {
        let data = Dataset::two_gaussians(20, 3, 2.0, 2);
        let idx: Vec<usize> = (0..20).collect();
        check_gradient(&LogisticRegression::new(3), &data, &idx, 11);
    }

    #[test]
    fn softmax_regression_gradient_matches_finite_differences() {
        let data = Dataset::gaussian_classification(21, 3, 3, 2.0, 3);
        let idx: Vec<usize> = (0..21).collect();
        check_gradient(&SoftmaxRegression::new(3, 3), &data, &idx, 12);
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let data = Dataset::gaussian_classification(12, 3, 3, 2.0, 4);
        let idx: Vec<usize> = (0..12).collect();
        check_gradient(&Mlp::new(3, 5, 3), &data, &idx, 13);
    }

    #[test]
    fn gradient_sum_is_additive_over_batches() {
        // The property IS-GC relies on: gradient of a union = sum of
        // gradients — exactly, since everything is plain summation.
        let data = Dataset::gaussian_classification(30, 4, 3, 2.0, 5);
        let model = SoftmaxRegression::new(4, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let params = model.init_params(&mut rng);
        let left: Vec<usize> = (0..15).collect();
        let right: Vec<usize> = (15..30).collect();
        let all: Vec<usize> = (0..30).collect();
        let mut combined = model.gradient_sum(&params, &data, &left);
        combined.axpy(1.0, &model.gradient_sum(&params, &data, &right));
        let direct = model.gradient_sum(&params, &data, &all);
        assert!((&combined - &direct).norm_inf() < 1e-12);
    }

    #[test]
    fn linear_regression_sgd_converges_on_noiseless_data() {
        let data = Dataset::synthetic_regression(128, 3, 0.0, 7);
        let model = LinearRegression::new(3);
        let mut params = model.zero_params();
        let idx: Vec<usize> = (0..128).collect();
        let initial = model.loss_mean(&params, &data, &idx);
        for _ in 0..300 {
            let mut g = model.gradient_sum(&params, &data, &idx);
            g.scale(1.0 / 128.0);
            params.axpy(-0.1, &g);
        }
        let final_loss = model.loss_mean(&params, &data, &idx);
        assert!(final_loss < 1e-3, "initial={initial}, final={final_loss}");
    }

    #[test]
    fn softmax_learns_separable_classes() {
        // Separation 8.0 keeps the classes cleanly separable for any
        // reasonable RNG stream (6.0 left a handful of overlapping points
        // under some seeds).
        let data = Dataset::gaussian_classification(150, 4, 3, 8.0, 8);
        let model = SoftmaxRegression::new(4, 3);
        let mut params = model.zero_params();
        let idx: Vec<usize> = (0..150).collect();
        for _ in 0..200 {
            let mut g = model.gradient_sum(&params, &data, &idx);
            g.scale(1.0 / 150.0);
            params.axpy(-0.5, &g);
        }
        let correct = idx
            .iter()
            .filter(|&&i| {
                model.predict_class(&params, data.features_of(i)) == data.target_of(i) as usize
            })
            .count();
        assert!(correct >= 140, "accuracy {correct}/150");
    }

    #[test]
    fn mlp_learns_nonlinear_boundary() {
        // XOR-like data: class = sign(x0 * x1), unlearnable by a linear model.
        let mut rng = StdRng::seed_from_u64(21);
        let x = isgc_linalg::Matrix::random_normal(200, 2, 0.0, 1.0, &mut rng);
        let y = Vector::from_fn(200, |i| f64::from(x[(i, 0)] * x[(i, 1)] > 0.0));
        let data = Dataset::new(x, y, 2);
        let model = Mlp::new(2, 16, 2);
        let mut params = model.init_params(&mut rng);
        let idx: Vec<usize> = (0..200).collect();
        for _ in 0..800 {
            let mut g = model.gradient_sum(&params, &data, &idx);
            g.scale(1.0 / 200.0);
            params.axpy(-0.5, &g);
        }
        let correct = idx
            .iter()
            .filter(|&&i| {
                model.predict_class(&params, data.features_of(i)) == data.target_of(i) as usize
            })
            .count();
        assert!(correct >= 180, "accuracy {correct}/200");
    }

    #[test]
    fn param_dims() {
        assert_eq!(LinearRegression::new(5).param_dim(), 6);
        assert_eq!(LogisticRegression::new(5).param_dim(), 6);
        assert_eq!(SoftmaxRegression::new(5, 3).param_dim(), 18);
        assert_eq!(Mlp::new(4, 8, 3).param_dim(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    /// The allocating per-sample reference for softmax regression: a fresh
    /// `logits`/`probabilities` vector per sample, summed in index order.
    fn softmax_reference(
        model: &SoftmaxRegression,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) -> f64 {
        let p = model.features;
        for &i in indices {
            let x = data.features_of(i);
            let probs = model.probabilities(params, x);
            let y = data.target_of(i) as usize;
            let os = out.as_mut_slice();
            for (c, &pc) in probs.iter().enumerate() {
                let e = pc - f64::from(c == y);
                kernels::axpy(&mut os[c * p..(c + 1) * p], e, x);
                os[model.classes * p + c] += e;
            }
        }
        let total: f64 = indices
            .iter()
            .map(|&i| {
                let z = model.logits(params, data.features_of(i));
                log_sum_exp(&z) - z[data.target_of(i) as usize]
            })
            .sum();
        total / indices.len() as f64
    }

    /// The allocating per-sample reference for the MLP: a fresh `forward`
    /// pair of vectors per sample, summed in index order.
    fn mlp_reference(
        model: &Mlp,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) -> f64 {
        let ps = params.as_slice();
        for &i in indices {
            let x = data.features_of(i);
            let (a, mut probs) = model.forward(params, x);
            softmax_in_place(&mut probs);
            let y = data.target_of(i) as usize;
            let mut delta_hidden = vec![0.0; model.hidden];
            let os = out.as_mut_slice();
            for (c, &pc) in probs.iter().enumerate() {
                let dz = pc - f64::from(c == y);
                let row = model.w2_offset() + c * model.hidden;
                kernels::axpy(&mut os[row..][..model.hidden], dz, &a);
                kernels::axpy(&mut delta_hidden, dz, &ps[row..][..model.hidden]);
                os[model.b2_offset() + c] += dz;
            }
            for (h, &dh) in delta_hidden.iter().enumerate() {
                let da = dh * (1.0 - a[h] * a[h]);
                let row = model.w1_offset() + h * model.features;
                kernels::axpy(&mut os[row..][..model.features], da, x);
                os[model.b1_offset() + h] += da;
            }
        }
        let total: f64 = indices
            .iter()
            .map(|&i| {
                let (_, z) = model.forward(params, data.features_of(i));
                log_sum_exp(&z) - z[data.target_of(i) as usize]
            })
            .sum();
        total / indices.len() as f64
    }

    /// Runs `model`'s loss and (pre-loaded) gradient against `reference`
    /// and demands identical bits.
    fn assert_bit_equal<M: Model>(
        model: &M,
        reference: impl Fn(&M, &Vector, &Dataset, &[usize], &mut Vector) -> f64,
        data: &Dataset,
        indices: &[usize],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = Vector::random_normal(model.param_dim(), 0.0, 2.0, &mut rng);
        let preload = Vector::random_normal(model.param_dim(), 0.0, 1.0, &mut rng);
        let (mut got, mut want) = (preload.clone(), preload);
        model.gradient_sum_into(&params, data, indices, &mut got);
        let want_loss = reference(model, &params, data, indices, &mut want);
        let got_loss = model.loss_mean(&params, data, indices);
        prop_assert_eq!(got_loss.to_bits(), want_loss.to_bits());
        for (d, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "gradient entry {}", d);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The scratch-buffer loss and gradient paths are bit-for-bit the
        /// per-sample formulas they replaced, in every shape and for any
        /// index multiset (repeats and arbitrary order included).
        #[test]
        fn scratch_paths_match_per_sample_formulas_bitwise(
            features in 1usize..6,
            hidden in 1usize..9,
            classes in 2usize..5,
            indices in prop::collection::vec(0usize..24, 1..40),
            seed in 0u64..1 << 48,
        ) {
            let data = Dataset::gaussian_classification(24, features, classes, 2.0, seed);
            let softmax = SoftmaxRegression::new(features, classes);
            assert_bit_equal(&softmax, softmax_reference, &data, &indices, seed)?;
            let mlp = Mlp::new(features, hidden, classes);
            assert_bit_equal(&mlp, mlp_reference, &data, &indices, seed)?;
        }
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let sm = SoftmaxRegression::new(3, 4);
        let params = sm.init_params(&mut rng);
        let probs = sm.probabilities(&params, &[0.5, -1.0, 2.0]);
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let mlp = Mlp::new(3, 4, 2);
        let params = mlp.init_params(&mut rng);
        let probs = mlp.probabilities(&params, &[0.5, -1.0, 2.0]);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let lr = LogisticRegression::new(2);
        let p = lr.probability(&lr.zero_params(), &[1.0, 1.0]);
        assert_eq!(p, 0.5);
        assert_eq!(lr.predict_class(&lr.zero_params(), &[1.0, 1.0]), 1);
    }
}
