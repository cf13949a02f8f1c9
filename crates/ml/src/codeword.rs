//! The IS-GC worker's codeword: the plain sum of its assigned partitions'
//! mini-batch gradient sums (the all-ones encoding of paper §III).
//!
//! Every backend that computes a codeword — the TCP worker, the swarm, the
//! chaos client, the model checker's modeled workers and the in-process
//! scheduler backend — goes through [`CodewordContext::codeword`], so they
//! all produce the same bits for the same `(partitions, step, params)`.

use isgc_linalg::Vector;

use crate::dataset::{Dataset, Partitioned};
use crate::model::Model;

/// The model, the full dataset and its `n`-way partitioning that codewords
/// are computed from, plus one reusable gradient buffer.
///
/// One context may serve any number of workers in turn (a swarm serves all
/// of its members from one), since the buffer holds nothing between calls.
pub struct CodewordContext<M> {
    model: M,
    dataset: Dataset,
    partitioned: Partitioned,
    scratch: Vector,
}

impl<M: Model> CodewordContext<M> {
    /// A context over `dataset` split into `n` partitions, exactly as every
    /// peer splits it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the dataset size (see
    /// [`Dataset::partition`]).
    pub fn new(model: M, dataset: Dataset, n: usize) -> Self {
        let partitioned = dataset.partition(n);
        let scratch = model.zero_params();
        CodewordContext {
            model,
            dataset,
            partitioned,
            scratch,
        }
    }

    /// The codeword for `partitions` at `step`: starting from
    /// `zero_params()`, each partition's deterministic mini-batch gradient
    /// sum is added in list order.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong dimension, a partition is out of
    /// range, or `batch_size` is zero.
    pub fn codeword(
        &mut self,
        partitions: &[usize],
        batch_size: usize,
        seed: u64,
        step: u64,
        params: &Vector,
    ) -> Vector {
        let mut codeword = self.model.zero_params();
        for &p in partitions {
            let batch = self.partitioned.minibatch(p, batch_size, step, seed);
            self.scratch.fill_zero();
            self.model
                .gradient_sum_into(params, &self.dataset, &batch, &mut self.scratch);
            codeword.axpy(1.0, &self.scratch);
        }
        codeword
    }
}
