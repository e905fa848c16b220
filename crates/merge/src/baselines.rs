//! Baseline merging methods the paper compares against.
//!
//! * [`ModelSoup`] — uniform weight averaging (Wortsman et al., 2022).
//! * [`TaskArithmetic`] — averaged task vectors added back to the base
//!   model (Ilharco et al., 2022).
//! * [`Ties`] — TIES-merging: trim each task vector to its top-magnitude
//!   entries, elect a per-coordinate sign, then disjoint-mean the agreeing
//!   entries (Yadav et al., 2023).
//! * [`Della`] — DELLA-merging: adaptive magnitude-based stochastic dropping
//!   (MAGPRUNE) with rescaling, followed by TIES-style sign election and
//!   fusion (Deep et al., 2024).
//!
//! The task-vector methods need the common *base* model the specialists were
//! finetuned from; it is supplied at construction time so that every method
//! exposes the same pairwise [`Merger`] interface used by the experiment
//! pipeline.
//!
//! Every `merge_many` here is one per-tensor rule over one driver,
//! `merge_tensors`, which checks conformability, walks the tensors in
//! canonical name order and writes each result into a clone of the first
//! model. The task-vector rules come in two shapes: *summed*
//! (`base + per_task · Σ_t keep(W_t − base)`, TA and DARE) and *elected*
//! (`base + scale · elect(sparsify(W_t − base))`, TIES and DELLA). Tensors
//! run sequentially. The stochastic methods would stay deterministic under
//! any fan-out because each (tensor, task) pair derives its own RNG stream
//! from the seed — no RNG state is shared across tensors.

use chipalign_model::Checkpoint;
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

use crate::{check_conformable, MergeError, Merger};

/// Uniform weight averaging ("Model Soup").
///
/// # Example
///
/// ```
/// use chipalign_merge::{ModelSoup, Merger};
/// use chipalign_model::{ArchSpec, Checkpoint};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_merge::MergeError> {
/// let arch = ArchSpec::tiny("demo");
/// let a = Checkpoint::random(&arch, &mut Pcg32::seed(1));
/// let b = Checkpoint::random(&arch, &mut Pcg32::seed(2));
/// let soup = ModelSoup::new().merge_pair(&a, &b)?;
/// assert!(soup.all_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelSoup {
    _private: (),
}

impl ModelSoup {
    /// Creates the uniform-averaging merger.
    #[must_use]
    pub fn new() -> Self {
        ModelSoup { _private: () }
    }

    /// Averages an arbitrary set of conformable checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::NotEnoughModels`] for fewer than two models and
    /// [`MergeError::NotConformable`] if any pair differs in shape.
    pub fn merge_many(&self, models: &[&Checkpoint]) -> Result<Checkpoint, MergeError> {
        let (first, rest) = match models {
            [first, rest @ ..] if !rest.is_empty() => (*first, rest),
            _ => {
                return Err(MergeError::NotEnoughModels {
                    given: models.len(),
                    required: 2,
                })
            }
        };
        let weight = 1.0 / models.len() as f32;
        merge_tensors(self.name(), first, rest, |_, own, others| {
            let mut acc = own.scale(weight);
            for other in others {
                acc.axpy(weight, other)?;
            }
            Ok(acc)
        })
    }
}

/// Task arithmetic: `W = base + scale · Σ_t (W_t − base)`.
///
/// The paper's OpenROAD setting finetunes the EDA model *from* the
/// instruction model, so the instruction model doubles as the base; the
/// implementation is general and accepts any conformable base.
#[derive(Debug, Clone)]
pub struct TaskArithmetic {
    base: Checkpoint,
    scale: f32,
}

impl TaskArithmetic {
    /// Creates the merger with the given base model and task-vector scale.
    ///
    /// The usual recommendation (and the paper's baseline configuration) is
    /// a scale in `(0, 1]`; `scale = 0.5` with two tasks averages them.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::BadHyperparameter`] for a non-finite or
    /// non-positive scale.
    pub fn new(base: Checkpoint, scale: f32) -> Result<Self, MergeError> {
        check_scale(scale)?;
        Ok(TaskArithmetic { base, scale })
    }

    /// Merges any number of task models into the base.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::NotEnoughModels`] for an empty task list and
    /// [`MergeError::NotConformable`] on shape mismatch with the base.
    pub fn merge_many(&self, tasks: &[&Checkpoint]) -> Result<Checkpoint, MergeError> {
        let per_task = self.scale / tasks.len() as f32;
        merge_tensors(self.name(), &self.base, tasks, |_, base, tasks| {
            summed(base, tasks, per_task, |_, delta| delta)
        })
    }
}

/// TIES-merging: TrIm, Elect Sign, and disjoint mErge.
#[derive(Debug, Clone)]
pub struct Ties {
    base: Checkpoint,
    /// Fraction of task-vector entries kept per tensor (top magnitude).
    density: f32,
    scale: f32,
}

impl Ties {
    /// Creates the merger with the publication defaults of `density = 0.2`
    /// and `scale = 1.0` applied unless overridden.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::BadHyperparameter`] unless
    /// `density ∈ (0, 1]` and `scale` is finite and positive.
    pub fn new(base: Checkpoint, density: f32, scale: f32) -> Result<Self, MergeError> {
        require("density", density, density > 0.0 && density <= 1.0)?;
        check_scale(scale)?;
        Ok(Ties {
            base,
            density,
            scale,
        })
    }

    /// Creates the merger with the paper's recommended hyperparameters.
    ///
    /// # Errors
    ///
    /// Never fails in practice; present for API uniformity.
    pub fn recommended(base: Checkpoint) -> Result<Self, MergeError> {
        Ties::new(base, 0.2, 1.0)
    }

    /// Merges any number of task models into the base.
    ///
    /// # Errors
    ///
    /// Same contract as [`TaskArithmetic::merge_many`].
    pub fn merge_many(&self, tasks: &[&Checkpoint]) -> Result<Checkpoint, MergeError> {
        merge_tensors(self.name(), &self.base, tasks, |_, base, tasks| {
            elected(base, tasks, self.scale, |_, delta| {
                trim_to_density(delta, self.density)
            })
        })
    }
}

/// DELLA-merging: magnitude-adaptive stochastic dropping (MAGPRUNE) with
/// rescaling, followed by TIES-style sign election and fusion.
#[derive(Debug, Clone)]
pub struct Della {
    base: Checkpoint,
    /// Mean drop probability `p`.
    drop_rate: f32,
    /// Width of the magnitude-adaptive probability window `ε`; entry `i`
    /// with magnitude rank `r_i ∈ [0, 1]` (0 = largest) is dropped with
    /// probability `p − ε/2 + ε·r_i`.
    window: f32,
    scale: f32,
    seed: u64,
}

impl Della {
    /// Creates the merger.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::BadHyperparameter`] unless `drop_rate ∈ [0, 1)`,
    /// the probability window stays inside `[0, 1)`, and `scale > 0`.
    pub fn new(
        base: Checkpoint,
        drop_rate: f32,
        window: f32,
        scale: f32,
        seed: u64,
    ) -> Result<Self, MergeError> {
        check_drop_rate(drop_rate)?;
        let (lo, hi) = (drop_rate - window / 2.0, drop_rate + window / 2.0);
        require("window", window, window >= 0.0 && lo >= 0.0 && hi < 1.0)?;
        check_scale(scale)?;
        Ok(Della {
            base,
            drop_rate,
            window,
            scale,
            seed,
        })
    }

    /// Creates the merger with the publication-recommended defaults
    /// (`p = 0.7`, `ε = 0.2`, `scale = 1.0`).
    ///
    /// # Errors
    ///
    /// Never fails in practice; present for API uniformity.
    pub fn recommended(base: Checkpoint, seed: u64) -> Result<Self, MergeError> {
        Della::new(base, 0.7, 0.2, 1.0, seed)
    }

    /// Merges any number of task models into the base.
    ///
    /// # Errors
    ///
    /// Same contract as [`TaskArithmetic::merge_many`].
    pub fn merge_many(&self, tasks: &[&Checkpoint]) -> Result<Checkpoint, MergeError> {
        let root = Pcg32::seed(self.seed);
        merge_tensors(self.name(), &self.base, tasks, |tensor_idx, base, tasks| {
            elected(base, tasks, self.scale, |task_idx, delta| {
                let mut rng = root.derive((tensor_idx as u64) << 16 | task_idx as u64);
                self.magprune(delta, &mut rng)
            })
        })
    }

    /// Magnitude-adaptive stochastic pruning of one flattened task vector.
    fn magprune(&self, values: &[f32], rng: &mut Pcg32) -> Vec<f32> {
        let n = values.len();
        if n == 0 {
            return Vec::new();
        }
        // Rank entries by magnitude (0 = largest magnitude).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[b].abs().total_cmp(&values[a].abs()));
        let mut rank = vec![0usize; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let denom = (n.max(2) - 1) as f32;
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let rel = rank[i] as f32 / denom;
                let p = self.drop_rate - self.window / 2.0 + self.window * rel;
                if rng.chance(p) {
                    0.0
                } else {
                    // Inverse-probability rescale keeps the expectation.
                    v / (1.0 - p)
                }
            })
            .collect()
    }
}

/// DARE ("Drop And REscale", Yu et al., 2024 — the paper's reference on
/// absorbing abilities from homologous models): uniformly drop a fraction
/// `p` of each task vector's entries, rescale the survivors by
/// `1 / (1 − p)`, then add the averaged sparse task vectors back to the
/// base. Unlike [`Della`], the drop probability is magnitude-agnostic and
/// there is no sign election.
#[derive(Debug, Clone)]
pub struct Dare {
    base: Checkpoint,
    drop_rate: f32,
    scale: f32,
    seed: u64,
}

impl Dare {
    /// Creates the merger.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::BadHyperparameter`] unless `drop_rate ∈ [0, 1)`
    /// and `scale > 0`.
    pub fn new(
        base: Checkpoint,
        drop_rate: f32,
        scale: f32,
        seed: u64,
    ) -> Result<Self, MergeError> {
        check_drop_rate(drop_rate)?;
        check_scale(scale)?;
        Ok(Dare {
            base,
            drop_rate,
            scale,
            seed,
        })
    }

    /// Creates the merger with the publication default of `p = 0.9`.
    ///
    /// # Errors
    ///
    /// Never fails in practice; present for API uniformity.
    pub fn recommended(base: Checkpoint, seed: u64) -> Result<Self, MergeError> {
        Dare::new(base, 0.9, 1.0, seed)
    }

    /// Merges any number of task models into the base.
    ///
    /// # Errors
    ///
    /// Same contract as [`TaskArithmetic::merge_many`].
    pub fn merge_many(&self, tasks: &[&Checkpoint]) -> Result<Checkpoint, MergeError> {
        let root = Pcg32::seed(self.seed);
        let keep_scale = 1.0 / (1.0 - self.drop_rate);
        let per_task = self.scale / tasks.len() as f32;
        merge_tensors(self.name(), &self.base, tasks, |tensor_idx, base, tasks| {
            summed(base, tasks, per_task, |task_idx, mut delta| {
                let mut rng = root.derive((tensor_idx as u64) << 20 | task_idx as u64);
                for v in delta.data_mut() {
                    if rng.chance(self.drop_rate) {
                        *v = 0.0;
                    } else {
                        *v *= keep_scale;
                    }
                }
                delta
            })
        })
    }
}

/// Each baseline's pairwise form is its `merge_many` of the two models,
/// and its name is the `merge.method` metadata it writes.
macro_rules! pairwise_merger {
    ($($method:ty => $name:literal),* $(,)?) => {$(
        impl Merger for $method {
            fn name(&self) -> &'static str {
                $name
            }

            fn merge_pair(
                &self,
                chip: &Checkpoint,
                instruct: &Checkpoint,
            ) -> Result<Checkpoint, MergeError> {
                self.merge_many(&[chip, instruct])
            }
        }
    )*};
}

pairwise_merger! {
    ModelSoup => "ModelSoup",
    TaskArithmetic => "TA",
    Ties => "TIES",
    Della => "DELLA",
    Dare => "DARE",
}

/// The one merge skeleton: `rule(tensor_idx, first's tensor, the others'
/// tensors)` gives each merged tensor, visited in canonical name order and
/// written into a clone of `first`, which is then tagged with
/// `merge.method = method`.
///
/// # Errors
///
/// Returns [`MergeError::NotEnoughModels`] for no `others`,
/// [`MergeError::NotConformable`] if any of them differs from `first` in
/// names or shapes, and whatever `rule` returns.
fn merge_tensors(
    method: &str,
    first: &Checkpoint,
    others: &[&Checkpoint],
    rule: impl Fn(usize, &Matrix, &[&Matrix]) -> Result<Matrix, MergeError>,
) -> Result<Checkpoint, MergeError> {
    if others.is_empty() {
        return Err(MergeError::NotEnoughModels {
            given: 0,
            required: 1,
        });
    }
    for other in others {
        check_conformable(first, other)?;
    }
    let mut out = first.clone();
    for (tensor_idx, (name, own)) in first.iter().enumerate() {
        let theirs: Vec<&Matrix> = others
            .iter()
            .map(|other| other.get(name).expect("conformable"))
            .collect();
        let merged = rule(tensor_idx, own, &theirs)?;
        out.insert(name, merged)
            .expect("a rule keeps its tensor's shape");
    }
    out.set_metadata("merge.method", method);
    Ok(out)
}

/// `base + per_task · Σ_t keep(t, W_t − base)`, summed in task order (TA
/// and DARE).
fn summed(
    base: &Matrix,
    tasks: &[&Matrix],
    per_task: f32,
    keep: impl Fn(usize, Matrix) -> Matrix,
) -> Result<Matrix, MergeError> {
    let mut acc = base.clone();
    for (task_idx, task) in tasks.iter().enumerate() {
        acc.axpy(per_task, &keep(task_idx, task.sub(base)?))?;
    }
    Ok(acc)
}

/// `base + scale · elect(sparsify(t, W_t − base))` (TIES and DELLA).
fn elected(
    base: &Matrix,
    tasks: &[&Matrix],
    scale: f32,
    sparsify: impl Fn(usize, &[f32]) -> Vec<f32>,
) -> Result<Matrix, MergeError> {
    let sparse: Vec<Vec<f32>> = tasks
        .iter()
        .enumerate()
        .map(|(task_idx, task)| Ok(sparsify(task_idx, task.sub(base)?.data())))
        .collect::<Result<_, MergeError>>()?;
    let fused = Matrix::from_vec(base.rows(), base.cols(), elect_and_merge(&sparse))?;
    let mut acc = base.clone();
    acc.axpy(scale, &fused)?;
    Ok(acc)
}

/// `Ok` when `valid`, else [`MergeError::BadHyperparameter`] naming
/// `value`.
fn require(name: &'static str, value: f32, valid: bool) -> Result<(), MergeError> {
    if valid {
        Ok(())
    } else {
        Err(MergeError::BadHyperparameter {
            name,
            value: f64::from(value),
        })
    }
}

/// A task-vector scale must be finite and positive.
fn check_scale(scale: f32) -> Result<(), MergeError> {
    require("scale", scale, scale.is_finite() && scale > 0.0)
}

/// A drop probability must lie in `[0, 1)`.
fn check_drop_rate(drop_rate: f32) -> Result<(), MergeError> {
    require("drop_rate", drop_rate, (0.0..1.0).contains(&drop_rate))
}

/// Zeroes all but the top-`density` fraction of entries by magnitude; among
/// equal magnitudes the lower index survives.
///
/// Only the cut matters, so one selection (linear on average) finds it
/// instead of a sort. Ranking by (|v| descending, index ascending) is a
/// total order, so the survivors are exactly the first `keep` of a stable
/// sort by magnitude.
fn trim_to_density(values: &[f32], density: f32) -> Vec<f32> {
    let n = values.len();
    let keep = ((n as f32 * density).ceil() as usize).clamp(usize::from(n > 0), n);
    if keep == n {
        return values.to_vec();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.select_nth_unstable_by(keep - 1, |&a, &b| {
        values[b].abs().total_cmp(&values[a].abs()).then(a.cmp(&b))
    });
    let mut out = vec![0.0f32; n];
    for &i in &order[..keep] {
        out[i] = values[i];
    }
    out
}

/// TIES sign election and disjoint mean across task vectors.
///
/// For each coordinate, the elected sign is the sign of the summed values;
/// the merged value is the mean of the entries that agree with the elected
/// sign (zero entries never vote).
fn elect_and_merge(tasks: &[Vec<f32>]) -> Vec<f32> {
    let n = tasks.first().map_or(0, Vec::len);
    let mut out = vec![0.0f32; n];
    for j in 0..n {
        let total: f32 = tasks.iter().map(|t| t[j]).sum();
        if total == 0.0 {
            continue;
        }
        let sign = total.signum();
        let mut sum = 0.0f32;
        let mut count = 0usize;
        for t in tasks {
            let v = t[j];
            if v != 0.0 && v.signum() == sign {
                sum += v;
                count += 1;
            }
        }
        if count > 0 {
            out[j] = sum / count as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;

    fn trio() -> (Checkpoint, Checkpoint, Checkpoint) {
        let arch = ArchSpec::tiny("base");
        let base = Checkpoint::random(&arch, &mut Pcg32::seed(100));
        let chip = Checkpoint::random(&arch, &mut Pcg32::seed(200));
        let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(300));
        (base, chip, instruct)
    }

    #[test]
    fn soup_is_elementwise_mean() {
        let (_, a, b) = trio();
        let soup = ModelSoup::new().merge_pair(&a, &b).expect("ok");
        let expected =
            a.map_tensors(|name, t| t.lerp(b.get(name).expect("conformable"), 0.5).expect("ok"));
        assert!(soup.approx_eq(&expected, 1e-5));
    }

    #[test]
    fn soup_of_three_models() {
        let (c, a, b) = trio();
        let soup = ModelSoup::new().merge_many(&[&a, &b, &c]).expect("ok");
        let first = soup.get("lm_head.weight").expect("present");
        let manual = a
            .get("lm_head.weight")
            .expect("present")
            .add(b.get("lm_head.weight").expect("present"))
            .expect("ok")
            .add(c.get("lm_head.weight").expect("present"))
            .expect("ok")
            .scale(1.0 / 3.0);
        assert!(first.approx_eq(&manual, 1e-5));
    }

    #[test]
    fn soup_requires_two_models() {
        let (_, a, _) = trio();
        assert!(matches!(
            ModelSoup::new().merge_many(&[&a]),
            Err(MergeError::NotEnoughModels { .. })
        ));
    }

    #[test]
    fn ta_with_identical_base_returns_tasks_average() {
        let (base, chip, _) = trio();
        // Single task, scale 1: base + (chip - base) = chip.
        let ta = TaskArithmetic::new(base.clone(), 1.0).expect("ok");
        let merged = ta.merge_many(&[&chip]).expect("ok");
        assert!(merged.approx_eq(&chip, 1e-5));
    }

    #[test]
    fn ta_pair_averages_task_vectors() {
        let (base, chip, instruct) = trio();
        let ta = TaskArithmetic::new(base.clone(), 1.0).expect("ok");
        let merged = ta.merge_pair(&chip, &instruct).expect("ok");
        // base + 0.5*((chip-base)+(instruct-base)) == soup of chip/instruct.
        let soup = ModelSoup::new().merge_pair(&chip, &instruct).expect("ok");
        assert!(merged.approx_eq(&soup, 1e-4));
    }

    #[test]
    fn ta_rejects_bad_scale() {
        let (base, _, _) = trio();
        assert!(TaskArithmetic::new(base.clone(), 0.0).is_err());
        assert!(TaskArithmetic::new(base, f32::NAN).is_err());
    }

    #[test]
    fn trim_keeps_top_fraction() {
        let values = vec![0.1, -5.0, 0.2, 3.0, -0.05];
        let trimmed = trim_to_density(&values, 0.4);
        assert_eq!(trimmed, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn trim_density_one_is_identity() {
        let values = vec![1.0, -2.0, 0.5];
        assert_eq!(trim_to_density(&values, 1.0), values);
    }

    #[test]
    fn trim_selection_matches_a_stable_sort_bit_for_bit() {
        // The former implementation: a stable sort by magnitude, keep the
        // first `keep`.
        fn sorted_trim(values: &[f32], density: f32) -> Vec<f32> {
            let n = values.len();
            let keep = ((n as f32 * density).ceil() as usize).clamp(usize::from(n > 0), n);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| values[b].abs().total_cmp(&values[a].abs()));
            let mut out = vec![0.0f32; n];
            for &i in &order[..keep] {
                out[i] = values[i];
            }
            out
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mut rng in chipalign_tensor::rng::cases(5, 64) {
            let n = rng.below(300);
            // Few distinct magnitudes, both signs and ±0: ties everywhere.
            let levels = 1 + rng.below(6);
            let values: Vec<f32> = (0..n)
                .map(|_| {
                    let magnitude = rng.below(levels) as f32 * 0.25;
                    if rng.chance(0.5) {
                        -magnitude
                    } else {
                        magnitude
                    }
                })
                .collect();
            for density in [0.01, 0.2, 0.5, 0.9, 1.0] {
                assert_eq!(
                    bits(&trim_to_density(&values, density)),
                    bits(&sorted_trim(&values, density)),
                    "n {n}, density {density}"
                );
            }
        }
    }

    #[test]
    fn trim_keeps_at_least_one() {
        let values = vec![1.0, 2.0];
        let trimmed = trim_to_density(&values, 0.01);
        assert_eq!(trimmed.iter().filter(|v| **v != 0.0).count(), 1);
    }

    #[test]
    fn elect_and_merge_resolves_conflicts() {
        // Coordinate 0: agreement (both positive) -> mean.
        // Coordinate 1: conflict, sum negative -> only the -3 survives.
        // Coordinate 2: exact cancellation -> zero.
        let tasks = vec![vec![2.0, 1.0, 1.0], vec![4.0, -3.0, -1.0]];
        let merged = elect_and_merge(&tasks);
        assert_eq!(merged, vec![3.0, -3.0, 0.0]);
    }

    #[test]
    fn ties_endpoints_sane() {
        let (base, chip, instruct) = trio();
        let ties = Ties::recommended(base.clone()).expect("ok");
        let merged = ties.merge_pair(&chip, &instruct).expect("ok");
        assert!(merged.all_finite());
        // TIES at density 1 with one task and no conflicts returns the task.
        let full = Ties::new(base.clone(), 1.0, 1.0).expect("ok");
        let merged_one = full.merge_many(&[&chip]).expect("ok");
        assert!(merged_one.approx_eq(&chip, 1e-5));
    }

    #[test]
    fn ties_sparsification_moves_less_than_ta() {
        let (base, chip, instruct) = trio();
        let ties = Ties::new(base.clone(), 0.2, 1.0).expect("ok");
        let ta = TaskArithmetic::new(base.clone(), 1.0).expect("ok");
        let m_ties = ties.merge_pair(&chip, &instruct).expect("ok");
        let m_ta = ta.merge_pair(&chip, &instruct).expect("ok");
        // Distance moved from base: the trimmed update must be no bigger.
        let dist = |m: &Checkpoint| -> f64 {
            m.iter()
                .map(|(n, t)| {
                    let d = t.sub(base.get(n).expect("conformable")).expect("ok");
                    f64::from(d.frobenius_norm()).powi(2)
                })
                .sum::<f64>()
                .sqrt()
        };
        assert!(dist(&m_ties) <= dist(&m_ta) * 1.5);
    }

    #[test]
    fn ties_rejects_bad_density() {
        let (base, _, _) = trio();
        assert!(Ties::new(base.clone(), 0.0, 1.0).is_err());
        assert!(Ties::new(base.clone(), 1.5, 1.0).is_err());
        assert!(Ties::new(base, 0.5, -1.0).is_err());
    }

    #[test]
    fn della_is_deterministic_per_seed() {
        let (base, chip, instruct) = trio();
        let d1 = Della::recommended(base.clone(), 42).expect("ok");
        let d2 = Della::recommended(base.clone(), 42).expect("ok");
        let m1 = d1.merge_pair(&chip, &instruct).expect("ok");
        let m2 = d2.merge_pair(&chip, &instruct).expect("ok");
        assert!(m1.approx_eq(&m2, 0.0));
        let d3 = Della::recommended(base, 43).expect("ok");
        let m3 = d3.merge_pair(&chip, &instruct).expect("ok");
        assert!(!m1.approx_eq(&m3, 1e-6), "different seed, different drops");
    }

    #[test]
    fn della_zero_drop_equals_ties_density_one() {
        let (base, chip, instruct) = trio();
        let della = Della::new(base.clone(), 0.0, 0.0, 1.0, 7).expect("ok");
        let ties = Ties::new(base, 1.0, 1.0).expect("ok");
        let md = della.merge_pair(&chip, &instruct).expect("ok");
        let mt = ties.merge_pair(&chip, &instruct).expect("ok");
        assert!(md.approx_eq(&mt, 1e-5));
    }

    #[test]
    fn della_rejects_bad_probabilities() {
        let (base, _, _) = trio();
        assert!(Della::new(base.clone(), 1.0, 0.0, 1.0, 1).is_err());
        assert!(
            Della::new(base.clone(), 0.1, 0.5, 1.0, 1).is_err(),
            "window escapes [0,1)"
        );
        assert!(Della::new(base, 0.5, 0.2, 0.0, 1).is_err());
    }

    #[test]
    fn magprune_preserves_expectation_and_drop_rate() {
        let (base, _, _) = trio();
        let della = Della::new(base, 0.5, 0.2, 1.0, 11).expect("ok");
        let values: Vec<f32> = (1..=64).map(|i| (i as f32 - 32.5) / 10.0).collect();
        let trials = 400;
        let mut sums = vec![0.0f64; values.len()];
        let mut zeros = 0usize;
        for t in 0..trials {
            let mut rng = Pcg32::seed(1000 + t);
            let pruned = della.magprune(&values, &mut rng);
            zeros += pruned.iter().filter(|v| **v == 0.0).count();
            for (s, v) in sums.iter_mut().zip(&pruned) {
                *s += f64::from(*v);
            }
        }
        // Inverse-probability rescaling keeps each entry unbiased.
        for (i, s) in sums.iter().enumerate() {
            let mean = s / trials as f64;
            let expected = f64::from(values[i]);
            assert!(
                (mean - expected).abs() < 0.15 * expected.abs().max(0.5),
                "entry {i}: mean {mean} vs expected {expected}"
            );
        }
        // Average drop fraction matches the configured rate.
        let frac = zeros as f64 / (trials as usize * values.len()) as f64;
        assert!((frac - 0.5).abs() < 0.05, "drop fraction was {frac}");
    }

    #[test]
    fn dare_zero_drop_equals_task_arithmetic() {
        let (base, chip, instruct) = trio();
        let dare = Dare::new(base.clone(), 0.0, 1.0, 3).expect("ok");
        let ta = TaskArithmetic::new(base, 1.0).expect("ok");
        let md = dare.merge_pair(&chip, &instruct).expect("ok");
        let mt = ta.merge_pair(&chip, &instruct).expect("ok");
        assert!(md.approx_eq(&mt, 1e-5));
    }

    #[test]
    fn dare_is_deterministic_and_unbiased() {
        let (base, chip, instruct) = trio();
        let d1 = Dare::recommended(base.clone(), 9).expect("ok");
        let m1 = d1.merge_pair(&chip, &instruct).expect("ok");
        let m2 = d1.merge_pair(&chip, &instruct).expect("ok");
        assert!(m1.approx_eq(&m2, 0.0));
        assert!(m1.all_finite());
        // Averaged over many seeds, DARE's update approaches TA's (the
        // rescale keeps expectations).
        let ta = TaskArithmetic::new(base.clone(), 1.0).expect("ok");
        let target = ta.merge_pair(&chip, &instruct).expect("ok");
        let mut acc = base.map_tensors(|_, t| t.scale(0.0));
        let trials = 60;
        for seed in 0..trials {
            let d = Dare::new(base.clone(), 0.5, 1.0, seed).expect("ok");
            let m = d.merge_pair(&chip, &instruct).expect("ok");
            for (name, t) in m.iter() {
                acc.get_mut(name)
                    .expect("conformable")
                    .axpy(1.0 / trials as f32, t)
                    .expect("ok");
            }
        }
        // Compare distances from base rather than raw weights.
        let dist = |m: &Checkpoint| -> f64 {
            m.iter()
                .map(|(n, t)| {
                    let d = t.sub(base.get(n).expect("ok")).expect("ok");
                    f64::from(d.frobenius_norm()).powi(2)
                })
                .sum::<f64>()
                .sqrt()
        };
        let gap = (dist(&acc) - dist(&target)).abs() / dist(&target);
        assert!(gap < 0.1, "mean DARE update strayed {gap:.3} from TA");
    }

    #[test]
    fn dare_rejects_bad_hyperparameters() {
        let (base, _, _) = trio();
        assert!(Dare::new(base.clone(), 1.0, 1.0, 1).is_err());
        assert!(Dare::new(base.clone(), -0.1, 1.0, 1).is_err());
        assert!(Dare::new(base, 0.5, 0.0, 1).is_err());
    }

    #[test]
    fn baseline_names_match_paper_tables() {
        let (base, _, _) = trio();
        assert_eq!(ModelSoup::new().name(), "ModelSoup");
        assert_eq!(
            TaskArithmetic::new(base.clone(), 1.0).expect("ok").name(),
            "TA"
        );
        assert_eq!(Ties::recommended(base.clone()).expect("ok").name(), "TIES");
        assert_eq!(Della::recommended(base, 1).expect("ok").name(), "DELLA");
    }

    #[test]
    fn nonconformable_rejected_by_all() {
        let (base, chip, _) = trio();
        let mut small_arch = ArchSpec::tiny("small");
        small_arch.n_layers = 1;
        let other = Checkpoint::zeros(&small_arch);
        assert!(ModelSoup::new().merge_pair(&chip, &other).is_err());
        assert!(TaskArithmetic::new(base.clone(), 1.0)
            .expect("ok")
            .merge_pair(&chip, &other)
            .is_err());
        assert!(Ties::recommended(base.clone())
            .expect("ok")
            .merge_pair(&chip, &other)
            .is_err());
        assert!(Della::recommended(base, 1)
            .expect("ok")
            .merge_pair(&chip, &other)
            .is_err());
    }
}
