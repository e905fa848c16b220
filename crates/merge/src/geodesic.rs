//! The ChipAlign merge: geodesic interpolation on the weight manifold.

use std::collections::BTreeMap;

use chipalign_model::Checkpoint;
use chipalign_tensor::reduce::{self, Moments};
use chipalign_tensor::{parallelize, parallelize_with, Matrix};

use crate::report::{MergeReport, TensorGeometry};
use crate::{check_conformable, MergeError, Merger};

/// At what granularity the geodesic angle Θ is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One angle per weight matrix — the paper's formulation (each layer
    /// weight is its own point on its own unit n-sphere).
    #[default]
    PerTensor,
    /// A single angle for the whole flattened model. Exposed for the
    /// ablation called out in `DESIGN.md` §5.3.
    Global,
}

/// How the magnitude of the merged weight is restored after interpolating
/// on the unit sphere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormRestore {
    /// `Norm_chip^λ · Norm_instruct^(1−λ)` — the paper's weighted geometric
    /// mean.
    #[default]
    Geometric,
    /// `λ·Norm_chip + (1−λ)·Norm_instruct` — arithmetic-mean ablation.
    Arithmetic,
    /// Leave the unit-sphere weight as-is (no restoration). Ablation only;
    /// collapses every weight to unit Frobenius norm.
    None,
}

/// The ChipAlign merging method (Algorithm of §III-B).
///
/// For each weight pair `(W_chip, W_instruct)`:
///
/// 1. **Project**: `W̄ = W / ||W||_F` puts both weights on the unit
///    n-sphere.
/// 2. **Interpolate**: with `Θ = arccos⟨W̄_chip, W̄_instruct⟩`,
///    `W̄_merge = sin(λΘ)/sin(Θ)·W̄_chip + sin((1−λ)Θ)/sin(Θ)·W̄_instruct`.
/// 3. **Restore**: `W_merge = Norm_chip^λ · Norm_instruct^(1−λ) · W̄_merge`.
///
/// `λ = 1` returns the chip model exactly and `λ = 0` the instruction
/// model (both by copy); the paper recommends `λ = 0.6`.
///
/// The three steps depend on a pair only through `(‖W_chip‖², ‖W_instruct‖²,
/// ⟨W_chip, W_instruct⟩)`, so they fold into `W_merge = α·W_chip +
/// β·W_instruct`: one read sweep for the three moments, one write sweep for
/// the output, and no temporary matrix.
///
/// When `Θ` is numerically tiny (nearly parallel weights — common for norm
/// gains) the `sin` ratios degenerate, so the implementation falls back to
/// linear interpolation on the sphere, which is the analytic limit of the
/// SLERP formula as `Θ → 0`. The same fallback guards the antipodal case
/// `Θ → π`, where the geodesic is not unique.
///
/// # Example
///
/// ```
/// use chipalign_merge::{GeodesicMerge, Merger};
/// use chipalign_model::{ArchSpec, Checkpoint};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_merge::MergeError> {
/// let arch = ArchSpec::tiny("demo");
/// let chip = Checkpoint::random(&arch, &mut Pcg32::seed(1));
/// let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(2));
/// // λ = 1 must reproduce the chip model bit-for-bit up to f32 rounding.
/// let back = GeodesicMerge::new(1.0)?.merge_pair(&chip, &instruct)?;
/// assert!(back.approx_eq(&chip, 1e-5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeodesicMerge {
    lambda: f32,
    granularity: Granularity,
    norm_restore: NormRestore,
    /// Whether to project onto the unit sphere before interpolating. `false`
    /// gives the "raw SLERP" ablation (mergekit-style: SLERP coefficients
    /// applied to the unnormalised weights, no norm restoration).
    project: bool,
    small_angle_eps: f64,
}

impl GeodesicMerge {
    /// Creates the paper's merger with interpolation point `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::BadLambda`] unless `lambda ∈ [0, 1]` and is
    /// finite.
    pub fn new(lambda: f32) -> Result<Self, MergeError> {
        if !lambda.is_finite() || !(0.0..=1.0).contains(&lambda) {
            return Err(MergeError::BadLambda { lambda });
        }
        Ok(GeodesicMerge {
            lambda,
            granularity: Granularity::PerTensor,
            norm_restore: NormRestore::Geometric,
            project: true,
            // acos is ill-conditioned near cos = ±1: f32 inputs give ~1e-7
            // cosine error, i.e. ~5e-4 angle noise. Below this threshold the
            // SLERP coefficients and the LERP limit agree to ~1e-6, so the
            // fallback is exact for all practical purposes.
            small_angle_eps: 3e-3,
        })
    }

    /// The paper's recommended configuration (`λ = 0.6`).
    #[must_use]
    pub fn recommended() -> Self {
        GeodesicMerge::new(0.6).expect("0.6 is a valid lambda")
    }

    /// Raw-SLERP ablation: no unit-sphere projection and no norm
    /// restoration, as in generic SLERP merging tools.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::BadLambda`] unless `lambda ∈ [0, 1]`.
    pub fn raw_slerp(lambda: f32) -> Result<Self, MergeError> {
        let mut m = GeodesicMerge::new(lambda)?;
        m.project = false;
        m.norm_restore = NormRestore::None;
        Ok(m)
    }

    /// Sets the angle granularity (per-tensor vs whole-model).
    #[must_use]
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Sets the norm-restoration scheme.
    #[must_use]
    pub fn with_norm_restore(mut self, norm_restore: NormRestore) -> Self {
        self.norm_restore = norm_restore;
        self
    }

    /// Merges and also returns the per-tensor geometry report.
    ///
    /// Each tensor pair costs two sweeps: sweep 1 reads both weights once
    /// and returns their moments `(‖c‖², ‖i‖², ⟨c, i⟩)`
    /// ([`reduce::moments`]); Θ, the Lemma III.2 coefficients, the
    /// fallbacks and the norm restoration then fold into two scalars, and
    /// sweep 2 writes `α·c + β·i` into the tensor's only allocation
    /// ([`reduce::axpby_into`]). Tensors fan out over every core
    /// ([`parallelize`]); each is computed by one thread, so the result
    /// does not depend on the core count.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::NotConformable`] if the checkpoints differ in
    /// parameter names or shapes.
    pub fn merge_with_report(
        &self,
        chip: &Checkpoint,
        instruct: &Checkpoint,
    ) -> Result<(Checkpoint, MergeReport), MergeError> {
        self.merge_on(chip, instruct, None)
    }

    /// [`GeodesicMerge::merge_with_report`] on every core (`workers:
    /// None`), or on exactly that many threads for the tests that pin that
    /// the result does not depend on the count.
    fn merge_on(
        &self,
        chip: &Checkpoint,
        instruct: &Checkpoint,
        workers: Option<usize>,
    ) -> Result<(Checkpoint, MergeReport), MergeError> {
        check_conformable(chip, instruct)?;
        let pairs: Vec<(&str, &Matrix, &Matrix)> = chip
            .iter()
            .map(|(name, wc)| (name, wc, instruct.get(name).expect("conformable")))
            .collect();

        // One angle for the whole model needs every tensor's sweep 1 first;
        // sweep 2 then reuses those moments.
        let global = match self.granularity {
            Granularity::PerTensor => None,
            Granularity::Global => {
                let moments = fan_out(workers, pairs.clone(), |_, (_, wc, wi)| {
                    reduce::moments(wc.data(), wi.data())
                });
                let angle = global_angle(&moments);
                Some((moments, angle))
            }
        };

        // The memory plan: every output buffer is reserved here, on the
        // calling thread. A buffer a worker allocated would come from that
        // worker's malloc arena, and its space would not serve the next
        // checkpoint the caller loads or merges.
        let jobs: Vec<_> = pairs
            .into_iter()
            .map(|(name, wc, wi)| (name, wc, wi, Vec::with_capacity(wc.len())))
            .collect();
        let merged = fan_out(workers, jobs, |k, (name, wc, wi, out)| {
            let (moments, angle) = match &global {
                Some((moments, angle)) => (moments[k], Some(*angle)),
                None => (reduce::moments(wc.data(), wi.data()), None),
            };
            self.merge_tensor(name, wc, wi, moments, angle, out)
        });

        let mut tensors = BTreeMap::new();
        let mut geoms = Vec::with_capacity(merged.len());
        for (tensor, geom) in merged {
            tensors.insert(geom.name.clone(), tensor);
            geoms.push(geom);
        }
        let mut metadata = chip.metadata().clone();
        metadata.insert("merge.method".into(), self.name().into());
        metadata.insert("merge.lambda".into(), format!("{}", self.lambda));
        let merged_ckpt = Checkpoint::from_parts(chip.arch().clone(), tensors, metadata)?;
        let report = MergeReport {
            lambda: self.lambda,
            method: self.name(),
            tensors: geoms,
        };
        Ok((merged_ckpt, report))
    }

    /// Merges one tensor pair, given its sweep-1 moments, into `out` (empty,
    /// with capacity reserved) and records its geometry.
    fn merge_tensor(
        &self,
        name: &str,
        wc: &Matrix,
        wi: &Matrix,
        moments: Moments,
        global_angle: Option<f64>,
        mut out: Vec<f32>,
    ) -> (Matrix, TensorGeometry) {
        let fold = self.fold(&moments, global_angle);
        // λ ∈ {0, 1} are the inputs themselves, bit for bit (except under
        // the no-restore ablation, which leaves them on the unit sphere).
        let endpoint = if self.project && self.norm_restore == NormRestore::None {
            None
        } else if self.lambda == 1.0 {
            Some((wc, moments.aa))
        } else if self.lambda == 0.0 {
            Some((wi, moments.bb))
        } else {
            None
        };
        let merged_sq = match endpoint {
            Some((input, input_sq)) => {
                out.extend_from_slice(input.data());
                input_sq
            }
            None => reduce::axpby_into(&mut out, fold.alpha, wc.data(), fold.beta, wi.data()),
        };
        let merged = Matrix::from_vec(wc.rows(), wc.cols(), out).expect("one value per weight");
        let geom = TensorGeometry {
            name: name.to_string(),
            cosine: fold.cosine,
            theta: fold.theta,
            norm_chip: moments.aa.sqrt() as f32,
            norm_instruct: moments.bb.sqrt() as f32,
            norm_merged: merged_sq.sqrt() as f32,
            lerp_fallback: fold.fallback,
        };
        (merged, geom)
    }

    /// Everything between the two sweeps: Θ, the Lemma III.2 coefficients
    /// with their Θ→0 / Θ→π limits, the zero-norm fallback, the norm
    /// restoration and the raw-SLERP ablation, folded into the `α`, `β` of
    /// `merged = α·chip + β·instruct`.
    fn fold(&self, m: &Moments, global_angle: Option<f64>) -> Fold {
        let lambda = f64::from(self.lambda);
        let (norm_c, norm_i) = (m.aa.sqrt(), m.bb.sqrt());

        // Degenerate magnitudes: a zero-norm weight has no sphere projection.
        // Fall back to plain linear interpolation of the raw weights.
        if self.project && (norm_c == 0.0 || norm_i == 0.0) {
            return Fold {
                alpha: self.lambda,
                beta: 1.0 - self.lambda,
                cosine: 0.0,
                theta: 0.0,
                fallback: true,
            };
        }

        let denom = norm_c * norm_i;
        let cosine = if denom == 0.0 {
            1.0
        } else {
            (m.ab / denom).clamp(-1.0, 1.0)
        };
        let theta = global_angle.unwrap_or_else(|| cosine.acos());

        // Lemma III.2 coefficients, with the analytic Θ→0 / Θ→π limits.
        let near_degenerate =
            theta < self.small_angle_eps || theta > std::f64::consts::PI - self.small_angle_eps;
        let (coef_chip, coef_instruct) = if near_degenerate {
            (lambda, 1.0 - lambda)
        } else {
            let sin_theta = theta.sin();
            (
                (lambda * theta).sin() / sin_theta,
                ((1.0 - lambda) * theta).sin() / sin_theta,
            )
        };

        // Projection onto the unit sphere and the restored magnitude fold
        // into the coefficients: α = coef_chip · ρ / ‖chip‖, and so on.
        let (alpha, beta) = if self.project {
            let restore = match self.norm_restore {
                NormRestore::Geometric => norm_c.powf(lambda) * norm_i.powf(1.0 - lambda),
                NormRestore::Arithmetic => lambda * norm_c + (1.0 - lambda) * norm_i,
                NormRestore::None => 1.0,
            };
            (
                coef_chip * restore / norm_c,
                coef_instruct * restore / norm_i,
            )
        } else {
            (coef_chip, coef_instruct)
        };
        Fold {
            alpha: alpha as f32,
            beta: beta as f32,
            cosine,
            theta,
            fallback: near_degenerate,
        }
    }
}

/// One tensor's merge, reduced to two scalars and its reported geometry.
struct Fold {
    alpha: f32,
    beta: f32,
    cosine: f64,
    theta: f64,
    fallback: bool,
}

/// Whole-model angle from every tensor's moments: all tensors flattened
/// into one vector.
fn global_angle(moments: &[Moments]) -> f64 {
    let (mut dot, mut nc2, mut ni2) = (0.0f64, 0.0f64, 0.0f64);
    for m in moments {
        dot += m.ab;
        nc2 += m.aa;
        ni2 += m.bb;
    }
    let denom = nc2.sqrt() * ni2.sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0).acos()
    }
}

/// [`parallelize`] on every core, or [`parallelize_with`] a fixed worker
/// count in tests.
fn fan_out<I: Send, T: Send>(
    workers: Option<usize>,
    items: Vec<I>,
    work: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    match workers {
        None => parallelize(items, work),
        Some(n) => parallelize_with(n, items, work),
    }
}

impl Merger for GeodesicMerge {
    fn name(&self) -> &'static str {
        if self.project {
            "ChipAlign"
        } else {
            "RawSLERP"
        }
    }

    fn merge_pair(
        &self,
        chip: &Checkpoint,
        instruct: &Checkpoint,
    ) -> Result<Checkpoint, MergeError> {
        self.merge_with_report(chip, instruct).map(|(ckpt, _)| ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn pair() -> (Checkpoint, Checkpoint) {
        let arch = ArchSpec::tiny("geo");
        (
            Checkpoint::random(&arch, &mut Pcg32::seed(10)),
            Checkpoint::random(&arch, &mut Pcg32::seed(20)),
        )
    }

    #[test]
    fn lambda_validation() {
        assert!(GeodesicMerge::new(-0.1).is_err());
        assert!(GeodesicMerge::new(1.1).is_err());
        assert!(GeodesicMerge::new(f32::NAN).is_err());
        assert!(GeodesicMerge::new(0.0).is_ok());
        assert!(GeodesicMerge::new(1.0).is_ok());
    }

    #[test]
    fn endpoints_reproduce_inputs() {
        let (chip, instruct) = pair();
        let at_one = GeodesicMerge::new(1.0)
            .expect("valid")
            .merge_pair(&chip, &instruct)
            .expect("conformable");
        assert!(at_one.approx_eq(&chip, 1e-5));
        let at_zero = GeodesicMerge::new(0.0)
            .expect("valid")
            .merge_pair(&chip, &instruct)
            .expect("conformable");
        assert!(at_zero.approx_eq(&instruct, 1e-5));
    }

    #[test]
    fn endpoints_are_exact_copies_with_geometry_reported() {
        let (chip, instruct) = pair();
        for granularity in [Granularity::PerTensor, Granularity::Global] {
            let merge = |lambda| {
                GeodesicMerge::new(lambda)
                    .expect("valid")
                    .with_granularity(granularity)
                    .merge_with_report(&chip, &instruct)
                    .expect("conformable")
            };
            let (at_one, report) = merge(1.0);
            assert!(at_one.approx_eq(&chip, 0.0), "{granularity:?}");
            assert!(merge(0.0).0.approx_eq(&instruct, 0.0), "{granularity:?}");
            assert!(report.mean_angle() > 0.0, "geometry is still measured");
            for t in &report.tensors {
                assert_eq!(t.norm_merged, t.norm_chip, "{}", t.name);
            }
        }
    }

    #[test]
    fn merge_does_not_depend_on_the_worker_count() {
        let (chip, instruct) = pair();
        let arch = ArchSpec::tiny("geo");
        let fixtures = [
            ("random", chip.clone(), instruct),
            (
                "zero-norm",
                Checkpoint::zeros(&arch),
                Checkpoint::random(&arch, &mut Pcg32::seed(32)),
            ),
            (
                "antipodal",
                chip.clone(),
                chip.map_tensors(|_, t| t.scale(-1.0)),
            ),
        ];
        for (what, chip, instruct) in &fixtures {
            for granularity in [Granularity::PerTensor, Granularity::Global] {
                let merger = GeodesicMerge::new(0.6)
                    .expect("valid")
                    .with_granularity(granularity);
                // Bits, not values: the encoded checkpoint and every digit
                // of the report.
                let run = |workers| {
                    let (ckpt, report) = merger
                        .merge_on(chip, instruct, workers)
                        .expect("conformable");
                    (
                        chipalign_model::format::encode(&ckpt),
                        format!("{report:?}"),
                    )
                };
                let one = run(Some(1));
                for workers in [Some(2), Some(5), None] {
                    assert!(
                        run(workers) == one,
                        "{what}, {granularity:?}: {workers:?} workers differ from one"
                    );
                }
            }
        }
    }

    #[test]
    fn merging_model_with_itself_is_identity() {
        let (chip, _) = pair();
        let merged = GeodesicMerge::recommended()
            .merge_pair(&chip, &chip)
            .expect("conformable");
        assert!(merged.approx_eq(&chip, 1e-5));
    }

    #[test]
    fn merged_norm_is_geometric_mean_per_tensor() {
        let (chip, instruct) = pair();
        let lambda = 0.6f64;
        let (_, report) = GeodesicMerge::new(0.6)
            .expect("valid")
            .merge_with_report(&chip, &instruct)
            .expect("conformable");
        for t in &report.tensors {
            let expected =
                f64::from(t.norm_chip).powf(lambda) * f64::from(t.norm_instruct).powf(1.0 - lambda);
            assert!(
                (f64::from(t.norm_merged) - expected).abs() < 1e-3 * expected.max(1e-6),
                "norm restoration failed for {}: {} vs {}",
                t.name,
                t.norm_merged,
                expected
            );
        }
    }

    #[test]
    fn report_geometry_is_consistent() {
        let (chip, instruct) = pair();
        let (_, report) = GeodesicMerge::recommended()
            .merge_with_report(&chip, &instruct)
            .expect("conformable");
        assert_eq!(report.tensors.len(), chip.param_count());
        for t in &report.tensors {
            assert!((t.cosine.acos() - t.theta).abs() < 1e-9 || t.lerp_fallback);
            assert!((0.0..=std::f64::consts::PI).contains(&t.theta));
        }
        // Unit norm gains are identical in both random inits -> fallback.
        assert!(report.fallback_count() >= 5, "norm gains should fall back");
    }

    #[test]
    fn parallel_weights_use_lerp_fallback() {
        let arch = ArchSpec::tiny("geo");
        let chip = Checkpoint::random(&arch, &mut Pcg32::seed(30));
        // Scaling a model leaves every direction identical: Θ = 0 everywhere.
        let instruct = chip.map_tensors(|_, t| t.scale(2.0));
        let (merged, report) = GeodesicMerge::new(0.5)
            .expect("valid")
            .merge_with_report(&chip, &instruct)
            .expect("conformable");
        assert_eq!(report.fallback_count(), report.tensors.len());
        // Norm restoration: geometric mean of n and 2n is sqrt(2)·n.
        for t in &report.tensors {
            if t.norm_chip > 0.0 {
                let expected = f64::from(t.norm_chip) * 2f64.powf(0.5);
                assert!((f64::from(t.norm_merged) - expected).abs() < 1e-3 * expected);
            }
        }
        assert!(merged.all_finite());
    }

    #[test]
    fn antipodal_weights_do_not_explode() {
        let arch = ArchSpec::tiny("geo");
        let chip = Checkpoint::random(&arch, &mut Pcg32::seed(31));
        let instruct = chip.map_tensors(|_, t| t.scale(-1.0));
        let merged = GeodesicMerge::new(0.5)
            .expect("valid")
            .merge_pair(&chip, &instruct)
            .expect("conformable");
        assert!(merged.all_finite(), "antipodal case must stay finite");
    }

    #[test]
    fn zero_norm_weight_falls_back_to_lerp() {
        let arch = ArchSpec::tiny("geo");
        let chip = Checkpoint::zeros(&arch);
        let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(32));
        let merged = GeodesicMerge::new(0.5)
            .expect("valid")
            .merge_pair(&chip, &instruct)
            .expect("conformable");
        assert!(merged.all_finite());
        // lerp(instruct, chip=0, 0.5) = 0.5 * instruct.
        let expected = instruct.map_tensors(|_, t| t.scale(0.5));
        assert!(merged.approx_eq(&expected, 1e-5));
    }

    #[test]
    fn rejects_nonconformable_inputs() {
        let chip = Checkpoint::zeros(&ArchSpec::tiny("a"));
        let mut bigger = ArchSpec::tiny("b");
        bigger.n_layers = 1;
        let instruct = Checkpoint::zeros(&bigger);
        let err = GeodesicMerge::recommended().merge_pair(&chip, &instruct);
        assert!(matches!(err, Err(MergeError::NotConformable { .. })));
    }

    #[test]
    fn global_granularity_still_hits_endpoints() {
        let (chip, instruct) = pair();
        let merged = GeodesicMerge::new(1.0)
            .expect("valid")
            .with_granularity(Granularity::Global)
            .merge_pair(&chip, &instruct)
            .expect("conformable");
        assert!(merged.approx_eq(&chip, 1e-4));
    }

    #[test]
    fn arithmetic_restore_uses_mean_norm() {
        let (chip, instruct) = pair();
        let (_, report) = GeodesicMerge::new(0.5)
            .expect("valid")
            .with_norm_restore(NormRestore::Arithmetic)
            .merge_with_report(&chip, &instruct)
            .expect("conformable");
        for t in &report.tensors {
            if t.lerp_fallback {
                continue;
            }
            let expected = 0.5 * (f64::from(t.norm_chip) + f64::from(t.norm_instruct));
            assert!((f64::from(t.norm_merged) - expected).abs() < 1e-3 * expected);
        }
    }

    #[test]
    fn raw_slerp_differs_from_chipalign() {
        let (chip, instruct) = pair();
        let geo = GeodesicMerge::new(0.6)
            .expect("valid")
            .merge_pair(&chip, &instruct)
            .expect("ok");
        let raw = GeodesicMerge::raw_slerp(0.6)
            .expect("valid")
            .merge_pair(&chip, &instruct)
            .expect("ok");
        assert!(
            !geo.approx_eq(&raw, 1e-4),
            "ablation must be distinguishable"
        );
    }

    #[test]
    fn metadata_records_method_and_lambda() {
        let (chip, instruct) = pair();
        let merged = GeodesicMerge::recommended()
            .merge_pair(&chip, &instruct)
            .expect("ok");
        assert_eq!(
            merged.metadata().get("merge.method").map(String::as_str),
            Some("ChipAlign")
        );
        assert_eq!(
            merged.metadata().get("merge.lambda").map(String::as_str),
            Some("0.6")
        );
    }

    #[test]
    fn merge_is_deterministic() {
        let (chip, instruct) = pair();
        let m1 = GeodesicMerge::recommended()
            .merge_pair(&chip, &instruct)
            .expect("ok");
        let m2 = GeodesicMerge::recommended()
            .merge_pair(&chip, &instruct)
            .expect("ok");
        assert!(m1.approx_eq(&m2, 0.0));
    }
}
