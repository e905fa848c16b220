//! Seeded property tests for the merging methods.
//!
//! The key invariants: geodesic endpoints reproduce the inputs for every λ
//! grid, the merged norm follows the weighted geometric mean, the SLERP →
//! LERP transition at the small-angle threshold is continuous, and every
//! method is deterministic and finite on arbitrary random inputs. Each
//! property runs [`CASES`] seeded cases ([`chipalign_tensor::rng::cases`]);
//! a failure reports its case number.

use chipalign_merge::{Della, GeodesicMerge, Merger, ModelSoup, TaskArithmetic, Ties};
use chipalign_model::{ArchSpec, Checkpoint};
use chipalign_tensor::rng::{cases, Case, Pcg32};

const CASES: u64 = 24;

/// `(base, chip, instruct)`: three independent random checkpoints.
fn models(rng: &mut Pcg32) -> (Checkpoint, Checkpoint, Checkpoint) {
    let arch = ArchSpec::tiny("prop");
    (
        Checkpoint::random(&arch, rng),
        Checkpoint::random(&arch, rng),
        Checkpoint::random(&arch, rng),
    )
}

/// A uniform draw from `[lo, hi)`.
fn uniform_in(rng: &mut Pcg32, lo: f32, hi: f32) -> f32 {
    lo + rng.uniform() * (hi - lo)
}

/// λ ∈ [0, 1]: the first two cases pin the endpoints.
fn lambda(rng: &mut Case) -> f32 {
    match rng.index() {
        0 => 0.0,
        1 => 1.0,
        _ => rng.uniform(),
    }
}

#[test]
fn geodesic_always_finite_and_valid() {
    for mut rng in cases(1, CASES) {
        let lambda = lambda(&mut rng);
        let (_, chip, instruct) = models(&mut rng);
        let merged = GeodesicMerge::new(lambda)
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        assert!(merged.all_finite(), "λ = {lambda}");
        assert!(merged.validate().is_ok(), "λ = {lambda}");
    }
}

#[test]
fn geodesic_norm_is_between_input_norms() {
    for mut rng in cases(2, CASES) {
        let lambda = lambda(&mut rng);
        let (_, chip, instruct) = models(&mut rng);
        let (_, report) = GeodesicMerge::new(lambda)
            .unwrap()
            .merge_with_report(&chip, &instruct)
            .unwrap();
        for t in &report.tensors {
            let lo = t.norm_chip.min(t.norm_instruct) * 0.999;
            let hi = t.norm_chip.max(t.norm_instruct) * 1.001;
            assert!(
                (lo..=hi).contains(&t.norm_merged),
                "{}: merged norm {} outside [{lo}, {hi}]",
                t.name,
                t.norm_merged
            );
        }
    }
}

#[test]
fn geodesic_is_symmetric_under_swap() {
    for mut rng in cases(3, CASES) {
        // merge(chip, instruct; λ) == merge(instruct, chip; 1-λ)
        let lambda = lambda(&mut rng);
        let (_, chip, instruct) = models(&mut rng);
        let fwd = GeodesicMerge::new(lambda)
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        let rev = GeodesicMerge::new(1.0 - lambda)
            .unwrap()
            .merge_pair(&instruct, &chip)
            .unwrap();
        assert!(fwd.approx_eq(&rev, 1e-4), "λ = {lambda}");
    }
}

#[test]
fn geodesic_continuous_in_lambda() {
    for mut rng in cases(4, CASES) {
        // Small λ perturbations must produce small weight perturbations.
        let lambda = uniform_in(&mut rng, 0.01, 0.99);
        let (_, chip, instruct) = models(&mut rng);
        let a = GeodesicMerge::new(lambda)
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        let b = GeodesicMerge::new(lambda + 0.005)
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        let mut max_delta = 0.0f32;
        for (name, ta) in a.iter() {
            let tb = b.get(name).unwrap();
            let d = ta.sub(tb).unwrap().max_abs();
            max_delta = max_delta.max(d);
        }
        assert!(max_delta < 0.05, "jump of {max_delta} for dλ = 0.005");
    }
}

#[test]
fn soup_commutes() {
    for mut rng in cases(5, CASES) {
        let (_, chip, instruct) = models(&mut rng);
        let ab = ModelSoup::new().merge_pair(&chip, &instruct).unwrap();
        let ba = ModelSoup::new().merge_pair(&instruct, &chip).unwrap();
        assert!(ab.approx_eq(&ba, 1e-6));
    }
}

#[test]
fn ta_is_linear_in_scale() {
    for mut rng in cases(6, CASES) {
        let scale = uniform_in(&mut rng, 0.1, 1.0);
        let (base, chip, instruct) = models(&mut rng);
        let m1 = TaskArithmetic::new(base.clone(), scale)
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        let m2 = TaskArithmetic::new(base.clone(), scale * 2.0)
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        // (m2 - base) must be exactly twice (m1 - base).
        for (name, t1) in m1.iter() {
            let d1 = t1.sub(base.get(name).unwrap()).unwrap();
            let d2 = m2.get(name).unwrap().sub(base.get(name).unwrap()).unwrap();
            assert!(d2.approx_eq(&d1.scale(2.0), 1e-4), "{name}");
        }
    }
}

#[test]
fn ties_output_finite_and_valid() {
    for mut rng in cases(7, CASES) {
        let density = uniform_in(&mut rng, 0.05, 1.0);
        let (base, chip, instruct) = models(&mut rng);
        let merged = Ties::new(base, density, 1.0)
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        assert!(merged.all_finite(), "density {density}");
        assert!(merged.validate().is_ok(), "density {density}");
    }
}

#[test]
fn della_output_finite_and_valid() {
    for mut rng in cases(8, CASES) {
        let drop = uniform_in(&mut rng, 0.1, 0.8);
        let (base, chip, instruct) = models(&mut rng);
        let merged = Della::new(base, drop, 0.1, 1.0, rng.next_u64())
            .unwrap()
            .merge_pair(&chip, &instruct)
            .unwrap();
        assert!(merged.all_finite(), "drop {drop}");
        assert!(merged.validate().is_ok(), "drop {drop}");
    }
}

#[test]
fn every_method_is_deterministic() {
    for mut rng in cases(9, CASES) {
        let (base, chip, instruct) = models(&mut rng);
        let methods: Vec<Box<dyn Merger>> = vec![
            Box::new(GeodesicMerge::recommended()),
            Box::new(ModelSoup::new()),
            Box::new(TaskArithmetic::new(base.clone(), 1.0).unwrap()),
            Box::new(Ties::recommended(base.clone()).unwrap()),
            Box::new(Della::recommended(base, rng.next_u64()).unwrap()),
        ];
        for m in &methods {
            let a = m.merge_pair(&chip, &instruct).unwrap();
            let b = m.merge_pair(&chip, &instruct).unwrap();
            assert!(a.approx_eq(&b, 0.0), "{} is not deterministic", m.name());
        }
    }
}
