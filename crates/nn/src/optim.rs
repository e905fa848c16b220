//! The Adam optimizer with global-norm gradient clipping and linear
//! warmup: one implementation for full training (a [`ParamSet`]) and LoRA
//! (a slice of adapter matrices), through the [`Tensors`] trait.

use chipalign_tensor::Matrix;

use crate::params::ParamSet;
use crate::NnError;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Peak learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Global-norm clip threshold (0 disables clipping).
    pub clip_norm: f32,
    /// Linear warmup steps from 0 to `lr`.
    pub warmup_steps: usize,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: 1.0,
            warmup_steps: 20,
        }
    }
}

/// Adam optimizer state for one fixed-order list of tensors: a
/// `ParamSet` for full training, LoRA's adapter matrices for
/// low-rank training.
///
/// # Example
///
/// ```
/// use chipalign_model::ArchSpec;
/// use chipalign_nn::{Adam, AdamConfig, TinyLm};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_nn::NnError> {
/// let mut arch = ArchSpec::tiny("demo");
/// arch.vocab_size = 99;
/// let mut model = TinyLm::new(&arch, &mut Pcg32::seed(1))?;
/// let grads = model.params().clone();
/// let mut adam = Adam::new(model.params(), AdamConfig::default())?;
/// adam.step(model.params_mut(), &grads)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: usize,
}

impl Adam {
    /// Creates optimizer state shaped like `params`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for non-positive learning rate or
    /// betas outside `[0, 1)`.
    pub fn new<P: Tensors + ?Sized>(params: &P, cfg: AdamConfig) -> Result<Self, NnError> {
        if !cfg.lr.is_finite() || cfg.lr <= 0.0 {
            return Err(NnError::BadConfig {
                detail: format!("learning rate {} must be positive", cfg.lr),
            });
        }
        for (name, b) in [("beta1", cfg.beta1), ("beta2", cfg.beta2)] {
            if !(0.0..1.0).contains(&b) {
                return Err(NnError::BadConfig {
                    detail: format!("{name} {b} must be in [0, 1)"),
                });
            }
        }
        let zeros = || -> Vec<Matrix> {
            params
                .tensors()
                .into_iter()
                .map(|t| Matrix::zeros(t.rows(), t.cols()))
                .collect()
        };
        Ok(Adam {
            cfg,
            m: zeros(),
            v: zeros(),
            t: 0,
        })
    }

    /// The learning rate that will apply to the *next* step (after
    /// warmup scaling).
    #[must_use]
    pub(crate) fn current_lr(&self) -> f32 {
        let step = self.t + 1;
        if self.cfg.warmup_steps > 0 && step <= self.cfg.warmup_steps {
            self.cfg.lr * step as f32 / self.cfg.warmup_steps as f32
        } else {
            self.cfg.lr
        }
    }

    /// Applies one Adam update to `params` given `grads`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `params`, `grads` and the
    /// optimizer state do not hold the same number of tensors.
    pub fn step<P: Tensors + ?Sized>(&mut self, params: &mut P, grads: &P) -> Result<(), NnError> {
        let p_tensors = params.tensors_mut();
        let g_tensors = grads.tensors();
        if p_tensors.len() != g_tensors.len() || p_tensors.len() != self.m.len() {
            return Err(NnError::BadConfig {
                detail: "gradient structure does not match parameters".into(),
            });
        }
        // Global-norm clipping, folded into the per-element gradient read.
        let gnorm = g_tensors
            .iter()
            .map(|g| {
                let n = f64::from(g.frobenius_norm());
                n * n
            })
            .sum::<f64>()
            .sqrt();
        let clip_scale = if self.cfg.clip_norm > 0.0 && gnorm > f64::from(self.cfg.clip_norm) {
            (f64::from(self.cfg.clip_norm) / gnorm) as f32
        } else {
            1.0
        };

        let lr = self.current_lr();
        self.t += 1;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);

        for (((p, g), m), v) in p_tensors
            .into_iter()
            .zip(g_tensors)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            let pd = p.data_mut();
            let gd = g.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            for i in 0..pd.len() {
                let gi = gd[i] * clip_scale;
                md[i] = b1 * md[i] + (1.0 - b1) * gi;
                vd[i] = b2 * vd[i] + (1.0 - b2) * gi * gi;
                let m_hat = md[i] / bias1;
                let v_hat = vd[i] / bias2;
                pd[i] -= lr * m_hat / (v_hat.sqrt() + self.cfg.eps);
            }
        }
        Ok(())
    }
}

/// A fixed-order list of tensors that [`Adam`] can optimize: the order of
/// [`Tensors::tensors`] and [`Tensors::tensors_mut`] must agree, and must
/// not change between steps.
pub trait Tensors {
    /// Every tensor, in the list's fixed order.
    fn tensors(&self) -> Vec<&Matrix>;

    /// Every tensor, mutably, in the same order.
    fn tensors_mut(&mut self) -> Vec<&mut Matrix>;
}

impl Tensors for ParamSet {
    fn tensors(&self) -> Vec<&Matrix> {
        ParamSet::tensors(self)
    }

    fn tensors_mut(&mut self) -> Vec<&mut Matrix> {
        ParamSet::tensors_mut(self)
    }
}

impl Tensors for [Matrix] {
    fn tensors(&self) -> Vec<&Matrix> {
        self.iter().collect()
    }

    fn tensors_mut(&mut self) -> Vec<&mut Matrix> {
        self.iter_mut().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn params() -> ParamSet {
        let mut arch = ArchSpec::tiny("adam");
        arch.vocab_size = 99;
        ParamSet::init(&arch, &mut Pcg32::seed(1))
    }

    #[test]
    fn rejects_bad_config() {
        let p = params();
        let bad_lr = AdamConfig {
            lr: 0.0,
            ..AdamConfig::default()
        };
        assert!(Adam::new(&p, bad_lr).is_err());
        let bad_beta = AdamConfig {
            beta1: 1.0,
            ..AdamConfig::default()
        };
        assert!(Adam::new(&p, bad_beta).is_err());
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut p = params();
        let mut grads = p.zeros_like();
        // Positive gradient on one weight -> weight must decrease.
        grads.lm_head.data_mut()[0] = 1.0;
        let before = p.lm_head.data()[0];
        let mut adam = Adam::new(&p, AdamConfig::default()).expect("ok");
        // Burn past warmup so lr is the full value.
        for _ in 0..25 {
            adam.step(&mut p, &grads).expect("ok");
        }
        assert!(p.lm_head.data()[0] < before);
    }

    #[test]
    fn warmup_ramps_lr() {
        let p = params();
        let cfg = AdamConfig {
            warmup_steps: 10,
            lr: 1.0,
            ..AdamConfig::default()
        };
        let mut adam = Adam::new(&p, cfg).expect("ok");
        assert!((adam.current_lr() - 0.1).abs() < 1e-6);
        let mut pp = params();
        let g = pp.zeros_like();
        for _ in 0..10 {
            adam.step(&mut pp, &g).expect("ok");
        }
        assert!((adam.current_lr() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clipping_bounds_update() {
        let mut p = params();
        let mut grads = p.zeros_like();
        // Gigantic gradient everywhere.
        for t in grads.tensors_mut() {
            t.map_inplace(|_| 1000.0);
        }
        let cfg = AdamConfig {
            clip_norm: 1.0,
            warmup_steps: 0,
            lr: 0.1,
            ..AdamConfig::default()
        };
        let before = p.clone();
        let mut adam = Adam::new(&p, cfg).expect("ok");
        adam.step(&mut p, &grads).expect("ok");
        // Per-parameter movement bounded by lr / (sqrt(v_hat)...) ~ lr.
        let mut max_move = 0.0f32;
        for (a, b) in p.tensors().iter().zip(before.tensors()) {
            let d = a.sub(b).expect("same shape").max_abs();
            max_move = max_move.max(d);
        }
        assert!(max_move <= 0.11, "update exploded: {max_move}");
    }

    #[test]
    fn zero_gradient_moves_nothing() {
        let mut p = params();
        let before = p.clone();
        let g = p.zeros_like();
        let mut adam = Adam::new(&p, AdamConfig::default()).expect("ok");
        adam.step(&mut p, &g).expect("ok");
        for (a, b) in p.tensors().iter().zip(before.tensors()) {
            assert!(a.approx_eq(b, 1e-7));
        }
    }
}
