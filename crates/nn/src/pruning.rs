//! Dynamic vector pruning (SpConv-P).
//!
//! The paper trains models with vector-sparsity regularisation so that the
//! channel magnitude of unimportant background pillars is driven towards zero,
//! then fine-tunes with Top-K pruning per layer so a fixed sparsity target can
//! be met at inference time. Here the *inference-time* mechanism is
//! reproduced exactly (Top-K selection on importance scores, never dropping
//! below a floor), and the *training-time* effect is modelled by an
//! importance function that scores foreground pillars (those inside or near a
//! ground-truth box) higher than background pillars — which is precisely what
//! the regularised training achieves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use spade_pointcloud::pillarize::PillarizationConfig;
use spade_pointcloud::Scene;
use spade_tensor::{CprTensor, GridShape, PillarCoord};

/// Configuration of the dynamic vector pruner.
///
/// # Example
///
/// ```
/// use spade_nn::PruningConfig;
/// let cfg = PruningConfig::default();
/// assert!(cfg.keep_ratio > 0.0 && cfg.keep_ratio <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruningConfig {
    /// Fraction of the dilated output pillars to keep (Top-K ratio).
    pub keep_ratio: f64,
    /// Never prune below this many pillars.
    pub min_keep: usize,
    /// Whether the importance model reflects regularised fine-tuning
    /// (foreground-aware) or naive magnitude pruning.
    pub finetuned: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self {
            keep_ratio: 0.55,
            min_keep: 64,
            finetuned: true,
        }
    }
}

impl PruningConfig {
    /// A configuration with an explicit keep ratio.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep_ratio <= 1`.
    #[must_use]
    pub fn with_keep_ratio(keep_ratio: f64) -> Self {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1], got {keep_ratio}"
        );
        Self {
            keep_ratio,
            ..Self::default()
        }
    }
}

/// The dynamic vector pruner: Top-K selection over importance scores.
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorPruner {
    config: PruningConfig,
}

impl VectorPruner {
    /// Creates a pruner with the given configuration.
    #[must_use]
    pub const fn new(config: PruningConfig) -> Self {
        Self { config }
    }

    /// The pruner's configuration.
    #[must_use]
    pub const fn config(&self) -> PruningConfig {
        self.config
    }

    /// Selects the indices (into `scores`) of the pillars to keep.
    ///
    /// Keeps `max(min_keep, ceil(keep_ratio * n))` pillars with the highest
    /// scores; returned indices are sorted ascending so they can be fed to
    /// [`CprTensor::select`] without disturbing CPR order.
    ///
    /// Pillars rank by score descending, equal scores (`-0.0 == 0.0`
    /// included) by index ascending, and NaN scores last. One
    /// `select_nth_unstable` over packed `(rank key, index)` integers finds
    /// the last kept pillar in that order, so the selection is `O(n)`, and a
    /// single pass then emits every index ranked at or above it, already
    /// ascending.
    #[must_use]
    pub fn keep_indices(&self, scores: &[f64]) -> Vec<usize> {
        let n = scores.len();
        let keep = ((self.config.keep_ratio * n as f64).ceil() as usize)
            .max(self.config.min_keep)
            .min(n);
        if keep == 0 {
            return Vec::new();
        }
        let rank = |i: usize| (u128::from(rank_key(scores[i])) << 64) | i as u128;
        let mut order: Vec<u128> = (0..n).map(rank).collect();
        let (_, &mut last_kept, _) = order.select_nth_unstable(keep - 1);
        (0..n).filter(|&i| rank(i) <= last_kept).collect()
    }

    /// Prunes a tensor using per-pillar feature magnitudes as importance.
    #[must_use]
    pub fn prune_by_magnitude(&self, tensor: &CprTensor) -> CprTensor {
        let scores: Vec<f64> = tensor
            .pillar_magnitudes()
            .into_iter()
            .map(f64::from)
            .collect();
        tensor.select(&self.keep_indices(&scores))
    }

    /// Prunes a coordinate set using externally supplied importance scores
    /// (pattern-level execution). Returns the kept coordinates in CPR order.
    #[must_use]
    pub fn prune_coords(&self, coords: &[PillarCoord], scores: &[f64]) -> Vec<PillarCoord> {
        assert_eq!(coords.len(), scores.len(), "one score per coordinate");
        self.keep_indices(scores)
            .into_iter()
            .map(|i| coords[i])
            .collect()
    }
}

/// Cell class of the importance model's class map.
const BACKGROUND: u8 = 0;
/// Cell class: centre within `max(length, width)` of an object centre.
const NEAR: u8 = 1;
/// Cell class: centre inside a ground-truth box (wins over [`NEAR`]).
const FOREGROUND: u8 = 2;

/// A score's place in the Top-K order as an integer, smallest first: higher
/// scores get smaller keys, `-0.0` gets the key of `0.0`, and NaN gets the
/// largest key. Equal keys mean equal scores.
fn rank_key(score: f64) -> u64 {
    if score.is_nan() {
        return u64::MAX;
    }
    let bits = if score == 0.0 { 0.0f64 } else { score }.to_bits();
    // IEEE-754 bits, flipped so that unsigned order is numeric order ...
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    // ... then reversed so the highest score comes first. No finite or
    // infinite score reaches `u64::MAX`, which only an all-ones NaN would.
    !ascending
}

/// An importance model for pattern-level pruning: scores each BEV coordinate
/// by its proximity to ground-truth objects, emulating the magnitude profile
/// a regularised, fine-tuned model produces.
///
/// The model holds one class byte per cell of the grid it was built for
/// (background, near or foreground), so classifying a coordinate is one
/// indexed load; a coordinate outside that grid reads as background.
#[derive(Debug, Clone)]
pub struct ImportanceModel {
    /// Row-major cell classes over `grid`.
    classes: Vec<u8>,
    grid: GridShape,
    noise_seed: u64,
    finetuned: bool,
}

impl ImportanceModel {
    /// Builds the importance model for a scene at a given BEV resolution.
    ///
    /// `downsample` is the stride factor between the base pillarisation grid
    /// and the grid the scores are requested at (1 for stage 1, 2 for stage 2,
    /// and so on).
    ///
    /// Cells are rasterised object by object rather than by scanning the
    /// whole grid against every object: a cell can only be foreground (centre
    /// inside a box) or near (centre within `max(length, width)` of an object
    /// centre) if it lies within that radius of the object, so only the cells
    /// inside each object's reach are tested — the resulting class map is
    /// identical to a full-grid scan at a fraction of the cost.
    #[must_use]
    pub fn for_scene(
        scene: &Scene,
        pillar_cfg: &PillarizationConfig,
        grid: GridShape,
        downsample: u32,
        noise_seed: u64,
        finetuned: bool,
    ) -> Self {
        let width = grid.width as usize;
        let mut classes = vec![BACKGROUND; grid.height as usize * width];
        let sx = pillar_cfg.pillar_size_x * f64::from(downsample);
        let sy = pillar_cfg.pillar_size_y * f64::from(downsample);
        let x0 = pillar_cfg.x_range.0;
        let y0 = pillar_cfg.y_range.0;
        // Conservative cell range covering [centre - reach, centre + reach]
        // along one axis (cell centres sit at origin + (i + 0.5) * step).
        let cell_range = |centre: f64, reach: f64, origin: f64, step: f64, len: u32| {
            let lo = ((centre - reach - origin) / step - 1.5).floor().max(0.0) as u32;
            let hi = ((centre + reach - origin) / step + 0.5)
                .ceil()
                .min(f64::from(len) - 1.0);
            if hi < 0.0 {
                (1, 0) // empty range
            } else {
                (lo, hi as u32)
            }
        };
        for obj in scene.objects() {
            // A box-contained centre is within hypot(l, w)/2 of the object
            // centre, and a near centre is within max(l, w) — `reach` bounds
            // both predicates.
            let r = obj.bbox.length.max(obj.bbox.width);
            let (row_lo, row_hi) = cell_range(obj.bbox.cx, r, x0, sx, grid.height);
            let (col_lo, col_hi) = cell_range(obj.bbox.cy, r, y0, sy, grid.width);
            for row in row_lo..=row_hi.min(grid.height.saturating_sub(1)) {
                let x = x0 + (f64::from(row) + 0.5) * sx;
                for col in col_lo..=col_hi.min(grid.width.saturating_sub(1)) {
                    let y = y0 + (f64::from(col) + 0.5) * sy;
                    let class = if obj.bbox.contains_bev(x, y) {
                        FOREGROUND
                    } else {
                        let dx = x - obj.bbox.cx;
                        let dy = y - obj.bbox.cy;
                        if (dx * dx + dy * dy).sqrt() < r {
                            NEAR
                        } else {
                            continue;
                        }
                    };
                    // A cell inside one object's box but merely near another
                    // is foreground, whichever object comes first.
                    let cell = &mut classes[row as usize * width + col as usize];
                    *cell = (*cell).max(class);
                }
            }
        }
        Self {
            classes,
            grid,
            noise_seed,
            finetuned,
        }
    }

    /// The class of a coordinate (background outside the model's grid).
    fn class_of(&self, c: PillarCoord) -> u8 {
        if c.in_bounds(self.grid) {
            self.classes[c.row as usize * self.grid.width as usize + c.col as usize]
        } else {
            BACKGROUND
        }
    }

    /// Scores a list of coordinates: foreground ≫ near-object ≫ background,
    /// with deterministic per-coordinate noise. A model without fine-tuning
    /// has much noisier scores, so pruning removes foreground evidence sooner.
    #[must_use]
    pub fn scores(&self, coords: &[PillarCoord]) -> Vec<f64> {
        let noise_scale = if self.finetuned { 0.2 } else { 1.5 };
        coords
            .iter()
            .map(|&c| {
                let mut rng = StdRng::seed_from_u64(
                    self.noise_seed ^ (u64::from(c.row) << 32) ^ u64::from(c.col),
                );
                let noise: f64 = rng.gen_range(0.0..noise_scale);
                let base = match self.class_of(c) {
                    FOREGROUND => 3.0,
                    NEAR => 1.5,
                    _ => 0.2,
                };
                base + noise
            })
            .collect()
    }

    /// Number of foreground (in-box) cells at this resolution.
    #[must_use]
    pub fn num_foreground_cells(&self) -> usize {
        self.classes.iter().filter(|&&c| c == FOREGROUND).count()
    }

    /// Returns `true` if the coordinate lies inside a ground-truth box.
    #[must_use]
    pub fn is_foreground(&self, coord: PillarCoord) -> bool {
        self.class_of(coord) == FOREGROUND
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_pointcloud::{ObjectClass, SceneConfig, SceneObject};
    use std::collections::HashSet;

    #[test]
    fn keep_indices_respects_ratio_and_floor() {
        let pruner = VectorPruner::new(PruningConfig {
            keep_ratio: 0.5,
            min_keep: 2,
            finetuned: true,
        });
        let scores: Vec<f64> = (0..10).map(f64::from).collect();
        let kept = pruner.keep_indices(&scores);
        assert_eq!(kept.len(), 5);
        // Highest-scoring indices are 5..10.
        assert_eq!(kept, vec![5, 6, 7, 8, 9]);
        // Floor applies for tiny inputs.
        let kept = pruner.keep_indices(&[1.0, 2.0, 3.0]);
        assert_eq!(kept.len(), 2);
        assert!(pruner.keep_indices(&[]).is_empty());
    }

    #[test]
    fn keep_indices_are_sorted_for_cpr_select() {
        let pruner = VectorPruner::new(PruningConfig::with_keep_ratio(0.4));
        let scores = vec![0.1, 5.0, 0.2, 4.0, 3.0, 0.3, 2.0, 1.0, 0.5, 0.6];
        let kept = pruner.keep_indices(&scores);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prune_by_magnitude_keeps_strong_pillars() {
        let t = CprTensor::from_entries(
            GridShape::new(4, 4),
            1,
            vec![
                (PillarCoord::new(0, 0), vec![0.01]),
                (PillarCoord::new(1, 1), vec![10.0]),
                (PillarCoord::new(2, 2), vec![0.02]),
                (PillarCoord::new(3, 3), vec![8.0]),
            ],
        )
        .unwrap();
        let pruner = VectorPruner::new(PruningConfig {
            keep_ratio: 0.5,
            min_keep: 1,
            finetuned: true,
        });
        let pruned = pruner.prune_by_magnitude(&t);
        assert_eq!(pruned.num_active(), 2);
        assert!(pruned.index_of(PillarCoord::new(1, 1)).is_some());
        assert!(pruned.index_of(PillarCoord::new(3, 3)).is_some());
    }

    #[test]
    #[should_panic(expected = "keep_ratio")]
    fn zero_keep_ratio_is_rejected() {
        let _ = PruningConfig::with_keep_ratio(0.0);
    }

    #[test]
    fn importance_prefers_foreground() {
        let cfg = PillarizationConfig::kitti_like();
        let scene = spade_pointcloud::Scene::from_objects(
            SceneConfig::kitti_like(),
            vec![SceneObject::at(ObjectClass::Car, 20.0, 0.0, 0.0)],
        );
        let grid = cfg.grid_shape();
        let model = ImportanceModel::for_scene(&scene, &cfg, grid, 1, 7, true);
        assert!(model.num_foreground_cells() > 0);
        // A pillar at the car centre scores higher than one far away.
        let car_coord = cfg
            .coord_of(&spade_pointcloud::Point3::new(20.0, 0.0, 0.0))
            .unwrap();
        let far_coord = cfg
            .coord_of(&spade_pointcloud::Point3::new(60.0, 30.0, 0.0))
            .unwrap();
        let scores = model.scores(&[car_coord, far_coord]);
        assert!(scores[0] > scores[1]);
        assert!(model.is_foreground(car_coord));
        assert!(!model.is_foreground(far_coord));
    }

    #[test]
    fn finetuned_importance_is_less_noisy() {
        let cfg = PillarizationConfig::kitti_like();
        let scene = spade_pointcloud::Scene::from_objects(
            SceneConfig::kitti_like(),
            vec![SceneObject::at(ObjectClass::Car, 20.0, 0.0, 0.0)],
        );
        let grid = cfg.grid_shape();
        let tuned = ImportanceModel::for_scene(&scene, &cfg, grid, 1, 7, true);
        let naive = ImportanceModel::for_scene(&scene, &cfg, grid, 1, 7, false);
        // Score a batch of background coordinates; the naive model's spread is larger.
        let coords: Vec<PillarCoord> = (0..50).map(|i| PillarCoord::new(400, i)).collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(&naive.scores(&coords)) > spread(&tuned.scores(&coords)));
    }

    /// A xorshift stream for the property tests.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// The previous `keep_indices`: a stable sort on score descending, then
    /// the first `keep` indices, re-sorted ascending.
    fn keep_indices_oracle(config: PruningConfig, scores: &[f64]) -> Vec<usize> {
        let n = scores.len();
        if n == 0 {
            return Vec::new();
        }
        let keep = ((config.keep_ratio * n as f64).ceil() as usize)
            .max(config.min_keep)
            .min(n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut kept: Vec<usize> = order.into_iter().take(keep).collect();
        kept.sort_unstable();
        kept
    }

    #[test]
    fn keep_indices_matches_stable_sort_oracle() {
        let mut next = stream(0x5eed);
        // Few distinct values force heavy ties; ±0.0 must tie as well, and
        // infinities and subnormals must order like any other value.
        let palette = [
            0.0,
            -0.0,
            0.2,
            1.5,
            1.5,
            3.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MAX,
        ];
        let ratios = [0.01, 0.3, 0.55, 0.5, 0.99, 1.0];
        for case in 0..600 {
            let n = (next() % 300) as usize;
            let scores: Vec<f64> = (0..n)
                .map(|_| {
                    if case % 3 == 0 {
                        (next() % 1000) as f64 / 7.0
                    } else {
                        palette[(next() % palette.len() as u64) as usize]
                    }
                })
                .collect();
            let config = PruningConfig {
                keep_ratio: ratios[case % ratios.len()],
                // Covers min_keep below, at and above n.
                min_keep: (next() % 320) as usize,
                finetuned: true,
            };
            assert_eq!(
                VectorPruner::new(config).keep_indices(&scores),
                keep_indices_oracle(config, &scores),
                "case {case}: n={n} {config:?}"
            );
        }
        let all = PruningConfig::with_keep_ratio(1.0);
        assert_eq!(
            VectorPruner::new(all).keep_indices(&[2.0, 1.0, 2.0]),
            vec![0, 1, 2]
        );
        assert!(VectorPruner::new(all).keep_indices(&[]).is_empty());
    }

    #[test]
    fn nan_scores_rank_last_and_never_panic() {
        let pruner = |keep_ratio, min_keep| {
            VectorPruner::new(PruningConfig {
                keep_ratio,
                min_keep,
                finetuned: true,
            })
        };
        let scores = [f64::NAN, 1.0, f64::NAN, 3.0, 2.0, -0.0, 0.0];
        assert_eq!(pruner(0.2, 1).keep_indices(&scores), vec![3, 4]);
        assert_eq!(pruner(0.5, 1).keep_indices(&scores), vec![1, 3, 4, 5]);
        // Once every finite score is kept, NaNs fill up by index.
        assert_eq!(pruner(0.8, 1).keep_indices(&scores), vec![0, 1, 3, 4, 5, 6]);
        // `prune_by_magnitude` reaches the same path through a NaN feature.
        let t = CprTensor::from_entries(
            GridShape::new(4, 4),
            1,
            vec![
                (PillarCoord::new(0, 0), vec![f32::NAN]),
                (PillarCoord::new(1, 1), vec![0.5]),
                (PillarCoord::new(2, 2), vec![10.0]),
            ],
        )
        .unwrap();
        let pruned = pruner(0.5, 1).prune_by_magnitude(&t);
        assert_eq!(
            pruned.coords(),
            vec![PillarCoord::new(1, 1), PillarCoord::new(2, 2)]
        );
        // Random vectors with NaN: the kept set is the top of the total
        // order (score descending, NaN last, ties by index).
        let mut next = stream(0xbad_f00d);
        for case in 0..500 {
            let n = 1 + (next() % 200) as usize;
            let scores: Vec<f64> = (0..n)
                .map(|_| match next() % 5 {
                    0 => f64::NAN,
                    1 => 0.0,
                    _ => (next() % 50) as f64,
                })
                .collect();
            let ratio = [0.1, 0.55, 0.9][case % 3];
            let p = pruner(ratio, 1);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let key = |i: usize| (scores[i].is_nan(), -scores[i]);
                key(a)
                    .partial_cmp(&key(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let keep = ((ratio * n as f64).ceil() as usize).clamp(1, n);
            let mut expected = order[..keep].to_vec();
            expected.sort_unstable();
            assert_eq!(p.keep_indices(&scores), expected, "case {case}");
            // The highest finite score is always kept.
            let best = scores
                .iter()
                .copied()
                .filter(|s| !s.is_nan())
                .reduce(f64::max);
            if let Some(best) = best {
                assert!(expected.iter().any(|&i| scores[i] == best));
            }
        }
    }

    /// The previous `ImportanceModel`: foreground and near cells in two hash
    /// sets built object by object.
    struct ImportanceOracle {
        foreground: HashSet<(u32, u32)>,
        near: HashSet<(u32, u32)>,
        noise_seed: u64,
        finetuned: bool,
    }

    impl ImportanceOracle {
        fn for_scene(
            scene: &Scene,
            pillar_cfg: &PillarizationConfig,
            grid: GridShape,
            downsample: u32,
            noise_seed: u64,
            finetuned: bool,
        ) -> Self {
            let mut foreground = HashSet::new();
            let mut near = HashSet::new();
            let sx = pillar_cfg.pillar_size_x * f64::from(downsample);
            let sy = pillar_cfg.pillar_size_y * f64::from(downsample);
            let x0 = pillar_cfg.x_range.0;
            let y0 = pillar_cfg.y_range.0;
            let cell_range = |centre: f64, reach: f64, origin: f64, step: f64, len: u32| {
                let lo = ((centre - reach - origin) / step - 1.5).floor().max(0.0) as u32;
                let hi = ((centre + reach - origin) / step + 0.5)
                    .ceil()
                    .min(f64::from(len) - 1.0);
                if hi < 0.0 {
                    (1, 0)
                } else {
                    (lo, hi as u32)
                }
            };
            for obj in scene.objects() {
                let r = obj.bbox.length.max(obj.bbox.width);
                let (row_lo, row_hi) = cell_range(obj.bbox.cx, r, x0, sx, grid.height);
                let (col_lo, col_hi) = cell_range(obj.bbox.cy, r, y0, sy, grid.width);
                for row in row_lo..=row_hi.min(grid.height.saturating_sub(1)) {
                    let x = x0 + (f64::from(row) + 0.5) * sx;
                    for col in col_lo..=col_hi.min(grid.width.saturating_sub(1)) {
                        let y = y0 + (f64::from(col) + 0.5) * sy;
                        if obj.bbox.contains_bev(x, y) {
                            foreground.insert((row, col));
                        } else {
                            let dx = x - obj.bbox.cx;
                            let dy = y - obj.bbox.cy;
                            if (dx * dx + dy * dy).sqrt() < r {
                                near.insert((row, col));
                            }
                        }
                    }
                }
            }
            near.retain(|c| !foreground.contains(c));
            Self {
                foreground,
                near,
                noise_seed,
                finetuned,
            }
        }

        fn scores(&self, coords: &[PillarCoord]) -> Vec<f64> {
            coords
                .iter()
                .map(|c| {
                    let mut rng = StdRng::seed_from_u64(
                        self.noise_seed ^ (u64::from(c.row) << 32) ^ u64::from(c.col),
                    );
                    let noise_scale = if self.finetuned { 0.2 } else { 1.5 };
                    let noise: f64 = rng.gen_range(0.0..noise_scale);
                    if self.foreground.contains(&(c.row, c.col)) {
                        3.0 + noise
                    } else if self.near.contains(&(c.row, c.col)) {
                        1.5 + noise
                    } else {
                        0.2 + noise
                    }
                })
                .collect()
        }
    }

    #[test]
    fn class_map_matches_hash_set_oracle() {
        // A 20 m × 16 m base grid at 0.4 m (50 × 40 cells), small enough to
        // compare every cell.
        let cfg = PillarizationConfig {
            x_range: (0.0, 20.0),
            y_range: (-8.0, 8.0),
            pillar_size_x: 0.4,
            pillar_size_y: 0.4,
            ..PillarizationConfig::kitti_like()
        };
        let base = cfg.grid_shape();
        let classes = [
            ObjectClass::Car,
            ObjectClass::Pedestrian,
            ObjectClass::Cyclist,
            ObjectClass::Truck,
        ];
        let mut next = stream(0xc1a55);
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let (mut foreground, mut near) = (0, 0);
        for case in 0..40u64 {
            // Centres range past every edge of the grid, so some objects
            // straddle it and some lie wholly outside.
            let objects: Vec<SceneObject> = (0..1 + case % 7)
                .map(|i| {
                    SceneObject::at(
                        classes[(case + i) as usize % classes.len()],
                        -4.0 + 28.0 * unit(),
                        -12.0 + 24.0 * unit(),
                        std::f64::consts::PI * unit(),
                    )
                })
                .collect();
            let scene = Scene::from_objects(SceneConfig::kitti_like(), objects);
            for downsample in [1u32, 2, 4] {
                let grid = base.downsample(downsample);
                let finetuned = case % 2 == 0;
                let model =
                    ImportanceModel::for_scene(&scene, &cfg, grid, downsample, case, finetuned);
                let oracle =
                    ImportanceOracle::for_scene(&scene, &cfg, grid, downsample, case, finetuned);
                // Every cell, plus coordinates beyond each edge.
                let mut coords = grid.all_cells();
                coords.extend([
                    PillarCoord::new(grid.height, 0),
                    PillarCoord::new(0, grid.width),
                    PillarCoord::new(grid.height + 3, grid.width + 5),
                    PillarCoord::new(u32::MAX, u32::MAX),
                ]);
                let scores = model.scores(&coords);
                let expected = oracle.scores(&coords);
                assert!(
                    scores
                        .iter()
                        .zip(&expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "case {case}, downsample {downsample}: scores differ"
                );
                for &c in &coords {
                    assert_eq!(
                        model.is_foreground(c),
                        oracle.foreground.contains(&(c.row, c.col)),
                        "case {case}, downsample {downsample}, {c:?}"
                    );
                }
                assert_eq!(model.num_foreground_cells(), oracle.foreground.len());
                foreground += oracle.foreground.len();
                near += oracle.near.len();
            }
        }
        assert!(
            foreground > 0 && near > 0,
            "the scenes must exercise every class"
        );
    }
}
