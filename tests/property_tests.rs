//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use spade::nn::rulegen::{self, RuleGenMethod};
use spade::nn::{ConvKind, KernelShape, LayerSpec};
use spade::pointcloud::{
    DatasetPreset, DriveScenario, NamedScenario, PersistentWorld, SceneConfig, WorldObject,
    WorldStep,
};
use spade::tensor::{CprTensor, GridShape, PillarCoord};

fn arb_coords(max: usize) -> impl Strategy<Value = Vec<PillarCoord>> {
    prop::collection::vec(
        (0u32..24, 0u32..24).prop_map(|(r, c)| PillarCoord::new(r, c)),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CPR construction from arbitrary coordinates always satisfies the
    /// format invariants and preserves the deduplicated coordinate set.
    #[test]
    fn cpr_invariants_hold(coords in arb_coords(80)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 4, &coords);
        prop_assert!(t.check_invariants());
        let mut expected: Vec<PillarCoord> = coords.clone();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(t.coords(), expected);
    }

    /// Dense round trip preserves the sparse tensor exactly.
    #[test]
    fn dense_round_trip(coords in arb_coords(60)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 3, &coords);
        prop_assert_eq!(t.to_dense().to_cpr(), t);
    }

    /// All three rule-generation algorithms agree on outputs and rule counts
    /// for every sparse convolution kind.
    #[test]
    fn rulegen_algorithms_agree(coords in arb_coords(40)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 1, &coords);
        for kind in [ConvKind::SpConv, ConvKind::SpConvS, ConvKind::SpStConv] {
            prop_assert!(spade::nn::rulegen::hash::equivalent_to_streaming(&t, kind, KernelShape::k3x3()));
            prop_assert!(spade::nn::rulegen::sort::equivalent_to_streaming(&t, kind, KernelShape::k3x3()));
        }
        prop_assert!(spade::nn::rulegen::hash::equivalent_to_streaming(&t, ConvKind::SpDeconv, KernelShape::k2x2()));
    }

    /// The fused streaming pass is pinned to the hash-table and merge-sort
    /// reference generators for every convolution kind and kernel shape the
    /// zoo uses: the rule books must be *identical* (same outputs, same
    /// per-tap rule sequences), and the analytic `count_rules` must equal the
    /// materialised rule count.
    #[test]
    fn fused_streaming_is_pinned_to_reference_generators(coords in arb_coords(48)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 1, &coords);
        let cases = [
            (ConvKind::SpConv, KernelShape::k3x3()),
            (ConvKind::SpConvS, KernelShape::k3x3()),
            (ConvKind::SpConvP, KernelShape::k3x3()),
            (ConvKind::SpStConv, KernelShape::k3x3()),
            (ConvKind::SpDeconv, KernelShape::k2x2()),
            (ConvKind::Dense, KernelShape::k3x3()),
            (ConvKind::SpConv, KernelShape::k1x1()),
            (ConvKind::SpConvS, KernelShape::k1x1()),
            (ConvKind::SpStConv, KernelShape::k1x1()),
        ];
        for (kind, kernel) in cases {
            let fused = spade::nn::rulegen::streaming::generate(&t, kind, kernel);
            let hashed = spade::nn::rulegen::hash::generate(&t, kind, kernel);
            let sorted = spade::nn::rulegen::sort::generate(&t, kind, kernel);
            prop_assert_eq!(&fused, &hashed, "hash mismatch for {} {:?}", kind, kernel);
            prop_assert_eq!(&fused, &sorted, "sort mismatch for {} {:?}", kind, kernel);
            prop_assert!(fused.check_monotone(), "monotonicity lost for {} {:?}", kind, kernel);
            // Dense `count_rules` is the closed-form cells x taps (it counts
            // the dense loop, not the in-bounds rule book entries).
            if kind != ConvKind::Dense {
                let counted = spade::nn::graph::count_rules(
                    &t.coords(),
                    grid,
                    rulegen::output_grid(grid, kind),
                    kind,
                    kernel,
                );
                prop_assert_eq!(counted, fused.num_rules() as u64, "count mismatch for {} {:?}", kind, kernel);
            }
        }
    }

    /// Submanifold convolution never changes the active set; standard sparse
    /// convolution never shrinks it; and the streaming rule book stays
    /// monotone (the property SPADE's hardware depends on).
    #[test]
    fn sparse_conv_active_set_properties(coords in arb_coords(40)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 1, &coords);
        let sub = rulegen::output_coords(&t, ConvKind::SpConvS, KernelShape::k3x3());
        prop_assert_eq!(sub, t.coords());
        let dilated = rulegen::output_coords(&t, ConvKind::SpConv, KernelShape::k3x3());
        prop_assert!(dilated.len() >= t.num_active());
        let book = rulegen::generate_rules(&t, ConvKind::SpConv, KernelShape::k3x3());
        prop_assert!(book.check_monotone());
    }

    /// The sparse functional convolution matches the dense reference at every
    /// grid position for random sparse inputs.
    #[test]
    fn spconv_matches_dense_reference(coords in arb_coords(12)) {
        let grid = GridShape::new(10, 10);
        let t = CprTensor::from_coords(grid, 2, &coords);
        let layer = LayerSpec::new("p", ConvKind::SpConv, 2, 2);
        let w = layer.seeded_weights(3);
        let sparse = layer.execute(&t, &w, false).to_dense();
        let dense = spade::nn::conv::dense_conv2d_reference(&t.to_dense(), &w, false);
        for ch in 0..2 {
            for r in 0..10 {
                for c in 0..10 {
                    let a = sparse.get(ch, r, c);
                    let b = dense.get(ch, r, c);
                    prop_assert!((a - b).abs() < 1e-3, "mismatch at ({}, {}, {})", ch, r, c);
                }
            }
        }
    }

    /// The streaming RGU cost model is never slower than the hash-table or
    /// merge-sort models on dilating workloads.
    #[test]
    fn rgu_cost_is_minimal(pillars in 100usize..50_000) {
        let outputs = pillars * 2;
        let rules = pillars * 9;
        let rgu = RuleGenMethod::StreamingRgu.cost(pillars, outputs, rules).cycles;
        let hash = RuleGenMethod::HashTable.cost(pillars, outputs, rules).cycles;
        let sort = RuleGenMethod::MergeSort.cost(pillars, outputs, rules).cycles;
        prop_assert!(rgu <= hash);
        prop_assert!(rgu <= sort);
    }

    /// Persistent-world objects never teleport: between consecutive frames a
    /// surviving object's displacement is bounded by its class's maximum
    /// speed times the frame interval, under arbitrary target-count
    /// sequences (spawning, thinning, and emptying included) and arbitrary
    /// speed multipliers.
    #[test]
    fn persistent_world_objects_never_teleport(
        (seed, targets) in (0u64..100_000, prop::collection::vec((0usize..26, 0u8..=2), 3..9))
    ) {
        let dt = 0.1;
        let mut world = PersistentWorld::new(SceneConfig::kitti_like(), dt);
        let mut prev: Vec<WorldObject> = Vec::new();
        for (i, &(target, speed_tier)) in targets.iter().enumerate() {
            let speed_multiplier = f64::from(speed_tier) / 2.0; // 0, 0.5, 1
            world.step(&WorldStep {
                target_count: target,
                speed_multiplier,
                crossing_spawns: usize::from(i % 3 == 0),
                seed: seed.wrapping_add(i as u64),
            });
            for o in world.objects() {
                if let Some(p) = prev.iter().find(|p| p.id == o.id) {
                    let dx = o.object.bbox.cx - p.object.bbox.cx;
                    let dy = o.object.bbox.cy - p.object.bbox.cy;
                    let bound = o.object.class.max_speed_mps() * dt * speed_multiplier;
                    prop_assert!(
                        (dx * dx + dy * dy).sqrt() <= bound + 1e-9,
                        "object {} moved {} > {}", o.id, (dx * dx + dy * dy).sqrt(), bound
                    );
                }
            }
            prev = world.objects().to_vec();
        }
    }
}

proptest! {
    // Drive-level properties regenerate whole frames (LiDAR sampling +
    // pillarisation), so they run a handful of seeds rather than the
    // default case count.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same seed reproduces an identical drive, for both the legacy
    /// i.i.d. mode and the persistent scripted scenarios.
    #[test]
    fn same_seed_gives_identical_drives(seed in 0u64..100_000) {
        for scenario in [NamedScenario::Constant, NamedScenario::StopAndGo] {
            let build = || DriveScenario::named(DatasetPreset::kitti_like(), scenario, 4, seed);
            let (a, b) = (build().frames(), build().frames());
            prop_assert_eq!(a.len(), b.len());
            for (fa, fb) in a.iter().zip(&b) {
                prop_assert_eq!(fa.frame.num_points, fb.frame.num_points);
                prop_assert_eq!(
                    &fa.frame.pillars.active_coords,
                    &fb.frame.pillars.active_coords
                );
                prop_assert_eq!(fa.pillar_overlap, fb.pillar_overlap);
            }
        }
    }

    /// Consecutive-frame active-pillar overlap is high for persistent
    /// scenarios (the temporal locality the scenario layer exists to
    /// create) and near the i.i.d. baseline for legacy `Constant` drives.
    #[test]
    fn persistent_drives_have_temporal_locality_iid_drives_do_not(seed in 0u64..100_000) {
        let persistent = DriveScenario::named(
            DatasetPreset::kitti_like(), NamedScenario::Urban, 4, seed);
        let iid = DriveScenario::named(
            DatasetPreset::kitti_like(), NamedScenario::Constant, 4, seed);
        let persistent_overlap = DriveScenario::mean_overlap_of(&persistent.frames());
        let iid_overlap = DriveScenario::mean_overlap_of(&iid.frames());
        prop_assert!(persistent_overlap >= 0.5, "persistent {persistent_overlap}");
        prop_assert!(iid_overlap < 0.2, "i.i.d. baseline {iid_overlap}");
    }

    /// On real drive data — every frame of every named scenario, for every
    /// convolution kind and kernel shape the zoo uses — the output set of
    /// the row-bitmap sweep (`rulegen::output_coords`) and the analytic
    /// `count_rules` agree with the rule book the RGU reference builds.
    #[test]
    fn rule_generation_paths_agree_on_every_named_scenario(seed in 0u64..100_000) {
        let cases = [
            (ConvKind::SpConv, KernelShape::k3x3()),
            (ConvKind::SpConvS, KernelShape::k3x3()),
            (ConvKind::SpConvP, KernelShape::k3x3()),
            (ConvKind::SpStConv, KernelShape::k3x3()),
            (ConvKind::SpDeconv, KernelShape::k2x2()),
            (ConvKind::Dense, KernelShape::k3x3()),
            (ConvKind::SpConv, KernelShape::k1x1()),
            (ConvKind::SpConvS, KernelShape::k1x1()),
            (ConvKind::SpStConv, KernelShape::k1x1()),
        ];
        for scenario in NamedScenario::ALL {
            let drive = DriveScenario::named(DatasetPreset::kitti_like(), scenario, 3, seed);
            // Downsample the BEV coordinates 8x so a whole scenario sweep of
            // 9 kind/kernel cases stays fast while preserving the drive's
            // structure (moved pillars, appearing/vanishing rows).
            let base = DatasetPreset::kitti_like().grid_shape();
            let grid = GridShape::new(base.height / 8, base.width / 8);
            for f in drive.frames() {
                let coords: Vec<PillarCoord> = f
                    .frame
                    .pillars
                    .active_coords
                    .iter()
                    .map(|c| PillarCoord::new(c.row / 8, c.col / 8))
                    .collect();
                let t = CprTensor::from_coords(grid, 1, &coords);
                for (kind, kernel) in cases {
                    let book = rulegen::generate_rules(&t, kind, kernel);
                    prop_assert_eq!(
                        book.output_coords(),
                        rulegen::output_coords(&t, kind, kernel),
                        "{}: output coords drifted for {} {:?}", scenario, kind, kernel
                    );
                    if kind != ConvKind::Dense {
                        let counted = spade::nn::graph::count_rules(
                            &t.coords(),
                            grid,
                            rulegen::output_grid(grid, kind),
                            kind,
                            kernel,
                        );
                        prop_assert_eq!(
                            counted,
                            book.num_rules() as u64,
                            "{}: count drifted for {} {:?}", scenario, kind, kernel
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-protocol properties (PR 7): the spade-serve request encoding must
// round-trip every expressible sweep exactly, and the service cache key
// must not care how the client ordered (or duplicated) its axes.

mod protocol_props {
    use super::*;
    use spade::core::DataflowOptions;
    use spade::nn::ModelKind;
    use spade::pointcloud::DensityProfile;
    use spade_bench::dse::{DseParams, SweepAxes};
    use spade_bench::protocol::{cache_key, canonicalize_params, decode_params, encode_params};
    use spade_bench::WorkloadScale;

    /// A tiny deterministic stream (splitmix64) that expands one seed into a
    /// whole `DseParams` — the vendored proptest stub only samples scalar
    /// ranges, so structured values are derived from a sampled seed.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Positive grid-step float: k/16 for k in 1..=64 (round-trips are
        /// exact for *any* finite f64; the grid just keeps values readable).
        fn step(&mut self) -> f64 {
            (self.below(64) + 1) as f64 / 16.0
        }

        fn vec<T>(&mut self, max_len: u64, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let n = self.below(max_len) + 1;
            (0..n).map(|_| f(self)).collect()
        }
    }

    fn params_from_seed(seed: u64) -> DseParams {
        let mut s = Stream(seed);
        let axes = SweepAxes {
            pe_dims: s.vec(3, |s| {
                ((s.below(96) + 1) as usize, (s.below(96) + 1) as usize)
            }),
            sram_scales: s.vec(3, Stream::step),
            freq_ghz: s.vec(3, Stream::step),
            dram_bytes_per_cycle: s.vec(3, Stream::step),
            buffer_splits: s.vec(3, |s| s.below(10) as f64 / 10.0),
            sram_banks: s.vec(3, |s| (s.below(16) + 1) as u32),
            dataflow: s.vec(3, |s| {
                let mask = s.below(8);
                DataflowOptions {
                    weight_grouping: mask & 1 != 0,
                    ganged_scatter: mask & 2 != 0,
                    adaptive_tiling: mask & 4 != 0,
                }
            }),
        };
        let models = s.vec(3, |s| ModelKind::ALL[s.below(11) as usize]);
        let profile = match s.below(3) {
            0 => DensityProfile::Constant,
            1 => DensityProfile::Ramp {
                start: s.step(),
                end: s.step(),
            },
            _ => DensityProfile::Peak {
                base: s.step(),
                peak: s.step(),
            },
        };
        let scenario = {
            let all = spade::pointcloud::NamedScenario::ALL;
            match s.below(all.len() as u64 + 1) {
                0 => None,
                k => Some(all[(k - 1) as usize]),
            }
        };
        DseParams {
            scale: if s.below(2) == 0 {
                WorkloadScale::Full
            } else {
                WorkloadScale::Reduced
            },
            axes,
            models,
            num_frames: (s.below(5) + 1) as usize,
            base_seed: s.next(),
            profile,
            scenario,
            adaptive: s.below(2) == 0,
        }
    }

    /// Rotates and (optionally) reverses every axis: a pure reordering that
    /// must not change what the sweep means.
    fn reorder(params: &DseParams, rot: usize, rev: bool) -> DseParams {
        fn scramble<T>(v: &mut [T], rot: usize, rev: bool) {
            if v.is_empty() {
                return;
            }
            let k = rot % v.len();
            v.rotate_left(k);
            if rev {
                v.reverse();
            }
        }
        let mut out = params.clone();
        scramble(&mut out.models, rot, rev);
        scramble(&mut out.axes.pe_dims, rot, rev);
        scramble(&mut out.axes.sram_scales, rot, rev);
        scramble(&mut out.axes.freq_ghz, rot, rev);
        scramble(&mut out.axes.dram_bytes_per_cycle, rot, rev);
        scramble(&mut out.axes.buffer_splits, rot, rev);
        scramble(&mut out.axes.sram_banks, rot, rev);
        scramble(&mut out.axes.dataflow, rot, rev);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary params encode → decode to the identical value: the wire
        /// form loses nothing (floats travel via shortest-round-trip
        /// formatting, so fractional values survive exactly).
        #[test]
        fn params_encode_decode_is_the_identity(seed in 0u64..u64::MAX) {
            let params = params_from_seed(seed);
            let encoded = encode_params(&params);
            let decoded = decode_params(&encoded).expect("decode of own encoding");
            prop_assert_eq!(decoded, params);
        }

        /// Params differing only in axis order — or in duplicated axis
        /// values, which the sweep ignores — canonicalize to the same cache
        /// key and the same executable form, so the server answers every
        /// spelling of a sweep with one cached, byte-identical result.
        #[test]
        fn cache_key_ignores_axis_order_and_duplicates(seed in 0u64..u64::MAX) {
            let params = params_from_seed(seed);
            let rot = (seed >> 7) as usize % 8;
            let rev = seed & 1 == 1;
            let reordered = reorder(&params, rot, rev);
            prop_assert_eq!(cache_key(&params), cache_key(&reordered));
            prop_assert_eq!(
                canonicalize_params(&params),
                canonicalize_params(&reordered)
            );
            // Duplicating an axis value changes the encoding but not the key.
            let mut duplicated = params.clone();
            duplicated.models.push(duplicated.models[0]);
            duplicated.axes.sram_scales.push(duplicated.axes.sram_scales[0]);
            duplicated.axes.pe_dims.push(duplicated.axes.pe_dims[0]);
            assert_ne!(encode_params(&params), encode_params(&duplicated));
            prop_assert_eq!(cache_key(&params), cache_key(&duplicated));
            // Canonicalisation is idempotent: a canonical form is its own key.
            let canonical = canonicalize_params(&params);
            prop_assert_eq!(encode_params(&canonical), cache_key(&params));
        }
    }
}
