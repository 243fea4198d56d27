//! Cross-crate integration: full application pipelines through the public
//! facade, on both executors, validated end to end.

use mic_streams::apps::{cholesky, hotspot, kmeans, mm, nn, srad, util};
use mic_streams::hstreams::Context;
use mic_streams::micsim::PlatformConfig;

#[test]
fn all_six_apps_validate_natively_through_the_facade() {
    // MM
    {
        let cfg = mm::MmConfig {
            n: 48,
            tiles_per_dim: 3,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = mm::build(&mut ctx, &cfg).unwrap();
        let (a, b) = mm::fill_inputs(&ctx, &cfg, &bufs, 1).unwrap();
        ctx.run_native().unwrap();
        let c = mm::collect_result(&ctx, &cfg, &bufs).unwrap();
        util::assert_close(&c.data, &mm::reference(&a, &b).data, 2e-3, "mm");
    }
    // CF
    {
        let cfg = cholesky::CfConfig {
            n: 36,
            tiles_per_dim: 3,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(3)
            .build()
            .unwrap();
        let bufs = cholesky::build(&mut ctx, &cfg).unwrap();
        let a = cholesky::fill_inputs(&ctx, &cfg, &bufs, 2).unwrap();
        ctx.run_native().unwrap();
        let l = cholesky::collect_result(&ctx, &cfg, &bufs).unwrap();
        util::assert_close(&l, &cholesky::reference(&a, cfg.n), 2e-3, "cf");
    }
    // Kmeans
    {
        let cfg = kmeans::KmeansConfig {
            points: 256,
            dims: 4,
            k: 4,
            iterations: 4,
            tiles: 4,
            alloc_micros: 5,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = kmeans::build(&mut ctx, &cfg).unwrap();
        let data = kmeans::fill_inputs(&ctx, &cfg, &bufs, 3).unwrap();
        ctx.run_native().unwrap();
        util::assert_close(
            &ctx.read_host(bufs.centroids).unwrap(),
            &kmeans::reference(&cfg, &data),
            1e-3,
            "kmeans",
        );
    }
    // Hotspot
    {
        let cfg = hotspot::HotspotConfig {
            rows: 20,
            cols: 16,
            iterations: 4,
            tiles: 3,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = hotspot::build(&mut ctx, &cfg).unwrap();
        let (t0, p0) = hotspot::fill_inputs(&ctx, &cfg, &bufs, 4).unwrap();
        ctx.run_native().unwrap();
        util::assert_close(
            &hotspot::collect_result(&ctx, &cfg, &bufs).unwrap(),
            &hotspot::reference(&cfg, &t0, &p0),
            1e-3,
            "hotspot",
        );
    }
    // NN
    {
        let cfg = nn::NnConfig {
            records: 1024,
            tiles: 4,
            k: 5,
            target: (40.0, 120.0),
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = nn::build(&mut ctx, &cfg).unwrap();
        let data = nn::fill_inputs(&ctx, &cfg, &bufs, 5).unwrap();
        ctx.run_native().unwrap();
        let got = nn::select_neighbors(&ctx, &cfg, &bufs).unwrap();
        assert_eq!(got, nn::reference(&cfg, &data));
    }
    // SRAD
    {
        let cfg = srad::SradConfig {
            rows: 18,
            cols: 14,
            lambda: 0.5,
            iterations: 3,
            tiles: 3,
        };
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(2)
            .build()
            .unwrap();
        let bufs = srad::build(&mut ctx, &cfg).unwrap();
        let img = srad::fill_inputs(&ctx, &cfg, &bufs, 6).unwrap();
        ctx.run_native().unwrap();
        util::assert_close(
            &srad::collect_result(&ctx, &cfg, &bufs).unwrap(),
            &srad::reference(&cfg, &img),
            5e-3,
            "srad",
        );
    }
}

#[test]
fn sim_and_native_agree_on_program_semantics() {
    // The same event/barrier-ordered program must produce the same data
    // natively, and the simulator must accept it (same validation path) and
    // honour the orderings in its timeline.
    let build = || {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(3)
            .build()
            .unwrap();
        let x = ctx.alloc("x", 8);
        let y = ctx.alloc("y", 8);
        let z = ctx.alloc("z", 8);
        let (s0, s1, s2) = (
            ctx.stream(0).unwrap(),
            ctx.stream(1).unwrap(),
            ctx.stream(2).unwrap(),
        );
        use mic_streams::hstreams::kernel::KernelDesc;
        use mic_streams::micsim::compute::KernelProfile;
        let prof = || KernelProfile::streaming("k", 1e9);
        ctx.kernel(
            s0,
            KernelDesc::simulated("fill", prof(), 8.0)
                .writing([x])
                .with_native(|k| k.writes[0].iter_mut().for_each(|v| *v = 2.0)),
        )
        .unwrap();
        let e = ctx.record_event(s0).unwrap();
        ctx.wait_event(s1, e).unwrap();
        ctx.kernel(
            s1,
            KernelDesc::simulated("double", prof(), 8.0)
                .reading([x])
                .writing([y])
                .with_native(|k| {
                    for (o, i) in k.writes[0].iter_mut().zip(k.reads[0]) {
                        *o = i * 3.0;
                    }
                }),
        )
        .unwrap();
        ctx.barrier();
        ctx.kernel(
            s2,
            KernelDesc::simulated("sum", prof(), 8.0)
                .reading([x, y])
                .writing([z])
                .with_native(|k| {
                    for i in 0..k.writes[0].len() {
                        k.writes[0][i] = k.reads[0][i] + k.reads[1][i];
                    }
                }),
        )
        .unwrap();
        ctx.d2h(s2, z).unwrap();
        (ctx, z)
    };

    let (ctx, z) = build();
    let sim = ctx.run_sim().unwrap();
    // Timeline ordering: "sum" starts after both "fill" and "double" end.
    let rec = |name: &str| {
        sim.timeline
            .records
            .iter()
            .find(|r| sim.label(r) == name)
            .copied()
            .unwrap()
    };
    assert!(rec("sum").start >= rec("fill").finish);
    assert!(rec("sum").start >= rec("double").finish);

    let (ctx2, z2) = build();
    ctx2.run_native().unwrap();
    assert_eq!(ctx2.read_host(z2).unwrap(), vec![8.0; 8]);
    let _ = z;
}

#[test]
fn overlappable_flow_beats_staged_flow_in_sim() {
    use mic_streams::hstreams::plan::{enqueue_tiles, FlowMode, TileTask};
    use mic_streams::hstreams::KernelDesc;
    use mic_streams::micsim::compute::KernelProfile;

    let makespan = |mode| {
        let mut ctx = Context::builder(PlatformConfig::phi_31sp())
            .partitions(4)
            .build()
            .unwrap();
        let tasks: Vec<TileTask> = (0..12)
            .map(|t| {
                let a = ctx.alloc(format!("a{t}"), 1 << 20);
                let b = ctx.alloc(format!("b{t}"), 1 << 20);
                TileTask {
                    inputs: vec![a],
                    kernel: KernelDesc::simulated(
                        format!("k{t}"),
                        KernelProfile::streaming("k", 0.32e9),
                        (1 << 20) as f64 * 40.0,
                    )
                    .reading([a])
                    .writing([b]),
                    outputs: vec![b],
                }
            })
            .collect();
        enqueue_tiles(&mut ctx, tasks, mode).unwrap();
        ctx.run_sim().unwrap().makespan()
    };
    assert!(makespan(FlowMode::Overlappable) < makespan(FlowMode::Staged));
}

#[test]
fn tuner_integrates_with_apps() {
    use mic_streams::apps::tunable::TunableKmeans;
    use mic_streams::tune::{RepeatPolicy, SimEvaluator, Strategy, TuneBounds, Tuner};

    let bounds = TuneBounds {
        max_partitions: 8,
        max_tiles: 32,
        max_multiple: 4,
    };
    let platform = PlatformConfig::phi_31sp();
    let mut app = TunableKmeans::new(16_000, 8, 3, None);
    let mut eval = SimEvaluator::new(platform.clone()).unwrap();
    let out = Tuner::new(RepeatPolicy::sim()).tune(
        &mut app,
        &mut eval,
        &platform,
        &bounds,
        Strategy::Pruned,
    );
    assert!(out.evaluator_calls > 0);
    assert!(out.winner_seconds > 0.0);
    assert!(out.winner.0 >= 2 && 56 % out.winner.0 == 0);
}
