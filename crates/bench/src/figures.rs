//! The paper's figures and tables, one function per artifact.
//!
//! Each function owns the paper's parameters, runs on the platform it is
//! given and returns its [`Figure`]s. [`fig08_row`], [`fig09_point`] and
//! [`fig10_point`] compute one row, and [`fig09_panel`] and [`fig10_panel`]
//! the rows asked for, so a test computes only the rows it checks. Everything here is simulated,
//! so every number is deterministic.
//!
//! | id | artifact |
//! |---|---|
//! | `fig05` | Fig. 5 — H2D/D2H serialization, plus the full-duplex ablation |
//! | `fig06` | Fig. 6 — transfer/kernel overlap |
//! | `fig07` | Fig. 7 — resource granularity |
//! | `fig08` | Fig. 8 — w/ vs w/o for all six apps, winners, Sec. V-A summary |
//! | `fig09` | Fig. 9 — partition sweeps |
//! | `fig10` | Fig. 10 — tile sweeps |
//! | `fig11` | Fig. 11 — CF on multiple MICs |
//! | `sec5c` | Sec. V-C — exhaustive vs pruned vs model-seeded vs analytical `(P, T)` search |
//! | `ablation` | (ext) which modeled mechanism makes which figure |
//! | `ext_multi_mic_scaling` | (ext) Sec. VI on 1–4 cards |

use std::fmt::Display;

use hstreams::Context;
use mic_apps::hbench::{overlap_program, partition_program, transfer_program, OverlapVariant};
use mic_apps::tunable::{Tunable, TunableHbench};
use mic_apps::{cholesky, hotspot, kmeans, mm, nn, srad};
use micsim::compute::SmtScaling;
use micsim::{Duplex, PlatformConfig, SimDuration};
use stream_tune::candidates::{exhaustive_space, partition_candidates, pruned_space, TuneBounds};
use stream_tune::tuner::model_from_costs;
use stream_tune::{Evaluator, RepeatPolicy, SimEvaluator, Strategy, TuneOutcome, Tuner};

use crate::{Figure, Series};

/// A figure function: the paper's parameters on the given platform.
pub type FigureFn = fn(&PlatformConfig) -> Vec<Figure>;

/// Every figure function by id, with the paper's check the `figures`
/// binary prints after its tables.
pub const ALL: [(&str, FigureFn, &str); 10] = [
    ("fig05", fig05, "Paper check: ID flat ≈2.5 ms and CC flat ≈5.2 ms on the serial link ⇒ the two directions are serialized (paper finding #1)."),
    ("fig06", fig06, "Paper check: Kernel crosses Data near 40 iterations; Streamed lies strictly between Ideal and Data+Kernel (full overlap unattainable)."),
    ("fig07", fig07, "Paper check: U-shaped curve over P; the non-tiled ref bar is lower than every tiled configuration (finding #3)."),
    ("fig08", fig08, "Paper check: streamed wins for MM, CF, Kmeans and NN; Hotspot ≈0; SRAD loses on small images."),
    ("fig09", fig09, "Paper check: MM/CF peak at P ∈ {2,4,7,8,14,28,56}; Kmeans falls monotonically; Hotspot dips at P≈33-37; NN flattens after P=4; SRAD is U-shaped."),
    ("fig10", fig10, "Paper check: sharp cliff at T=1 (3 of 4 partitions idle); optimum at small multiples of P; decay at very large T; NN ~flat."),
    ("fig11", fig11, "Paper check: 2-mics > 1-mic but below projected (extra transfers + cross-card sync)."),
    ("sec5c", sec5c, "Paper check: the pruned candidate sets land within a few percent of the exhaustive optimum at a fraction of its evaluations."),
    ("ablation", ablation, "Without the core-sharing penalty the non-divisor dips of Fig. 9(a) vanish; with linear SMT Fig. 7's right tail flattens; without the allocation term Fig. 9(c)'s drop is nearly flat. Fig. 5's duplex ablation is fig05_duplex_ablation."),
    ("ext_multi_mic_scaling", ext_multi_mic_scaling, "Efficiency falls with card count: every extra card adds mirror transfers on the serial links and stretches the cross-card barriers (CF) / panel broadcast (MM). MM scales better than CF — fewer synchronization points."),
];

/// The simulated makespan of the program `build` records on a fresh
/// context of `p` partitions of `platform`: the one build-then-simulate
/// path of the six applications. `None` when it does not build or run.
fn makespan<B>(
    platform: &PlatformConfig,
    p: usize,
    build: impl FnOnce(&mut Context) -> hstreams::types::Result<B>,
) -> Option<SimDuration> {
    let mut ctx = Context::builder(platform.clone())
        .partitions(p)
        .build()
        .ok()?;
    build(&mut ctx).ok()?;
    Some(ctx.run_sim().ok()?.makespan())
}

/// A figure with one series per name and one row per `x`: `row(x)`
/// returns the row's label and its values, in series order.
fn sweep<X, L: Display>(
    mut fig: Figure,
    names: &[&str],
    xs: impl IntoIterator<Item = X>,
    mut row: impl FnMut(X) -> (L, Vec<f64>),
) -> Figure {
    fig.series = names.iter().map(|&name| Series::new(name)).collect();
    for x in xs {
        let (label, values) = row(x);
        for (series, y) in fig.series.iter_mut().zip(values) {
            series.push(&label, y);
        }
    }
    fig
}

/// Fig. 5 point: `hd` host→device and `dh` device→host 1 MB blocks, ms.
fn fig05_ms(platform: &PlatformConfig, hd: usize, dh: usize) -> f64 {
    transfer_program(platform.clone(), hd, dh, 1 << 20)
        .expect("build")
        .run_sim()
        .expect("sim")
        .makespan()
        .as_millis_f64()
}

/// Fig. 5 — do H2D and D2H transfers overlap? `CC` moves 16 blocks each
/// way, `IC` 0..16 H2D and 16 D2H, `CD` 16 H2D and 16..0 D2H, `ID` 0..16
/// H2D and the rest D2H. On the serial link ID is flat at the one-way
/// time and CC twice that. `fig05_duplex_ablation` runs the same sweep on
/// the platform with a full-duplex link: ID turns V-shaped.
pub fn fig05(platform: &PlatformConfig) -> Vec<Figure> {
    let mut duplex = platform.clone();
    duplex.link.duplex = Duplex::Full;
    [
        (
            platform,
            "fig05",
            "data transfer time over transferred blocks (serial Phi link)",
        ),
        (
            &duplex,
            "fig05_duplex_ablation",
            "same sweep on an idealized full-duplex link (ablation)",
        ),
    ]
    .into_iter()
    .map(|(cfg, id, title)| {
        let fig = Figure::new(id, title, "#blocks", "ms");
        sweep(fig, &["CC", "IC", "CD", "ID"], 0..=16usize, |x| {
            let run = |hd, dh| fig05_ms(cfg, hd, dh);
            (
                x,
                vec![run(16, 16), run(x, 16), run(16, 16 - x), run(x, 16 - x)],
            )
        })
    })
    .collect()
}

/// Fig. 6 point: hBench over 16 MiB arrays, `iters` kernel iterations,
/// the streamed variant over 4 partitions, ms.
fn fig06_ms(platform: &PlatformConfig, iters: usize, variant: OverlapVariant) -> f64 {
    overlap_program(platform.clone(), 4 << 20, iters, 4, variant)
        .expect("build")
        .run_sim()
        .expect("sim")
        .makespan()
        .as_millis_f64()
}

/// Fig. 6 — overlapping transfers with computation over 20..60 kernel
/// iterations: `Data` (transfers only), `Kernel` (kernel only),
/// `Data+Kernel` (one stream), `Streamed` (16 tiles, 4 partitions) and
/// `Ideal` = max(Data, Kernel). Streamed sits between Ideal and
/// Data+Kernel: overlap happens, full overlap does not (finding #2).
pub fn fig06(platform: &PlatformConfig) -> Vec<Figure> {
    let fig = Figure::new(
        "fig06",
        "overlap of data transfers and computation vs kernel iterations",
        "#iterations",
        "ms",
    );
    let names = ["Data", "Kernel", "Data+Kernel", "Streamed", "Ideal"];
    vec![sweep(fig, &names, (20..=60).step_by(5), |iters| {
        let run = |variant| fig06_ms(platform, iters, variant);
        let (data, kernel) = (run(OverlapVariant::Data), run(OverlapVariant::Kernel));
        let serial = run(OverlapVariant::DataKernel);
        let streamed = run(OverlapVariant::Streamed { tiles: 16 });
        (
            iters,
            vec![data, kernel, serial, streamed, data.max(kernel)],
        )
    })]
}

/// Fig. 7's partition counts.
pub const FIG07_PARTITIONS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Fig. 7 point: 128 blocks of 128 KiB, 100 kernel iterations, kernels
/// only, over `p` partitions; `tiled: false` is the non-streamed
/// reference. ms.
fn fig07_ms(platform: &PlatformConfig, p: usize, tiled: bool) -> f64 {
    partition_program(platform.clone(), 128, 32 << 10, 100, p, tiled)
        .expect("build")
        .run_sim()
        .expect("sim")
        .makespan()
        .as_millis_f64()
}

/// Fig. 7 — resource granularity for a non-overlappable kernel. The
/// reference is partition-independent; repeating it per row keeps the CSV
/// columns aligned (it plots as the paper's flat ref bar), and it beats
/// every tiled configuration (finding #3).
pub fn fig07(platform: &PlatformConfig) -> Vec<Figure> {
    let fig = Figure::new(
        "fig07",
        "kernel execution time vs number of partitions (128 tiles, 100 iters)",
        "#partitions",
        "ms",
    );
    let reference = fig07_ms(platform, 1, false);
    vec![sweep(
        fig,
        &["streamed+tiled", "ref (non-tiled)"],
        FIG07_PARTITIONS,
        |p| (p, vec![fig07_ms(platform, p, true), reference]),
    )]
}

/// The six applications of Figs. 8–10, each with its paper configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Matrix multiplication (GFLOPS).
    Mm,
    /// Cholesky factorization (GFLOPS).
    Cf,
    /// Kmeans, 34 dimensions, 8 clusters, 100 iterations (s).
    Kmeans,
    /// Hotspot, square grid, 50 iterations (s).
    Hotspot,
    /// Nearest neighbour, 10 neighbours (ms).
    Nn,
    /// SRAD, square image, λ = 0.5, 100 iterations (s).
    Srad,
}

/// What one [`App`] contributes to Figs. 8–10.
struct Spec {
    /// Panel suffix, e.g. `a_mm`.
    panel: &'static str,
    name: &'static str,
    unit: &'static str,
    /// Fig. 8's x-axis.
    axis: &'static str,
    /// Fig. 8's datasets.
    datasets: &'static [usize],
    /// The paper's average Fig. 8 gain (%), where it gives a number.
    paper_gain: Option<f64>,
    /// The dataset of Figs. 9 and 10.
    size: usize,
    /// Fig. 9's tiling.
    fig09_tiling: usize,
    /// Fig. 10's tilings.
    fig10_tilings: &'static [usize],
}

impl App {
    /// Panel order, (a) to (f).
    pub const ALL: [App; 6] = [
        App::Mm,
        App::Cf,
        App::Kmeans,
        App::Hotspot,
        App::Nn,
        App::Srad,
    ];

    fn spec(self) -> Spec {
        match self {
            App::Mm => Spec {
                panel: "a_mm",
                name: "MM",
                unit: "GFLOPS",
                axis: "dataset",
                datasets: &[2000, 4000, 6000, 8000, 10000, 12000],
                paper_gain: Some(8.3),
                size: 6000,
                fig09_tiling: 12,
                fig10_tilings: &[1, 2, 3, 4, 5, 6, 10, 12, 15, 20],
            },
            App::Cf => Spec {
                panel: "b_cf",
                name: "CF",
                unit: "GFLOPS",
                axis: "dataset",
                datasets: &[7200, 9600, 12000, 14400, 16800, 19200],
                paper_gain: Some(24.1),
                size: 9600,
                fig09_tiling: 12,
                fig10_tilings: &[2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20],
            },
            App::Kmeans => Spec {
                panel: "c_kmeans",
                name: "Kmeans",
                unit: "s",
                axis: "dataset",
                datasets: &[140_000, 280_000, 560_000, 1_120_000, 2_240_000],
                paper_gain: Some(24.1),
                size: 1_120_000,
                fig09_tiling: 56,
                fig10_tilings: &[1, 2, 4, 8, 16, 20, 28, 32, 56, 112, 224],
            },
            App::Hotspot => Spec {
                panel: "d_hotspot",
                name: "Hotspot",
                unit: "s",
                axis: "grid",
                datasets: &[1024, 2048, 4096, 8192, 16384],
                paper_gain: Some(0.0),
                size: 16384,
                fig09_tiling: 256,
                fig10_tilings: &[1, 4, 16, 64, 256, 1024, 2048, 4096, 8192, 16384],
            },
            App::Nn => Spec {
                panel: "e_nn",
                name: "NN",
                unit: "ms",
                axis: "records",
                datasets: &[128 << 10, 256 << 10, 512 << 10, 1024 << 10, 2048 << 10],
                paper_gain: Some(9.2),
                size: 5_242_880,
                fig09_tiling: 512,
                fig10_tilings: &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
            },
            App::Srad => Spec {
                panel: "f_srad",
                name: "SRAD",
                unit: "s",
                axis: "image",
                datasets: &[1000, 2000, 4000, 5000, 10000],
                paper_gain: None,
                size: 10000,
                fig09_tiling: 400,
                fig10_tilings: &[1, 4, 9, 16, 25, 100, 169, 400, 625, 2500, 10000],
            },
        }
    }

    /// Whether the app reports GFLOPS (higher is better) rather than time.
    fn gflops(self) -> bool {
        matches!(self, App::Mm | App::Cf)
    }

    /// Fig. 10's tilings: tiles per dimension for MM and CF, tiles for
    /// the others.
    pub fn fig10_tilings(self) -> &'static [usize] {
        self.spec().fig10_tilings
    }

    /// The tile count of the tiling knob `t`: MM and CF take tiles per
    /// dimension, the others a tile count.
    fn tiles(self, t: usize) -> usize {
        if self.gflops() {
            t * t
        } else {
            t
        }
    }

    /// Fig. 8's row label of `dataset`.
    fn label(self, dataset: usize) -> String {
        match self {
            App::Kmeans => format!("{}K", dataset / 1000),
            App::Nn => format!("{}k", dataset >> 10),
            _ => format!("{dataset}^2"),
        }
    }

    /// One simulated point: dataset `n` (matrix or grid edge, points or
    /// records) cut by the tiling knob `tiles` (see `App::tiles`) over `p`
    /// partitions. GFLOPS for MM and CF, the makespan otherwise (ms for
    /// NN, s for the rest); `None` when the tiling does not fit.
    fn run(self, platform: &PlatformConfig, n: usize, p: usize, tiles: usize) -> Option<f64> {
        let gflops = |flops: f64| move |m: SimDuration| flops / m.as_secs_f64() / 1e9;
        match self {
            App::Mm => {
                let tiles_per_dim = tiles;
                let cfg = mm::MmConfig { n, tiles_per_dim };
                makespan(platform, p, |ctx| mm::build(ctx, &cfg)).map(gflops(cfg.flops()))
            }
            App::Cf => {
                let tiles_per_dim = tiles;
                let cfg = cholesky::CfConfig { n, tiles_per_dim };
                makespan(platform, p, |ctx| cholesky::build(ctx, &cfg)).map(gflops(cfg.flops()))
            }
            App::Kmeans => {
                let base = kmeans::KmeansConfig::paper_fig9();
                let cfg = kmeans::KmeansConfig {
                    points: n,
                    tiles,
                    ..base
                };
                makespan(platform, p, |ctx| kmeans::build(ctx, &cfg)).map(SimDuration::as_secs_f64)
            }
            App::Hotspot => {
                let cfg = hotspot::HotspotConfig {
                    rows: n,
                    cols: n,
                    iterations: 50,
                    tiles,
                };
                makespan(platform, p, |ctx| hotspot::build(ctx, &cfg)).map(SimDuration::as_secs_f64)
            }
            App::Nn => {
                let base = nn::NnConfig::paper_fig9();
                let cfg = nn::NnConfig {
                    records: n,
                    tiles,
                    ..base
                };
                makespan(platform, p, |ctx| nn::build(ctx, &cfg)).map(SimDuration::as_millis_f64)
            }
            App::Srad => {
                let cfg = srad::SradConfig {
                    rows: n,
                    cols: n,
                    lambda: 0.5,
                    iterations: 100,
                    tiles,
                };
                makespan(platform, p, |ctx| srad::build(ctx, &cfg)).map(SimDuration::as_secs_f64)
            }
        }
    }

    /// Fig. 8's streamed tilings at `dataset` on `p` partitions (Sec. V-C:
    /// T a small multiple of P; MM and CF take the divisors of the edge).
    fn fig08_tilings(self, dataset: usize, p: usize) -> Vec<usize> {
        let per_dim: &[usize] = match self {
            App::Mm => &[2, 4, 5, 8, 10, 16, 20],
            App::Cf => &[6, 8, 10, 12, 16],
            _ => return vec![p, 2 * p, 4 * p],
        };
        per_dim
            .iter()
            .copied()
            .filter(|&t| dataset.is_multiple_of(t))
            .collect()
    }
}

/// Fig. 8's core-aligned partition candidates (Sec. V-C rule 1).
const FIG08_PARTITIONS: [usize; 5] = [2, 4, 7, 8, 28];

/// One Fig. 8 dataset: the non-streamed run and the best streamed one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig08Row {
    /// One stream, one tile.
    pub without: f64,
    /// The best streamed candidate.
    pub with: f64,
    /// Its partition count.
    pub p: usize,
    /// Its tile count.
    pub t: usize,
    /// Streamed improvement, %.
    pub gain: f64,
}

/// Fig. 8 point: `app` on `dataset` without streams and at its best
/// `(P, T)` over the Sec. V-C candidates — the paper "empirically
/// enumerates" its optimum the same way.
pub fn fig08_row(platform: &PlatformConfig, app: App, dataset: usize) -> Fig08Row {
    let without = app.run(platform, dataset, 1, 1).expect("w/o");
    let mut best: Option<(f64, usize, usize)> = None;
    for p in FIG08_PARTITIONS {
        for t in app.fig08_tilings(dataset, p) {
            let Some(v) = app.run(platform, dataset, p, t) else {
                continue;
            };
            let better = |b: f64| if app.gflops() { v > b } else { v < b };
            if best.is_none_or(|(b, ..)| better(b)) {
                best = Some((v, p, t));
            }
        }
    }
    let (with, p, t) = best.expect("no streamed candidate evaluated");
    let ratio = if app.gflops() {
        with / without
    } else {
        without / with
    };
    Fig08Row {
        without,
        with,
        p,
        t: app.tiles(t),
        gain: (ratio - 1.0) * 100.0,
    }
}

/// Fig. 8 — streamed (w/) vs non-streamed (w/o) versions of the six apps
/// over their datasets. `fig08_best` names the `(P, T)` each w/ value came
/// from and its gain; `fig08_summary` is Sec. V-A's average gain per app
/// against the paper's.
pub fn fig08(platform: &PlatformConfig) -> Vec<Figure> {
    let mut figs = Vec::new();
    let mut best = Vec::new();
    let mut summary = Vec::new();
    for app in App::ALL {
        let spec = app.spec();
        let gflops = if app.gflops() { " (GFLOPS)" } else { "" };
        let title = format!("{}: w/o vs w/{gflops}", spec.name);
        let fig = Figure::new(format!("fig08{}", spec.panel), title, spec.axis, spec.unit);
        let mut gains = Vec::new();
        figs.push(sweep(fig, &["w/o", "w/"], spec.datasets, |&d| {
            let row = fig08_row(platform, app, d);
            gains.push(row.gain);
            best.push((format!("{} {}", spec.name, app.label(d)), row));
            (app.label(d), vec![row.without, row.with])
        }));
        let mean = gains.iter().sum::<f64>() / gains.len() as f64;
        summary.push((spec.name, [Some(mean), spec.paper_gain]));
    }
    let fig = Figure::new(
        "fig08_best",
        "best streamed (P, T) per dataset",
        "dataset",
        "#, %",
    );
    figs.push(sweep(fig, &["P", "T", "gain"], best, |(label, r)| {
        (label, vec![r.p as f64, r.t as f64, r.gain])
    }));
    let fig = Figure::new(
        "fig08_summary",
        "Sec. V-A summary — average streamed improvement",
        "app",
        "%",
    );
    figs.push(sweep(
        fig,
        &["measured avg gain", "paper"],
        summary,
        |(name, gains)| (name, gains.into_iter().flatten().collect()),
    ));
    figs
}

/// Fig. 9's partition counts.
const FIG09_PARTITIONS: std::ops::RangeInclusive<usize> = 1..=56;

/// Fig. 9 point: `app` on its Figs. 9–10 dataset at its Fig. 9 tiling,
/// over `p` partitions.
pub fn fig09_point(platform: &PlatformConfig, app: App, p: usize) -> f64 {
    let spec = app.spec();
    app.run(platform, spec.size, p, spec.fig09_tiling)
        .expect("Fig. 9 point")
}

/// Fig. 9 panel of `app` over the partition counts `ps`.
pub fn fig09_panel(
    platform: &PlatformConfig,
    app: App,
    ps: impl IntoIterator<Item = usize>,
) -> Figure {
    let spec = app.spec();
    let title = if app.gflops() {
        let edge = spec.size / spec.fig09_tiling;
        format!(
            "{} GFLOPS vs partitions (D={}, T={edge}^2)",
            spec.name, spec.size
        )
    } else {
        format!("{} time vs partitions", spec.name)
    };
    let fig = Figure::new(format!("fig09{}", spec.panel), title, "P", spec.unit);
    sweep(fig, &[spec.name], ps, |p| {
        (p, vec![fig09_point(platform, app, p)])
    })
}

/// Fig. 9 — performance vs partitions, tiling fixed per the paper's
/// captions. MM/CF spike where P divides 56; Kmeans drops with P; Hotspot
/// is lowest at compact partitions; NN drops until P = 4, then is flat;
/// SRAD is U-shaped.
pub fn fig09(platform: &PlatformConfig) -> Vec<Figure> {
    App::ALL
        .iter()
        .map(|&app| fig09_panel(platform, app, FIG09_PARTITIONS))
        .collect()
}

/// Fig. 10 point: `app` on its Figs. 9–10 dataset at tiling `t` (tiles
/// per dimension for MM and CF, tiles for the others) over 4 partitions.
pub fn fig10_point(platform: &PlatformConfig, app: App, t: usize) -> f64 {
    app.run(platform, app.spec().size, 4, t)
        .expect("Fig. 10 point")
}

/// Fig. 10 panel of `app` over the tilings `ts` (as [`fig10_point`]'s),
/// labelled by tile count.
pub fn fig10_panel(
    platform: &PlatformConfig,
    app: App,
    ts: impl IntoIterator<Item = usize>,
) -> Figure {
    let spec = app.spec();
    let title = if app.gflops() {
        format!("{} GFLOPS vs tiles (D={}, P=4)", spec.name, spec.size)
    } else {
        format!("{} time vs tiles (P=4)", spec.name)
    };
    let fig = Figure::new(format!("fig10{}", spec.panel), title, "T", spec.unit);
    sweep(fig, &[spec.name], ts, |t| {
        (app.tiles(t), vec![fig10_point(platform, app, t)])
    })
}

/// Fig. 10 — performance vs tiles at P = 4: a cliff at T < P (idle
/// partitions), a broad optimum at small multiples of P, decay at very
/// large T (per-task launch overhead).
pub fn fig10(platform: &PlatformConfig) -> Vec<Figure> {
    App::ALL
        .iter()
        .map(|&app| fig10_panel(platform, app, app.fig10_tilings().iter().copied()))
        .collect()
}

/// The platform with `cards` identical cards.
fn with_cards(platform: &PlatformConfig, cards: usize) -> PlatformConfig {
    let mut cfg = platform.clone();
    cfg.device_count = cards;
    cfg
}

/// Fig. 11 — the same streamed CF on one and two cards against twice the
/// one-card throughput: two cards help but fall short, because separate
/// memories force extra tile transfers and cross-card syncs cost more.
pub fn fig11(platform: &PlatformConfig) -> Vec<Figure> {
    let two = with_cards(platform, 2);
    let fig = Figure::new(
        "fig11",
        "CF on one and two MICs vs the projected 2x",
        "dataset",
        "GFLOPS",
    );
    vec![sweep(
        fig,
        &["1-mic", "2-mics", "projected"],
        [(14000, 14), (16000, 16)],
        |(n, tpd)| {
            let gflops = |cfg: &PlatformConfig| App::Cf.run(cfg, n, 4, tpd).expect("Fig. 11 point");
            let one = gflops(platform);
            (format!("{n}^2"), vec![one, gflops(&two), 2.0 * one])
        },
    )]
}

/// Sec. VI extended: MM and CF on 1–4 cards, 4 partitions per card, with
/// scaling efficiency against the linear projection from one card.
pub fn ext_multi_mic_scaling(platform: &PlatformConfig) -> Vec<Figure> {
    let fig = Figure::new(
        "ext_multi_mic_scaling",
        "MM and CF GFLOPS on 1-4 simulated MICs (P=4 per card)",
        "cards",
        "GFLOPS",
    );
    let names = [
        "MM (n=8000, T=256)",
        "MM efficiency %",
        "CF (n=16000, T=256)",
        "CF efficiency %",
    ];
    let mut one_card = None;
    vec![sweep(fig, &names, 1..=4usize, |cards| {
        let cfg = with_cards(platform, cards);
        let mm = App::Mm.run(&cfg, 8000, 4, 16).expect("MM point");
        let cf = App::Cf.run(&cfg, 16000, 4, 16).expect("CF point");
        let (mm1, cf1) = *one_card.get_or_insert((mm, cf));
        let efficiency = |gf: f64, base: f64| gf / (base * cards as f64) * 100.0;
        (
            cards,
            vec![mm, efficiency(mm, mm1), cf, efficiency(cf, cf1)],
        )
    })]
}

/// Ablations of the platform model: which modeled mechanism makes which
/// figure. Fig. 9(a)'s MM sweep without the core-sharing penalty, Fig. 7
/// with a linear SMT curve, and Fig. 9(c)'s Kmeans (at 20 iterations)
/// without the per-invocation allocation cost. The serial-duplex ablation
/// is `fig05_duplex_ablation`.
pub fn ablation(platform: &PlatformConfig) -> Vec<Figure> {
    let mut no_sharing = platform.clone();
    no_sharing.compute.core_sharing_factor = 1.0;
    let mut linear_smt = platform.clone();
    linear_smt.compute.smt = SmtScaling {
        factor: [1.0, 2.0, 3.0, 4.0],
    };
    let kmeans_s = |alloc_micros, p| {
        let cfg = kmeans::KmeansConfig {
            iterations: 20,
            alloc_micros,
            ..kmeans::KmeansConfig::paper_fig9()
        };
        makespan(platform, p, |ctx| kmeans::build(ctx, &cfg))
            .expect("Kmeans point")
            .as_secs_f64()
    };
    let sharing = Figure::new(
        "ablation_sharing",
        "MM partition sweep with and without the core-sharing penalty",
        "P",
        "GFLOPS",
    );
    let smt = Figure::new(
        "ablation_smt",
        "Fig.7 sweep with the KNC SMT curve vs a linear curve",
        "P",
        "ms",
    );
    let alloc = Figure::new(
        "ablation_alloc",
        "Kmeans partition sweep with and without per-invocation allocation",
        "P",
        "s",
    );
    vec![
        sweep(
            sharing,
            &["penalty 0.5 (model)", "penalty off (ablation)"],
            [2, 4, 7, 8, 13, 16, 27, 28, 33, 56],
            |p| {
                (
                    p,
                    vec![
                        fig09_point(platform, App::Mm, p),
                        fig09_point(&no_sharing, App::Mm, p),
                    ],
                )
            },
        ),
        sweep(
            smt,
            &[
                "KNC curve (0.6/1.3/1.65/1.8)",
                "linear curve (1/2/3/4, ablation)",
            ],
            FIG07_PARTITIONS,
            |p| {
                (
                    p,
                    vec![fig07_ms(platform, p, true), fig07_ms(&linear_smt, p, true)],
                )
            },
        ),
        sweep(
            alloc,
            &["alloc 5us/thread (model)", "alloc 0 (ablation)"],
            [1, 2, 4, 8, 14, 28, 56],
            |p| (p, vec![kmeans_s(5, p), kmeans_s(0, p)]),
        ),
    ]
}

/// Sec. V-C's search bounds: P up to 56, T up to 224, T ≤ 8·P.
const SEC5C_BOUNDS: TuneBounds = TuneBounds {
    max_partitions: 56,
    max_tiles: 224,
    max_multiple: 8,
};

/// Sec. V-C — search-space pruning for `(P, T)` on the streamed hBench
/// pipeline (16 MiB, 50 kernel iterations): the exhaustive grid, the
/// paper's pruned candidate sets, the pruned sets in the analytical
/// model's order, and the model alone (its one pick, simulated once). Per
/// strategy: candidates, the winner, its makespan and its loss against
/// the exhaustive optimum, simulator evaluations, and the evaluation at
/// which the winner was first visited. Each strategy tunes a fresh app
/// and evaluator, so no strategy is served from another's cache.
pub fn sec5c(platform: &PlatformConfig) -> Vec<Figure> {
    let app = || TunableHbench::new(4 << 20, 50, None);
    let evaluator = || SimEvaluator::new(platform.clone()).expect("sim evaluator");
    let tune = |strategy| {
        Tuner::new(RepeatPolicy::sim()).tune(
            &mut app(),
            &mut evaluator(),
            platform,
            &SEC5C_BOUNDS,
            strategy,
        )
    };
    let first_hit = |out: &TuneOutcome| {
        1 + out
            .visit_order
            .iter()
            .position(|&c| c == out.winner)
            .expect("winner was visited")
    };
    let exhaustive = exhaustive_space(&SEC5C_BOUNDS).len();
    let pruned = pruned_space(&platform.device, &SEC5C_BOUNDS).len();
    // Per strategy: candidates, P, T, seconds, evaluations, first hit.
    let row = |candidates: usize, (p, t): (usize, usize), secs, evals: usize, hit: usize| {
        [
            candidates as f64,
            p as f64,
            t as f64,
            secs,
            evals as f64,
            hit as f64,
        ]
    };
    let mut rows: Vec<(&str, [f64; 6])> = [
        ("exhaustive", Strategy::Exhaustive, exhaustive),
        ("pruned (Sec. V-C)", Strategy::Pruned, pruned),
        ("model-seeded order", Strategy::ModelSeeded, pruned),
    ]
    .into_iter()
    .map(|(name, strategy, candidates)| {
        let out = tune(strategy);
        let hit = first_hit(&out);
        (
            name,
            row(
                candidates,
                out.winner,
                out.winner_seconds,
                out.evaluator_calls,
                hit,
            ),
        )
    })
    .collect();

    // The analytical model picks T* for each candidate P and the best of
    // those pairs; only that one point is simulated.
    let mut hbench = app();
    let costs = hbench
        .pipeline_costs()
        .expect("hBench is a linear pipeline");
    let model = model_from_costs(&costs, platform);
    let picks: Vec<(usize, usize)> =
        partition_candidates(&platform.device, SEC5C_BOUNDS.max_partitions)
            .into_iter()
            .map(|p| (p, model.optimal_tiles(p, SEC5C_BOUNDS.max_tiles)))
            .collect();
    let (p, t) = *picks
        .iter()
        .min_by(|a, b| {
            model
                .makespan(a.0, a.1)
                .total_cmp(&model.makespan(b.0, b.1))
        })
        .expect("a partition candidate");
    let seconds = evaluator()
        .evaluate(&mut hbench, p, t)
        .expect("model-chosen point is feasible")
        .seconds;
    rows.push(("analytical model", row(picks.len(), (p, t), seconds, 1, 1)));

    let best = rows[0].1[3];
    let fig = Figure::new(
        "sec5c",
        "(P, T) search strategies on the hBench pipeline (16 MiB, 50 iterations)",
        "strategy",
        "#, ms, %",
    );
    let names = [
        "candidates",
        "P",
        "T",
        "best ms",
        "vs exhaustive %",
        "evals",
        "first hit",
    ];
    vec![sweep(
        fig,
        &names,
        rows,
        |(name, [candidates, p, t, secs, evals, hit])| {
            let loss = (secs / best - 1.0) * 100.0;
            (name, vec![candidates, p, t, secs * 1e3, loss, evals, hit])
        },
    )]
}
