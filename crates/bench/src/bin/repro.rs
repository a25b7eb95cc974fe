//! `repro <figure>|all` renders the rows of one paper figure, table or
//! ablation set (see `neon_bench`) as text into `results/<figure>.txt` and
//! as markdown between the `<!-- repro:<figure> -->` and
//! `<!-- /repro:<figure> -->` markers of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p neon-bench --bin repro -- fig7
//! cargo run --release -p neon-bench --bin repro -- all
//! ```

use std::path::Path;

use neon_bench::*;
use neon_core::LayoutPolicy;
use neon_sys::{Backend, SimTime};

type Render = fn() -> Figure;

/// Every figure `repro` renders, by name.
const FIGURES: [(&str, Render); 9] = [
    ("fig1", fig1),
    ("fig4", fig4),
    ("table1", table1),
    ("table2", table2),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("ablations", ablations),
    ("collectives", collectives),
];

/// A titled table whose header and rows are `|`-separated cells.
struct Table {
    title: String,
    headers: &'static str,
    rows: Vec<String>,
}

impl Table {
    fn new(title: impl Into<String>, headers: &'static str) -> Self {
        let title = title.into();
        let rows = Vec::new();
        Table {
            title,
            headers,
            rows,
        }
    }

    fn row(&mut self, cells: String) {
        self.rows.push(cells);
    }

    fn cells(&self) -> Vec<Vec<&str>> {
        let rows = std::iter::once(self.headers).chain(self.rows.iter().map(String::as_str));
        let cells: Vec<Vec<&str>> = rows.map(|r| r.split('|').collect()).collect();
        assert!(
            cells.iter().all(|r| r.len() == cells[0].len()),
            "ragged {}",
            self.title
        );
        cells
    }

    /// Right-aligned columns, the header over a dashed rule.
    fn text(&self) -> String {
        let cells = self.cells();
        let mut widths = vec![0; cells[0].len()];
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.chars().count());
            }
        }
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let mut out = format!("== {} ==\n", self.title);
        for (i, row) in cells.iter().enumerate() {
            let padded: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out += &(padded.join("  ") + "\n");
            if i == 0 {
                out += &(rule.clone() + "\n");
            }
        }
        out + "\n"
    }

    fn markdown(&self) -> String {
        let mut out = format!("*{}*\n\n", self.title);
        for (i, row) in self.cells().iter().enumerate() {
            out += &format!("| {} |\n", row.join(" | "));
            if i == 0 {
                out += &format!("|{}\n", "---|".repeat(row.len()));
            }
        }
        out + "\n"
    }
}

/// A rendered figure: tables (text and markdown) plus text-only extras
/// such as timelines.
struct Figure {
    tables: Vec<Table>,
    extra: String,
}

fn tables(tables: Vec<Table>) -> Figure {
    let extra = String::new();
    Figure { tables, extra }
}

fn us(t: SimTime) -> String {
    format!("{:.1}", t.as_us())
}

fn gib(bytes: u64, digits: usize) -> String {
    format!("{:.digits$}", bytes as f64 / (1u64 << 30) as f64)
}

fn fig1() -> Figure {
    let rows = neon_bench::fig1();
    let headers = "level|makespan (us)|speedup over (a)";
    let mut t = Table::new("Fig. 1: map + stencil on 2 PCIe GPUs", headers);
    let mut extra = String::from(
        "timelines: kernel spans show their first letter (m = map, s = stencil),\n\
         '~' = halo transfer, lanes are (device, stream)\n\n",
    );
    let labels = ["(a) no OCC", "(b) standard OCC", "(c) extended OCC"];
    for (r, label) in rows.iter().zip(labels) {
        let speedup = rows[0].makespan.as_us() / r.makespan.as_us();
        t.row(format!("{label}|{}|{speedup:.3}x", us(r.makespan)));
        extra += &format!("--- {label} ---\n{}\n", r.trace.ascii_timeline(72));
    }
    let tables = vec![t];
    Figure { tables, extra }
}

fn fig4() -> Figure {
    let f = neon_bench::fig4();
    let mut extra = String::new();
    for (name, g) in [
        ("4b dependency graph", &f.dependency),
        ("4c multi-GPU graph", &f.multigpu),
        ("4d two-way extended OCC graph", &f.two_way_occ),
    ] {
        extra += &format!("== Fig. {name} ==\n");
        for (i, n) in g.nodes().iter().enumerate() {
            extra += &format!("  n{i}: {} [{:?}]\n", n.name, n.kind);
        }
        for e in g.edges() {
            let (from, to) = (&g.node(e.from).name, &g.node(e.to).name);
            extra += &format!("  {from} -> {to}  ({:?})\n", e.kind);
        }
        extra.push('\n');
    }
    extra += "== Fig. 5: BFS levels over data edges (stream mapping) ==\n";
    let occ = &f.two_way_occ;
    for (i, level) in occ.bfs_levels(false).iter().enumerate() {
        let names: Vec<&str> = level.iter().map(|&n| occ.node(n).name.as_str()).collect();
        extra += &format!("  level {i}: {}\n", names.join(", "));
    }
    extra += "\n== Fig. 6: scheduled task list ==\n";
    extra += &f.schedule.render(occ);
    let tables = Vec::new();
    Figure { tables, extra }
}

fn table1() -> Figure {
    let mut t = Table::new(
        "Table I: Neon vs Taichi, 2-D Karman vortex (D2Q9), 1x A100",
        "domain|Neon (MLUPS)|Taichi (MLUPS)|speedup|paper",
    );
    let paper = ["1.14", "0.99", "0.98", "0.999"];
    for (r, paper) in neon_bench::table1().iter().zip(paper) {
        let (neon, taichi, s) = (r.neon_mlups, r.taichi_mlups, r.speedup());
        let domain = format!("{} x {}", r.nx, r.ny);
        t.row(format!("{domain}|{neon:.1}|{taichi:.1}|{s:.3}|{paper}"));
    }
    tables(vec![t])
}

fn table2() -> Figure {
    let rows = neon_bench::table2();
    let mut t = Table::new(
        "Table II: D3Q19 lid-driven cavity, 256^3, 1x A100",
        "implementation|MLUPS|Neon / impl",
    );
    for (name, m) in &rows {
        t.row(format!("{name}|{m:.1}|{:.3}", rows[0].1 / m));
    }
    tables(vec![t])
}

fn fig7() -> Figure {
    let layouts = [
        (
            LayoutPolicy::FixedSoA,
            "SoA populations (the paper's layout)",
        ),
        (LayoutPolicy::Auto, "layout-select's pick (AoS on 8 GPUs)"),
    ];
    tables(Vec::from(layouts.map(|(layout, what)| {
        let mut t = Table::new(
            format!("Fig. 7: LBM twoPop on 8x A100 (NVLink), {what}"),
            "domain|t1 (us)|t8 noOCC|t8 OCC|eff noOCC|eff OCC|comm share",
        );
        for r in neon_bench::fig7(layout, &FIG7_SIZES) {
            let times = [r.t1, r.t8_none, r.t8_occ].map(us).join("|");
            let (none, occ, share) = (r.eff_none(), r.eff_occ(), 100.0 * r.comm_share());
            t.row(format!("{}^3|{times}|{none:.3}|{occ:.3}|{share:.0}%", r.n));
        }
        t
    })))
}

/// A Fig. 8 plot: one row per GPU count (`top`) or per grid edge.
fn fig8_table(title: &str, top: bool, rows: Vec<Fig8Row>) -> Table {
    let (headers, unit) = if top {
        ("GPUs|no-OCC|OCC|eOCC|2-eOCC|best", "")
    } else {
        ("grid|no-OCC|OCC|eOCC|2-eOCC|best", "^3")
    };
    let mut t = Table::new(title, headers);
    for r in rows {
        let eff: Vec<String> = r.eff.iter().map(|e| format!("{e:.3}")).collect();
        let best = r.best().label();
        t.row(format!("{}{unit}|{}|{best}", r.x, eff.join("|")));
    }
    t
}

fn fig8() -> Figure {
    let ndevs = [1, 2, 3, 4, 5, 6, 7, 8];
    let nvlink = fig8_top(Backend::dgx_a100, &ndevs);
    let pcie = fig8_top(Backend::gv100_pcie, &ndevs);
    let bottom = fig8_bottom(&FIG7_SIZES);
    tables(vec![
        fig8_table("Fig. 8 top: Poisson 320^3, DGX A100 (NVLink)", true, nvlink),
        fig8_table(
            "Fig. 8 top: Poisson 320^3, 8x GV100 (PCIe Gen3, host-staged)",
            true,
            pcie,
        ),
        fig8_table(
            "Fig. 8 bottom: Poisson on 8x A100 vs grid size",
            false,
            bottom,
        ),
    ])
}

fn fig9_table(name: &str, system: fn() -> Backend, sizes: [usize; 4]) -> Table {
    let mut t = Table::new(
        format!("Fig. 9: FEM elasticity, dense vs element-sparse, {name}"),
        "grid|ratio|dense t/iter|sparse t/iter|dense/sparse|dense GiB/dev|sparse GiB/dev",
    );
    let ms = |t: &neon_sys::Result<SimTime>| match t {
        Ok(t) => format!("{:.2} ms", t.as_ms()),
        Err(_) => "OOM".into(),
    };
    for n in sizes {
        for ratio in [1.0, 0.2] {
            let r = neon_bench::fig9(system, n, ratio);
            let speedup = match (&r.dense, &r.sparse) {
                (Ok(d), Ok(s)) => format!("{:.2}", d.as_us() / s.as_us()),
                _ => "-".into(),
            };
            let times = format!("{}|{}", ms(&r.dense), ms(&r.sparse));
            let mem = format!("{}|{}", gib(r.dense_bytes, 1), gib(r.sparse_bytes, 1));
            t.row(format!("{n}^3|{ratio:.1}|{times}|{speedup}|{mem}"));
        }
    }
    t
}

fn fig9() -> Figure {
    let dgx = [128, 256, 384, 512];
    tables(vec![
        fig9_table(
            "DGX A100, 8 GPUs (40 GB each)",
            || Backend::dgx_a100(8),
            dgx,
        ),
        fig9_table(
            "one GV100 (32 GB)",
            || Backend::gv100_pcie(1),
            [256, 384, 512, 640],
        ),
    ])
}

fn ablations() -> Figure {
    let mut t1 = Table::new(
        "Ablation 1: interconnect class (LBM cavity 256^3, SoA, 8 GPUs)",
        "interconnect|noOCC t/iter (us)|OCC t/iter (us)|OCC gain",
    );
    for (name, none, occ) in ablation_interconnect() {
        let gain = none.as_us() / occ.as_us();
        t1.row(format!("{name}|{}|{}|{gain:.2}x", us(none), us(occ)));
    }
    let mut t2 = Table::new(
        "Ablation 2: scheduling hints (map+stencil+dot, 8 PCIe GPUs, two-way OCC)",
        "scheduler|t/iter (us)",
    );
    for (hints, time) in ablation_hints() {
        let on = if hints { "on" } else { "off" };
        t2.row(format!("hints {on}|{}", us(time)));
    }
    let mut t3 = Table::new(
        "Ablation 3: SoA vs AoS halos (19-component stencil, 192^3, 4 GPUs)",
        "layout|halo transfers|t/iter (us)",
    );
    for (layout, transfers, time) in ablation_layout() {
        t3.row(format!("{layout:?}|{transfers}|{}", us(time)));
    }
    let mut t4 = Table::new(
        "Ablation 4: kernel bandwidth model (D3Q19 step 256^3, 8 GPUs, OCC)",
        "kernels on one device|t/iter (us)",
    );
    for (concurrent, time) in ablation_kernel_concurrency() {
        let name = match concurrent {
            true => "concurrent, full bandwidth each",
            false => "serialized (default)",
        };
        t4.row(format!("{name}|{}", us(time)));
    }
    let mut t5 = Table::new(
        "Ablation 5: halo coherency (D3Q19 step 256^3, 8 GPUs, NVLink)",
        "coherency model|noOCC t/iter (us)|OCC t/iter (us)",
    );
    for (name, none, occ) in ablation_unified_memory() {
        t5.row(format!("{name}|{}|{}", us(none), us(occ)));
    }
    let mut t6 = Table::new(
        "Ablation 6: data structures (FEM elasticity 256^3, ratio 0.2, 8 GPUs)",
        "data structure|t/iter (ms)|peak GiB/dev",
    );
    for (name, time, peak) in ablation_data_structures() {
        t6.row(format!("{name}|{:.2}|{}", time.as_ms(), gib(peak, 2)));
    }
    let mut t7 = Table::new(
        "Ablation 7: heterogeneous node (2x A100 + 2x GV100, 7-pt stencil 256^3)",
        "partitioning|layers per device|t/iter (us)",
    );
    for (name, layers, time) in ablation_heterogeneous() {
        let layers: Vec<String> = layers.iter().map(usize::to_string).collect();
        t7.row(format!("{name}|{}|{}", layers.join("/"), us(time)));
    }
    let mut t8 = Table::new(
        "Ablation 8: the plan cache (Poisson CG, 8 GPUs)",
        "solver build|t/iter (us)|iteration plan",
    );
    for (name, time, hit) in ablation_plan_cache() {
        let plan = if hit { "hit" } else { "miss" };
        t8.row(format!("{name}|{}|{plan}", us(time)));
    }
    tables(vec![t1, t2, t3, t4, t5, t6, t7, t8])
}

fn message(b: u64) -> String {
    match b {
        b if b >= 1 << 20 => format!("{} MiB", b >> 20),
        b if b >= 1 << 10 => format!("{} KiB", b >> 10),
        b => format!("{b} B"),
    }
}

fn collectives() -> Figure {
    let mut out = Vec::new();
    let systems = [
        ("DGX-A100 (NVLink all-to-all)", nvlink as fn(usize) -> _),
        ("PCIe box (host root complex)", pcie),
    ];
    for (name, topo) in systems {
        let mut t = Table::new(
            format!("All-reduce makespan (us), {name}"),
            "devices|message|host-staged|ring|tree|auto picks",
        );
        for r in all_reduce_sweep(topo) {
            let times = [r.host_staged, r.ring, r.tree].map(us).join("|");
            let (ndev, bytes, auto) = (r.ndev, message(r.bytes), r.auto);
            t.row(format!("{ndev}|{bytes}|{times}|{auto}"));
        }
        out.push(t);
    }
    let mut t = Table::new(
        "16 MiB all-reduce on NVLink islands joined through the host",
        "islands|flat pick|flat (us)|hier (us)|win|flat slow MB|hier slow MB|auto",
    );
    for r in island_all_reduce(ISLAND_SHAPES) {
        let (flat, hier) = (r.flat_time.as_us(), r.hier_time.as_us());
        let win = 100.0 * (1.0 - hier / flat);
        let slow = [r.flat_slow_bytes, r.hier_slow_bytes].map(|b| format!("{:.1}", b as f64 / 1e6));
        let (shape, pick, slow, auto) = (&r.shape, r.flat, slow.join("|"), r.auto);
        t.row(format!(
            "{shape:?}|{pick}|{flat:.0}|{hier:.0}|{win:.1}%|{slow}|{auto}"
        ));
    }
    out.push(t);
    let c = contention();
    let mut t = Table::new(
        "Two 1 MiB PCIe peer copies through the host root complex",
        "issue|makespan (us)|contention events",
    );
    t.row(format!("one copy alone|{}|0", us(c.single)));
    t.row(format!(
        "two, simultaneous|{}|{}",
        us(c.simultaneous),
        c.events
    ));
    t.row(format!("two, one stream|{}|0", us(c.serialized)));
    out.push(t);
    tables(out)
}

fn main() -> std::io::Result<()> {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<_> = FIGURES
        .iter()
        .filter(|f| arg == "all" || arg == f.0)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        eprintln!("usage: repro <{}|all>", names.join("|"));
        std::process::exit(2);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let experiments = root.join("EXPERIMENTS.md");
    let mut doc = std::fs::read_to_string(&experiments)?;
    for (name, render) in chosen {
        let fig = render();
        let text = fig.tables.iter().map(Table::text).collect::<String>() + &fig.extra;
        print!("{text}");
        std::fs::write(root.join(format!("results/{name}.txt")), text)?;
        if fig.tables.is_empty() {
            continue;
        }
        let open = format!("<!-- repro:{name} -->\n");
        let start = doc.find(&open).expect("EXPERIMENTS.md lacks the marker") + open.len();
        let len = doc[start..].find(&format!("<!-- /repro:{name} -->"));
        let md: String = fig.tables.iter().map(Table::markdown).collect();
        doc.replace_range(start..start + len.expect("unclosed marker"), &md);
    }
    std::fs::write(&experiments, doc)
}
