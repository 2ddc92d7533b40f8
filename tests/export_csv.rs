//! The CSV exporter writes a complete, well-formed series set for every
//! figure of a real study — and does so byte-identically no matter how
//! many times the report is rebuilt from the same crawl mirror.

use dissenter_repro::analysis::export::export_csv;
use dissenter_repro::analysis::report::{build_report_pooled_opts, ReportOptions};
use dissenter_repro::dissenter_core::{run_study, Study as DissenterStudy};
use dissenter_repro::synth;
use dissenter_repro::synth::config::Scale;
use std::collections::BTreeMap;
use std::path::Path;

/// Expected column count per exported file.
const SCHEMAS: [(&str, usize); 12] = [
    ("fig2_gab_growth.csv", 2),
    ("fig3_concentration.csv", 2),
    ("table1_flags.csv", 3),
    ("table2_domains.csv", 4),
    ("fig4_shadow_cdfs.csv", 4),
    ("fig5_votes.csv", 4),
    ("fig6_comment_ratios.csv", 2),
    ("fig7_communities.csv", 4),
    ("fig8a_severe_by_bias.csv", 4),
    ("fig8b_attack_by_bias.csv", 3),
    ("fig9a_degrees.csv", 2),
    ("fig9bc_toxicity_by_degree.csv", 4),
];

/// A minimal CSV: the header's column names and every row's cells.
/// Sufficient for these exports — no writer emits quoting or embedded
/// separators, which `parse` verifies by re-serializing exactly.
struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Parse `text`, enforcing rectangularity against the header.
fn parse(name: &str, text: &str) -> Csv {
    let mut lines = text.lines();
    let header: Vec<String> =
        lines.next().unwrap_or_else(|| panic!("{name}: empty file")).split(',').map(String::from).collect();
    let rows: Vec<Vec<String>> = lines
        .map(|line| {
            let cells: Vec<String> = line.split(',').map(String::from).collect();
            assert_eq!(cells.len(), header.len(), "{name}: ragged row {line:?}");
            cells
        })
        .collect();
    Csv { header, rows }
}

/// Re-serialize a parsed CSV into the writers' exact format.
fn unparse(csv: &Csv) -> String {
    let mut out = csv.header.join(",");
    out.push('\n');
    for row in &csv.rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

fn read_all(dir: &Path, files: &[String]) -> BTreeMap<String, String> {
    files
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.clone(), text)
        })
        .collect()
}

#[test]
fn export_writes_every_figure_series() {
    let cfg = DissenterStudy::builder()
        .scale(Scale::Custom(0.0015))
        .svm(false)
        .build()
        .expect("export config is valid");
    let study = run_study(&cfg);

    let base = std::env::temp_dir().join(format!("dissenter-export-{}", std::process::id()));
    let dir = base.join("first");
    let files = export_csv(&study.report, &dir).expect("export succeeds");
    let contents = read_all(&dir, &files);

    // Every expected file exported, parseable, rectangular, non-empty —
    // and the minimal parser round-trips it byte-for-byte.
    assert_eq!(files.len(), SCHEMAS.len(), "exported set: {files:?}");
    for (name, cols) in SCHEMAS {
        let text = contents
            .get(name)
            .unwrap_or_else(|| panic!("{name} not exported (got {files:?})"));
        let csv = parse(name, text);
        assert_eq!(csv.header.len(), cols, "{name}: header {:?}", csv.header);
        assert!(!csv.rows.is_empty(), "{name}: no data rows");
        assert_eq!(unparse(&csv), *text, "{name}: parse/serialize round trip");
    }

    // Spot-check numeric columns parse and end where the math says.
    let fig3 = parse("fig3", &contents["fig3_concentration.csv"]);
    let cf: f64 = fig3.rows.last().unwrap()[1].parse().expect("numeric comment_fraction");
    assert!((0.9..=1.0).contains(&cf), "curve ends near 1.0: {cf}");
    let fig4 = parse("fig4", &contents["fig4_shadow_cdfs.csv"]);
    for row in &fig4.rows {
        let y: f64 = row[3].parse().expect("numeric cdf");
        assert!((0.0..=1.0).contains(&y), "cdf in range: {row:?}");
    }

    // Byte-identity: rebuild the report from the same crawl mirror (with
    // a different worker count, twice) and re-export — every file must
    // come back byte-identical. This is the regression net over the
    // hash-map-iteration-order fixes in `analysis`.
    let (world, _truth) = synth::generate(&cfg.world);
    for (tag, workers) in [("rebuild-serial", 1usize), ("rebuild-sharded", 8)] {
        let pool = dissenter_repro::httpnet::ThreadPool::new(workers, workers * 2);
        let rebuilt = build_report_pooled_opts(
            &study.store,
            &world.baselines,
            &pool,
            None,
            &ReportOptions::default(),
        );
        let redir = base.join(tag);
        let refiles = export_csv(&rebuilt, &redir).expect("re-export succeeds");
        assert_eq!(refiles, files, "{tag}: file sets match");
        let recontents = read_all(&redir, &refiles);
        for name in &files {
            assert_eq!(
                recontents[name], contents[name],
                "{name}: bytes differ after report rebuild ({tag})"
            );
        }
    }

    std::fs::remove_dir_all(&base).ok();
}
