//! Run-manifest serialization: the registry rendered as a stable JSON
//! schema (`clado-telemetry-manifest/v1`) plus a human-readable summary
//! table built from the same data.
//!
//! Schema (see DESIGN.md §Telemetry):
//!
//! ```json
//! {
//!   "schema": "clado-telemetry-manifest/v1",
//!   "command": "sensitivity",
//!   "version": "0.1.0",
//!   "git": "4c15eda",
//!   "enabled": true,
//!   "wall_seconds": 12.41,
//!   "span_coverage": 0.998,
//!   "config": { "threads": 4, "model": "resnet20", "seed": 41 },
//!   "counters": { "measure.evaluations": 1234 },
//!   "gauges": { "solver.psd.min_eigenvalue": -0.02 },
//!   "spans": [
//!     { "name": "measure", "count": 1, "total_s": 12.1, "self_s": 0.3,
//!       "children": [ ... ] }
//!   ]
//! }
//! ```
//!
//! The span tree is derived from the dotted span paths; `self_s` is
//! `total_s` minus the sum of the direct children's `total_s`, clamped
//! at zero (worker-thread children accumulate CPU time, which can
//! exceed the parent's wall time).

use crate::json::{escape, number};
use crate::{SpanStat, Telemetry};

/// A typed config value for manifest embedding.
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestValue {
    /// A string value.
    Str(String),
    /// An integer value.
    Int(i64),
    /// A floating-point value.
    Float(f64),
    /// A boolean value.
    Bool(bool),
}

impl From<&str> for ManifestValue {
    fn from(v: &str) -> Self {
        ManifestValue::Str(v.to_string())
    }
}

impl From<String> for ManifestValue {
    fn from(v: String) -> Self {
        ManifestValue::Str(v)
    }
}

impl From<usize> for ManifestValue {
    fn from(v: usize) -> Self {
        ManifestValue::Int(v as i64)
    }
}

impl From<u64> for ManifestValue {
    fn from(v: u64) -> Self {
        ManifestValue::Int(v as i64)
    }
}

impl From<i64> for ManifestValue {
    fn from(v: i64) -> Self {
        ManifestValue::Int(v)
    }
}

impl From<u32> for ManifestValue {
    fn from(v: u32) -> Self {
        ManifestValue::Int(v as i64)
    }
}

impl From<f64> for ManifestValue {
    fn from(v: f64) -> Self {
        ManifestValue::Float(v)
    }
}

impl From<bool> for ManifestValue {
    fn from(v: bool) -> Self {
        ManifestValue::Bool(v)
    }
}

impl ManifestValue {
    fn to_json(&self) -> String {
        match self {
            ManifestValue::Str(s) => format!("\"{}\"", escape(s)),
            ManifestValue::Int(i) => i.to_string(),
            ManifestValue::Float(f) => number(*f),
            ManifestValue::Bool(b) => b.to_string(),
        }
    }
}

/// One node of the derived span tree.
pub(crate) struct SpanNode {
    pub name: String,
    pub stat: SpanStat,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn self_seconds(&self) -> f64 {
        let child_total: f64 = self
            .children
            .iter()
            .map(|c| c.stat.total.as_secs_f64())
            .sum();
        (self.stat.total.as_secs_f64() - child_total).max(0.0)
    }
}

/// Builds the span forest from flat dotted paths. A path with no
/// recorded parent (e.g. only `a.b` exists, not `a`) becomes a
/// zero-time structural node so the hierarchy stays navigable.
pub(crate) fn build_tree(spans: &[(String, SpanStat)]) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    for (path, stat) in spans {
        insert(
            &mut roots,
            path.split('.').collect::<Vec<_>>().as_slice(),
            *stat,
        );
    }
    roots
}

fn insert(level: &mut Vec<SpanNode>, parts: &[&str], stat: SpanStat) {
    let Some((head, rest)) = parts.split_first() else {
        return;
    };
    let node = match level.iter_mut().position(|n| n.name == *head) {
        Some(i) => &mut level[i],
        None => {
            level.push(SpanNode {
                name: head.to_string(),
                stat: SpanStat::default(),
                children: Vec::new(),
            });
            level.last_mut().expect("just pushed")
        }
    };
    if rest.is_empty() {
        node.stat = stat;
    } else {
        insert(&mut node.children, rest, stat);
    }
}

fn node_json(node: &SpanNode, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    out.push_str(&format!(
        "{pad}{{\"name\": \"{}\", \"count\": {}, \"total_s\": {}, \"self_s\": {}",
        escape(&node.name),
        node.stat.count,
        number(node.stat.total.as_secs_f64()),
        number(node.self_seconds()),
    ));
    if node.children.is_empty() {
        out.push_str(", \"children\": []}");
    } else {
        out.push_str(", \"children\": [\n");
        for (i, child) in node.children.iter().enumerate() {
            node_json(child, out, indent + 1);
            if i + 1 < node.children.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!("{pad}]}}"));
    }
}

pub(crate) fn render(t: &Telemetry, command: &str, config: &[(&str, ManifestValue)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"clado-telemetry-manifest/v1\",\n");
    out.push_str(&format!("  \"command\": \"{}\",\n", escape(command)));
    out.push_str(&format!("  \"version\": \"{}\",\n", escape(crate::VERSION)));
    out.push_str(&format!("  \"git\": \"{}\",\n", escape(crate::GIT_HASH)));
    out.push_str(&format!("  \"enabled\": {},\n", t.is_enabled()));
    out.push_str(&format!(
        "  \"wall_seconds\": {},\n",
        number(t.elapsed().as_secs_f64())
    ));
    out.push_str(&format!(
        "  \"span_coverage\": {},\n",
        number(t.span_coverage())
    ));

    out.push_str("  \"config\": {");
    for (i, (key, value)) in config.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", escape(key), value.to_json()));
    }
    out.push_str(if config.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    let counters = t.counters();
    out.push_str("  \"counters\": {");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", escape(name), value));
    }
    out.push_str(if counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    let gauges = t.gauges();
    out.push_str("  \"gauges\": {");
    for (i, (name, value)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", escape(name), number(*value)));
    }
    out.push_str(if gauges.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    let hists = t.histograms();
    out.push_str("  \"histograms\": {");
    for (i, (name, s)) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"mean_us\": {}}}",
            escape(name),
            s.count,
            s.p50_us,
            s.p90_us,
            s.p95_us,
            s.p99_us,
            s.max_us,
            number(s.mean_us)
        ));
    }
    out.push_str(if hists.is_empty() { "},\n" } else { "\n  },\n" });

    let series = t.series();
    out.push_str("  \"series\": {");
    for (i, (name, points)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": [", escape(name)));
        for (j, p) in points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"t_us\": {}, \"value\": {}, \"label\": \"{}\"}}",
                p.t_us,
                number(p.value),
                escape(&p.label)
            ));
        }
        out.push_str(if points.is_empty() { "]" } else { "\n    ]" });
    }
    out.push_str(if series.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    let tree = build_tree(&t.spans());
    out.push_str("  \"spans\": [");
    if !tree.is_empty() {
        out.push('\n');
        for (i, node) in tree.iter().enumerate() {
            node_json(node, &mut out, 2);
            if i + 1 < tree.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ");
    }
    out.push_str("]\n}\n");
    out
}

fn node_summary(node: &SpanNode, out: &mut String, depth: usize) {
    let label = format!("{}{}", "  ".repeat(depth), node.name);
    out.push_str(&format!(
        "  {label:<38} {:>9.3}s {:>9.3}s {:>8}\n",
        node.stat.total.as_secs_f64(),
        node.self_seconds(),
        node.stat.count,
    ));
    for child in &node.children {
        node_summary(child, out, depth + 1);
    }
}

pub(crate) fn render_summary(t: &Telemetry) -> String {
    let mut out = String::new();
    let tree = build_tree(&t.spans());
    if !tree.is_empty() {
        out.push_str(&format!(
            "  {:<38} {:>10} {:>10} {:>8}\n",
            "span", "total", "self", "count"
        ));
        for node in &tree {
            node_summary(node, &mut out, 0);
        }
    }
    let counters = t.counters();
    if !counters.is_empty() {
        out.push_str("  counters:\n");
        for (name, value) in &counters {
            out.push_str(&format!("    {name:<40} {value}\n"));
        }
    }
    let gauges = t.gauges();
    if !gauges.is_empty() {
        out.push_str("  gauges:\n");
        for (name, value) in &gauges {
            out.push_str(&format!("    {name:<40} {value:.6}\n"));
        }
    }
    let hists = t.histograms();
    if hists.iter().any(|(_, s)| s.count > 0) {
        out.push_str(&format!(
            "  {:<30} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "histogram", "count", "p50", "p90", "p95", "p99", "max"
        ));
        for (name, s) in &hists {
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<30} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                name,
                s.count,
                fmt_us(s.p50_us),
                fmt_us(s.p90_us),
                fmt_us(s.p95_us),
                fmt_us(s.p99_us),
                fmt_us(s.max_us),
            ));
        }
    }
    for (name, points) in &t.series() {
        if let Some(last) = points.last() {
            out.push_str(&format!(
                "  series {name}: {} points, last {} ({}) at {:.3}s\n",
                points.len(),
                last.value,
                last.label,
                last.t_us as f64 / 1e6,
            ));
        }
    }
    out
}

/// Formats a µs latency with an adaptive unit (`17µs`, `4.2ms`, `1.8s`).
pub fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_json, Json, Telemetry};
    use std::time::Duration;

    fn spin(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    fn sample_registry() -> Telemetry {
        let t = Telemetry::new();
        {
            let _m = t.span("measure");
            {
                let _d = t.span("measure.diagonal");
                spin(3);
            }
            {
                let _p = t.span("measure.pairwise");
                for _ in 0..4 {
                    let _e = t.span("measure.pairwise.suffix_eval");
                    spin(1);
                }
            }
        }
        t.add("measure.evaluations", 12);
        t.add("measure.full_evals", 4);
        t.add("measure.prefix_cache_hits", 8);
        t.set_gauge("telemetry.overhead_ratio", 1.01);
        t
    }

    #[test]
    fn manifest_parses_and_contains_required_keys() {
        let t = sample_registry();
        let doc = t.manifest(
            "sensitivity",
            &[
                ("threads", 4usize.into()),
                ("model", "resnet20".into()),
                ("seed", 41u64.into()),
            ],
        );
        let j = parse_json(&doc).expect("manifest is valid JSON");
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("clado-telemetry-manifest/v1")
        );
        assert_eq!(j.get("command").and_then(Json::as_str), Some("sensitivity"));
        assert!(j.get("git").and_then(Json::as_str).is_some());
        assert_eq!(
            j.get("config")
                .and_then(|c| c.get("threads"))
                .and_then(Json::as_num),
            Some(4.0)
        );
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("measure.evaluations"))
                .and_then(Json::as_num),
            Some(12.0)
        );
        let spans = j.get("spans").and_then(Json::as_arr).expect("span forest");
        let measure = spans
            .iter()
            .find(|n| n.get("name").and_then(Json::as_str) == Some("measure"))
            .expect("measure root");
        let children = measure
            .get("children")
            .and_then(Json::as_arr)
            .expect("children");
        assert_eq!(children.len(), 2);
        let wall = j.get("wall_seconds").and_then(Json::as_num).expect("wall");
        assert!(wall > 0.0);
        let coverage = j.get("span_coverage").and_then(Json::as_num).expect("cov");
        assert!(coverage > 0.5, "coverage {coverage}");
    }

    #[test]
    fn self_time_subtracts_children_and_clamps_at_zero() {
        let spans = vec![
            (
                "a".to_string(),
                crate::SpanStat {
                    count: 1,
                    total: Duration::from_secs(10),
                },
            ),
            (
                "a.b".to_string(),
                crate::SpanStat {
                    count: 1,
                    total: Duration::from_secs(4),
                },
            ),
            (
                "a.c".to_string(),
                crate::SpanStat {
                    count: 1,
                    // Worker CPU time exceeding the parent's wall time.
                    total: Duration::from_secs(9),
                },
            ),
        ];
        let tree = build_tree(&spans);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].self_seconds(), 0.0);
        let b = tree[0].children.iter().find(|n| n.name == "b").expect("b");
        assert_eq!(b.self_seconds(), 4.0);
    }

    #[test]
    fn orphan_paths_get_structural_parents() {
        let spans = vec![(
            "solver.iqp.branch".to_string(),
            crate::SpanStat {
                count: 2,
                total: Duration::from_secs(1),
            },
        )];
        let tree = build_tree(&spans);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "solver");
        assert_eq!(tree[0].stat.count, 0);
        assert_eq!(tree[0].children[0].name, "iqp");
        assert_eq!(tree[0].children[0].children[0].stat.count, 2);
    }

    #[test]
    fn empty_registry_manifest_is_valid_json() {
        let t = Telemetry::new();
        let doc = t.manifest("noop", &[]);
        let j = parse_json(&doc).expect("valid");
        assert_eq!(
            j.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn summary_renders_tree_counters_and_gauges() {
        let t = sample_registry();
        let summary = t.render_summary();
        assert!(summary.contains("measure"), "{summary}");
        assert!(summary.contains("suffix_eval"), "{summary}");
        assert!(summary.contains("measure.evaluations"), "{summary}");
        assert!(summary.contains("telemetry.overhead_ratio"), "{summary}");
    }

    #[test]
    fn manifest_includes_histograms_and_series() {
        let t = Telemetry::new();
        let h = t.histogram("probe.eval");
        for us in [120u64, 340, 950, 4200] {
            h.record_us(us);
        }
        t.series_push("solver.incumbents", 0.75, "warm_start");
        t.series_push("solver.incumbents", 0.31, "bnb");
        let doc = t.manifest("sensitivity", &[]);
        let j = parse_json(&doc).expect("valid");
        let hist = j
            .get("histograms")
            .and_then(|h| h.get("probe.eval"))
            .expect("histogram entry");
        assert_eq!(hist.get("count").and_then(Json::as_num), Some(4.0));
        assert_eq!(hist.get("max_us").and_then(Json::as_num), Some(4200.0));
        assert!(hist.get("p50_us").and_then(Json::as_num).unwrap() > 0.0);
        let series = j
            .get("series")
            .and_then(|s| s.get("solver.incumbents"))
            .and_then(Json::as_arr)
            .expect("series");
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].get("label").and_then(Json::as_str), Some("bnb"));
        assert_eq!(series[1].get("value").and_then(Json::as_num), Some(0.31));

        let summary = t.render_summary();
        assert!(summary.contains("probe.eval"), "{summary}");
        assert!(summary.contains("solver.incumbents"), "{summary}");
    }

    /// Seeded-random manifest round-trip: arbitrary config values,
    /// counters, gauges, histogram samples, and series points (with
    /// hostile strings) must all survive serialize → parse.
    #[test]
    fn manifest_round_trip_property() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let hostile = [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "newline\nand\ttab",
            "ctrl\u{1}\u{1f}",
            "unicode λΩ→µ",
        ];
        for round in 0..25 {
            let t = Telemetry::new();
            let n_counters = (next() % 5) as usize;
            let mut expect_counters = Vec::new();
            for i in 0..n_counters {
                let v = next() % 1_000_000;
                let name = format!("c{round}.{i}.{}", hostile[i % hostile.len()]);
                t.add(&name, v);
                expect_counters.push((name, v));
            }
            let n_gauges = (next() % 4) as usize;
            let mut expect_gauges = Vec::new();
            for i in 0..n_gauges {
                let v = (next() % 10_000) as f64 / 7.0 - 500.0;
                let name = format!("g{i}");
                t.set_gauge(&name, v);
                expect_gauges.push((name, v));
            }
            let h = t.histogram("h.latency");
            let n_samples = next() % 50;
            for _ in 0..n_samples {
                h.record_us(next() % 10_000_000);
            }
            let n_points = (next() % 6) as usize;
            for i in 0..n_points {
                t.series_push(
                    "s.curve",
                    (next() % 1000) as f64 / 3.0,
                    hostile[i % hostile.len()],
                );
            }
            let doc = t.manifest("prop", &[("s", hostile[round % hostile.len()].into())]);
            let j = parse_json(&doc).unwrap_or_else(|e| panic!("round {round}: {e}\n{doc}"));
            for (name, v) in &expect_counters {
                assert_eq!(
                    j.get("counters")
                        .and_then(|c| c.get(name))
                        .and_then(Json::as_num),
                    Some(*v as f64),
                    "round {round} counter {name}"
                );
            }
            for (name, v) in &expect_gauges {
                let got = j
                    .get("gauges")
                    .and_then(|g| g.get(name))
                    .and_then(Json::as_num)
                    .expect("gauge");
                assert!((got - v).abs() < 1e-9, "round {round} gauge {name}");
            }
            assert_eq!(
                j.get("histograms")
                    .and_then(|h| h.get("h.latency"))
                    .and_then(|h| h.get("count"))
                    .and_then(Json::as_num),
                Some(n_samples as f64),
                "round {round} hist count"
            );
            assert_eq!(
                j.get("series")
                    .and_then(|s| s.get("s.curve"))
                    .and_then(Json::as_arr)
                    .map(<[Json]>::len)
                    .unwrap_or(0),
                n_points,
                "round {round} series len"
            );
            assert_eq!(
                j.get("config")
                    .and_then(|c| c.get("s"))
                    .and_then(Json::as_str),
                Some(hostile[round % hostile.len()]),
                "round {round} config string"
            );
        }
    }
}
