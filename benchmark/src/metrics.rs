//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test keeps the two equal).  A later change that claims a gain cites one
//! metric and one workload from here.

use crate::workloads::{Key, CORPORA};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the parent's median by which it may worsen.
#[derive(Debug, Clone)]
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, `[A-Za-z0-9_/%.-]+`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The four workloads with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest",
        "compress text and encode the archive: only sequitur's write path (tokenizer, dictionary, Sequitur, archive encode) works; the read path does nothing",
    ),
    (
        "oneshot",
        "the paper's scenario, init + traversal from stored bytes: archive decode, validation, DAG build and analysis fill dominate; every op is a results-cache miss + insert",
    ),
    (
        "session",
        "2 callers on warm engines, results cache off: traversal, ShardBuf merge and finalize do all the work; exercises pool try_lock admission and scratch leasing",
    ),
    (
        "serve_hot",
        "real Server on loopback, 2 connections, >=99% results-cache hits: framing, queue, thread hops, table clone, codec and socket work; the engine executes nothing",
    ),
];

/// End-to-end metrics, reported by every workload's untraced run.  The
/// timing and memory bounds are the widest the benchmark contract allows:
/// the shared 2-core reference box drifts by 10-15% over tens of minutes
/// (the README has the measured spreads), and a tighter bound would reject
/// unchanged code.
pub fn end_to_end() -> Vec<Def> {
    let def = |name: &str, unit, better, bound| Def {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        def("setup_s", "s", Better::Lower, 0.25),
        def("throughput_ops_s", "1/s", Better::Higher, 0.25),
        def("key_p50_geomean_ms", "ms", Better::Lower, 0.25),
        def("op_p90_ms", "ms", Better::Lower, 0.25),
        def("peak_rss_mib", "MiB", Better::Lower, 0.25),
        def("archive_bytes_per_token", "B/token", Better::Lower, 0.05),
    ]
}

/// The six tasks at `l = 3` on corpus `corpus`.
pub fn six_tasks(corpus: usize) -> Vec<Key> {
    tadoc::Task::ALL
        .into_iter()
        .map(|task| Key { corpus, task, l: 3 })
        .collect()
}

/// The eight `serve_hot` keys: the six tasks plus the sequence tasks at
/// `l = 2`, all on `manyfiles`.
pub fn hot_keys() -> Vec<Key> {
    let mut keys = six_tasks(0);
    for task in [tadoc::Task::SequenceCount, tadoc::Task::RankedInvertedIndex] {
        keys.push(Key {
            corpus: 0,
            task,
            l: 2,
        });
    }
    keys
}

/// Per-layer metrics, reported by every workload's traced run.  A layer the
/// workload never enters reports 0 — which is the evidence that the
/// workload bypasses it.
pub fn per_layer() -> Vec<Def> {
    let mut defs = Vec::new();
    let mut def = |name: String, unit, better| {
        defs.push(Def {
            name,
            unit,
            better,
            bound: None,
        })
    };
    use Better::{Higher, Lower};
    for c in CORPORA {
        // sequitur write path (ingest ops; set-up of the other workloads).
        def(format!("sequitur.tokenizer.{c}.ns_per_token"), "ns", Lower);
        def(format!("sequitur.compress.{c}.ns_per_token"), "ns", Lower);
        def(format!("sequitur.compress.{c}.rules"), "count", Lower);
        def(
            format!("sequitur.compress.{c}.elements_per_token"),
            "elem/token",
            Lower,
        );
        def(format!("sequitur.archive.{c}.encode_ms"), "ms", Lower);
        def(format!("sequitur.archive.{c}.bytes"), "B", Lower);
        // oneshot: the cold read path.
        def(format!("sequitur.archive.{c}.decode_ms"), "ms", Lower);
        def(format!("sequitur.dag.{c}.build_ms"), "ms", Lower);
        def(format!("tadoc.engine.{c}.build_ms"), "ms", Lower);
        for task in tadoc::Task::ALL {
            def(
                format!("tadoc.fine.{c}.{}.cold_ms", task.name()),
                "ms",
                Lower,
            );
        }
        def(format!("tadoc.fine.{c}.cold_shared_init_ms"), "ms", Lower);
        def(format!("tadoc.fine.{c}.cold_traversal_ms"), "ms", Lower);
        def(format!("tadoc.fine.{c}.cold_finalize_ms"), "ms", Lower);
        def(format!("tadoc.engine.{c}.analysis_fills"), "count", Lower);
        // session: the warm read path.
        for task in tadoc::Task::ALL {
            def(
                format!("tadoc.fine.{c}.{}.warm_ms", task.name()),
                "ms",
                Lower,
            );
        }
        def(format!("tadoc.fine.{c}.warm_init_ms"), "ms", Lower);
        def(format!("tadoc.fine.{c}.warm_traversal_ms"), "ms", Lower);
        def(format!("tadoc.fine.{c}.warm_finalize_ms"), "ms", Lower);
        def(format!("tadoc.sequential.{c}.geomean_ms"), "ms", Lower);
        def(format!("tadoc.fine.{c}.speedup_vs_sequential"), "x", Higher);
    }
    def("tadoc.engine.epochs_per_op".into(), "count/op", Lower);
    def("tadoc.engine.degraded".into(), "count", Lower);
    // serve_hot, observed through the socket.
    for key in hot_keys() {
        def(
            format!("server.client.{}.p50_ms", key.task_label()),
            "ms",
            Lower,
        );
    }
    for key in hot_keys() {
        def(
            format!("server.protocol.{}.response_bytes", key.task_label()),
            "B",
            Lower,
        );
    }
    def("server.server.stats_rtt_us".into(), "us", Lower);
    def("server.server.batches_per_op".into(), "count/op", Lower);
    def("server.server.batched_share".into(), "ratio", Higher);
    def("server.server.max_queue_depth".into(), "count", Lower);
    def("server.server.shed".into(), "count", Lower);
    def("server.server.protocol_errors".into(), "count", Lower);
    // serve_hot, ladder: each value is the sum over one 8-key cycle.
    def("server.protocol.encode_request_us".into(), "us", Lower);
    def("server.protocol.parse_request_us".into(), "us", Lower);
    def("server.queue.hop_us".into(), "us", Lower);
    def("tadoc.engine.cache_hit_ms".into(), "ms", Lower);
    def("tadoc.engine.cache_hit_rate".into(), "ratio", Higher);
    def("server.protocol.encode_response_ms".into(), "ms", Lower);
    def("server.framing.write_read_ms".into(), "ms", Lower);
    def("server.protocol.decode_response_ms".into(), "ms", Lower);
    def("tadoc.results.digest_ms".into(), "ms", Lower);
    def("server.server.unattributed_ms".into(), "ms", Lower);
    // every workload: traced over untraced throughput of the same process.
    def("trace.overhead_share".into(), "ratio", Higher);
    defs
}

/// `--list`: one line per name, `section name unit better [bound]`.
pub fn list() -> String {
    let mut out = String::new();
    for (name, _) in WORKLOADS {
        out.push_str(&format!("workload {name}\n"));
    }
    for d in end_to_end() {
        let bound = d.bound.unwrap_or(0.0);
        out.push_str(&format!(
            "end_to_end {} {} {} {bound}\n",
            d.name,
            d.unit,
            d.better.word()
        ));
    }
    for d in per_layer() {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            d.name,
            d.unit,
            d.better.word()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(charset_ok(name, ""), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
            assert!(seen.insert(name.to_string()), "duplicate {name}");
        }
        for d in e2e.iter().chain(&layers) {
            assert!(charset_ok(&d.name, "") && d.name.len() <= 64, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(charset_ok(d.unit, "/%") && d.unit.len() <= 16, "{}", d.unit);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
        for d in &e2e {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        // Set-up time is reported and has the widest bound.
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert!(e2e.iter().all(|d| d.bound <= setup.bound));
    }

    /// Every `"name": "…"` (and its unit / bound, when on the same line)
    /// between the start of section `key` and the next section.
    fn manifest_section(text: &str, key: &str) -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let rest = &text[start..];
        let end = rest.find(']').expect("section closes");
        let value_of = |line: &str, field: &str| -> Option<String> {
            let at = line.find(&format!("\"{field}\":"))?;
            let tail = line[at + field.len() + 3..].trim_start();
            let tail = tail.strip_prefix('"').unwrap_or(tail);
            let stop = tail.find(['"', ',', '}']).unwrap_or(tail.len());
            Some(tail[..stop].trim().to_string())
        };
        rest[..end]
            .lines()
            .filter_map(|line| {
                let name = value_of(line, "name")?;
                let mut parts = vec![name];
                parts.extend(value_of(line, "unit"));
                parts.extend(value_of(line, "better"));
                parts.extend(value_of(line, "bound"));
                Some(parts.join(" "))
            })
            .collect()
    }

    #[test]
    fn list_equals_the_names_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = list();
        for (section, prefix) in [
            ("workloads", "workload "),
            ("end_to_end", "end_to_end "),
            ("per_layer", "per_layer "),
        ] {
            let ours: Vec<&str> = listed
                .lines()
                .filter_map(|l| l.strip_prefix(prefix))
                .collect();
            assert_eq!(manifest_section(&text, section), ours, "section {section}");
        }
    }
}
