//! Digest stability: `AnalyticsOutput::digest` is part of the serving
//! contract (the repository benchmark and the concurrent-serving tests
//! compare every answer against oracle digests).  These pinned values were
//! captured from the hash-map-backed representation; the ordered columnar
//! representation must reproduce them bit-for-bit, so a digest change can
//! never slip in silently with a representation change.

mod common;

use g_tadoc_repro::prelude::*;

fn fixed_corpus() -> Vec<(String, String)> {
    vec![
        (
            "a.txt".to_string(),
            "the cat sat on the mat the cat sat on the hat".to_string(),
        ),
        (
            "b.txt".to_string(),
            "the dog sat on the mat and the dog ran".to_string(),
        ),
        (
            "c.txt".to_string(),
            "cats and dogs ran on the mat".to_string(),
        ),
    ]
}

#[test]
fn digests_are_pinned_for_a_fixed_corpus() {
    let archive = compress_corpus(&fixed_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let mut got = Vec::new();
    for task in Task::ALL {
        let exec = run_task(&archive, &dag, task, cfg);
        got.push((task.name(), exec.output.digest()));
    }
    for (name, digest) in &got {
        println!("(\"{name}\", {digest:#018x}),");
    }
    assert_eq!(got.len(), PINNED.len(), "capture run — see stdout");
    for ((gn, gd), (pn, pd)) in got.iter().zip(PINNED) {
        assert_eq!(gn, pn);
        assert_eq!(gd, pd, "digest for {gn} changed");
    }
}

/// Captured from the pre-columnar (hash-map) representation; any edit to
/// these constants is a serving-protocol break and must be deliberate.
const PINNED: &[(&str, u64)] = &[
    ("wordCount", 0x778160443b9c967e),
    ("sort", 0x1e998616ac3e579a),
    ("invertedIndex", 0x1662253040798f69),
    ("termVector", 0x6358a37a785a8900),
    ("sequenceCount", 0xbfef9c509b390012),
    ("rankedInvertedIndex", 0xf26947889685c197),
];

/// The fine-grained engine must reproduce the same pinned digests at every
/// thread count — the digest is computed from the ordered representation,
/// so this also proves the parallel shard-run merge produces the same
/// ordered table the sequential oracle does.
#[test]
fn fine_grained_digests_match_the_pinned_values() {
    let archive = compress_corpus(&fixed_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    for threads in [1, 4, 8] {
        for (task, &(name, pinned)) in Task::ALL.into_iter().zip(PINNED) {
            assert_eq!(task.name(), name);
            let exec =
                common::run_cold(Engine::builder(&archive, &dag).threads(threads), task, cfg);
            assert_eq!(
                exec.output.digest(),
                pinned,
                "{name} digest diverged at {threads} threads"
            );
        }
    }
}

/// The sequence tasks away from the default `l` = 3: `l` = 1 (a sequence
/// table takes the word table's shape but keeps its own digest seed), 2
/// and 4.
const PINNED_SEQUENCES: &[(&str, usize, u64)] = &[
    ("sequenceCount", 1, 0x207be27c5a63a6ca),
    ("rankedInvertedIndex", 1, 0xec39eeb4fa281707),
    ("sequenceCount", 2, 0xf9092d48a9e06c30),
    ("rankedInvertedIndex", 2, 0x625ec9ba4554b0e9),
    ("sequenceCount", 4, 0x13a505e4d8bf3e41),
    ("rankedInvertedIndex", 4, 0x61e091ae92374ba5),
];

/// [`PINNED_SEQUENCES`], from the sequential reference and from the
/// fine-grained engine at 1, 4 and 8 threads.
#[test]
fn sequence_digests_are_pinned_at_other_lengths() {
    let archive = compress_corpus(&fixed_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    for &(name, l, pinned) in PINNED_SEQUENCES {
        let task = Task::from_name(name).expect("a task name");
        let cfg = TaskConfig { sequence_length: l };
        let sequential = run_task(&archive, &dag, task, cfg).output.digest();
        println!("(\"{name}\", {l}, {sequential:#018x}),");
        assert_eq!(sequential, pinned, "{name} digest changed at l = {l}");
        for threads in [1, 4, 8] {
            let exec =
                common::run_cold(Engine::builder(&archive, &dag).threads(threads), task, cfg);
            assert_eq!(
                exec.output.digest(),
                pinned,
                "{name} digest diverged at l = {l}, {threads} threads"
            );
        }
    }
}
