//! Property-based tests (proptest) on the core invariants:
//!
//! * Sequitur compression is lossless for arbitrary token streams and
//!   arbitrary file splits, and digram uniqueness and rule utility hold at
//!   rest on streams over tiny alphabets;
//! * the archive binary format round-trips;
//! * archive decoding is total: arbitrary, header-prefixed, bit-flipped and
//!   truncated bytes give `Ok` or a typed error — never a panic or an
//!   oversized allocation — and whatever decodes is served exactly like the
//!   sequential reference;
//! * the grammar respects rule-utility and acyclicity invariants; the linear
//!   cycle check agrees with the transitive-closure reference it replaced;
//! * the flat grammar returns the bodies it was built from, and the CSR DAG
//!   equals the nested per-rule DAG it replaced, field by field;
//! * rule weights equal true expansion counts; file weights partition them;
//! * the GPU hash table behaves like a map; the pool-backed local tables
//!   behave like maps; the memory pool never overlaps regions;
//! * G-TADOC word count and sequence count agree with the oracle on random
//!   corpora;
//! * both sequence tasks answer from one engine's window table, whichever
//!   of them filled it.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;

use g_tadoc_repro::prelude::*;
use gtadoc::hashtable::{local_table, GpuHashTable};
use sequitur::archive::{MAGIC, VERSION};
use sequitur::compress::compress_token_files;
use sequitur::sequitur_impl::Sequitur;
use sequitur::Dictionary;
use tadoc::timing::WorkStats;

/// Builds an archive from raw token streams (vocabulary = max token + 1).
fn archive_from_tokens(files: &[Vec<u32>]) -> TadocArchive {
    let vocab = files
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(1, |m| m as usize + 1);
    let mut dict = Dictionary::new();
    for i in 0..vocab {
        dict.intern(&format!("w{i}"));
    }
    let names = (0..files.len()).map(|i| format!("f{i}")).collect();
    let sizes = files.iter().map(|f| f.len() as u64 * 3).collect();
    compress_token_files(dict, files.to_vec(), names, sizes)
}

/// Strategy: between 1 and 4 files of tokens drawn from a small alphabet
/// (small alphabets maximise repetition and therefore grammar depth).
fn token_files() -> impl Strategy<Value = Vec<Vec<u32>>> {
    vec(vec(0u32..12, 0..120), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sequitur_roundtrip_is_lossless(files in token_files()) {
        let archive = archive_from_tokens(&files);
        prop_assert_eq!(archive.grammar.expand_files(), files);
    }

    #[test]
    fn grammar_invariants_hold(files in token_files()) {
        let archive = archive_from_tokens(&files);
        prop_assert!(archive.grammar.validate().is_ok());
        // Rule utility: every non-root rule is referenced at least twice.
        let counts = archive.grammar.rule_use_counts();
        for (r, &c) in counts.iter().enumerate().skip(1) {
            prop_assert!(c >= 2, "rule {} used {} times", r, c);
        }
    }

    #[test]
    fn archive_binary_format_roundtrips(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let restored = TadocArchive::from_bytes(&archive.to_bytes()).unwrap();
        prop_assert_eq!(restored.grammar, archive.grammar);
        prop_assert_eq!(restored.files, archive.files);
    }

    #[test]
    fn rule_weights_equal_expansion_counts(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let dag = Dag::from_grammar(&archive.grammar);
        let mut work = WorkStats::default();
        let weights = tadoc::weights::rule_weights(&dag, &mut work);
        let fw = tadoc::weights::file_weights(&archive.grammar, &dag, &mut work);
        for r in 1..dag.num_rules {
            // File weights partition the total weight.
            let total: u64 = fw[r].values().sum();
            prop_assert_eq!(total, weights[r]);
        }
    }

    #[test]
    fn gtadoc_word_count_matches_oracle(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let expanded = archive.grammar.expand_files();
        let mut engine = GtadocEngine::new(GpuSpec::gtx_1080());
        let gpu = engine.run_archive(&archive, Task::WordCount);
        let expected = AnalyticsOutput::WordCount(tadoc::oracle::word_count(&expanded));
        prop_assert_eq!(gpu.output, expected);
    }

    #[test]
    fn gtadoc_sequence_count_matches_oracle(files in token_files(), l in 1usize..=3) {
        let archive = archive_from_tokens(&files);
        let expanded = archive.grammar.expand_files();
        let params = GtadocParams { sequence_length: l, ..Default::default() };
        let mut engine = GtadocEngine::with_params(GpuSpec::tesla_v100(), params);
        let gpu = engine.run_archive(&archive, Task::SequenceCount);
        let expected = AnalyticsOutput::SequenceCount(tadoc::oracle::sequence_count(&expanded, l));
        prop_assert_eq!(gpu.output, expected);
    }

    #[test]
    fn gpu_hash_table_behaves_like_a_map(ops in vec((0u64..64, 1u64..5), 0..300)) {
        let mut table = GpuHashTable::with_capacity(64, 2.0);
        let mut model = std::collections::HashMap::new();
        for (key, value) in ops {
            table.insert_add_host(key, value);
            *model.entry(key).or_insert(0u64) += value;
        }
        prop_assert_eq!(table.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(table.get(*k), Some(*v));
        }
    }

    #[test]
    fn local_table_behaves_like_a_map(ops in vec((0u32..40, 1u32..4), 0..120)) {
        let mut region = vec![0u32; local_table::words_required(40) as usize];
        local_table::init(&mut region);
        let mut model = std::collections::HashMap::new();
        for (key, value) in ops {
            local_table::insert_add(&mut region, key, value);
            *model.entry(key).or_insert(0u32) += value;
        }
        prop_assert_eq!(local_table::len(&region) as usize, model.len());
        for (k, v) in &model {
            prop_assert_eq!(local_table::get(&region, *k), Some(*v));
        }
    }

    // Adversarial fill factors for the per-rule tables: `max_keys` sized
    // exactly for the number of distinct keys inserted (the tightest legal
    // bound, including 0) under duplicate-heavy insert streams.  Iteration
    // must agree with the model too — it drives every bottom-up merge scan
    // of the simulated GPU traversal.
    #[test]
    fn local_table_iteration_agrees_with_a_map_at_tight_capacity(
        keys in vec(0u32..30, 0..30),
        reps in 1usize..6,
    ) {
        let distinct: std::collections::BTreeSet<u32> = keys.iter().copied().collect();
        let mut region = vec![0u32; local_table::words_required(distinct.len() as u32) as usize];
        local_table::init(&mut region);
        let mut model = std::collections::HashMap::new();
        for _ in 0..reps {
            for &key in &keys {
                local_table::insert_add(&mut region, key, key + 1);
                *model.entry(key).or_insert(0u32) += key + 1;
            }
        }
        prop_assert_eq!(local_table::len(&region) as usize, model.len());
        for (k, v) in &model {
            prop_assert_eq!(local_table::get(&region, *k), Some(*v));
        }
        let mut pairs: Vec<(u32, u32)> = local_table::iter(&region).collect();
        pairs.sort_unstable();
        let mut expected: Vec<(u32, u32)> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(pairs, expected);
    }

    // The same codec driven straight to
    // 100% slot occupancy: every slot of the region must be usable when the
    // consumer's bound is exact.
    #[test]
    fn local_table_survives_exact_fill(extra in 0u32..40, seed in 0u32..1000) {
        let max_keys = extra; // includes 0: a zero-capacity table
        let mut region = vec![0u32; local_table::words_required(max_keys) as usize];
        local_table::init(&mut region);
        if max_keys == 0 {
            prop_assert_eq!(region.len(), 0);
            prop_assert_eq!(local_table::len(&region), 0);
            prop_assert_eq!(local_table::iter(&region).count(), 0);
            return Ok(());
        }
        // Fill to the full slot capacity (2× the nominal bound), not just
        // `max_keys` — the table must honour every allocated slot.
        let cap = region[0];
        for i in 0..cap {
            local_table::insert_add(&mut region, seed.wrapping_add(i.wrapping_mul(2654435761)), 1);
        }
        prop_assert_eq!(local_table::len(&region), cap);
        prop_assert_eq!(local_table::iter(&region).count() as u32, cap);
        for i in 0..cap {
            let key = seed.wrapping_add(i.wrapping_mul(2654435761));
            prop_assert_eq!(local_table::get(&region, key), Some(1));
        }
    }

    #[test]
    fn memory_pool_regions_never_overlap(reqs in vec(0u32..50, 0..60)) {
        let device = gpu_sim::Device::new(GpuSpec::gtx_1080());
        let pool = gtadoc::mempool::MemoryPool::allocate(&device, &reqs);
        prop_assert!(pool.regions_disjoint());
        prop_assert_eq!(pool.num_regions(), reqs.len());
        let total: u64 = reqs.iter().map(|&r| r as u64).sum();
        prop_assert_eq!(pool.total_words() as u64, total);
    }

    #[test]
    fn head_tail_buffers_match_true_expansions(files in token_files(), l in 1usize..=3) {
        let archive = archive_from_tokens(&files);
        let dag = Dag::from_grammar(&archive.grammar);
        let layout = gtadoc::layout::GpuLayout::build(&archive, &dag);
        let mut device = gpu_sim::Device::new(GpuSpec::gtx_1080());
        let ht = gtadoc::sequence::init_head_tail(&mut device, &layout, l);
        let keep = l - 1;
        for r in 1..layout.num_rules as u32 {
            let full = archive.grammar.expand_rule_words(r);
            let head: Vec<u32> = full.iter().copied().take(keep).collect();
            let tail: Vec<u32> = full[full.len().saturating_sub(keep)..].to_vec();
            prop_assert_eq!(&ht.head[r as usize], &head);
            prop_assert_eq!(&ht.tail[r as usize], &tail);
            if full.len() <= 2 * keep {
                prop_assert_eq!(ht.short_expansion[r as usize].as_deref(), Some(full.as_slice()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // At rest every rule but the root is used at least twice (rule
    // utility), and no digram of two different symbols occurs twice (digram
    // uniqueness).  Alphabets of 1-4 words make long runs (`a a a a`).  A
    // digram of two equal symbols is exempt: Sequitur never matches a digram
    // against an occurrence it overlaps, so the unindexed copy a run leaves
    // can outlive the indexed one.
    #[test]
    fn sequitur_invariants_hold_at_rest_on_tiny_alphabets(
        alphabet in 1u32..=4,
        stream in vec(0u32..4, 0..300),
    ) {
        let words: Vec<u32> = stream.iter().map(|w| w % alphabet).collect();
        let mut s = Sequitur::new();
        s.push_words(&words);
        for (d, count) in s.digram_occurrence_histogram() {
            let (a, b) = ((d >> 32) as u32, d as u32);
            prop_assert!(count <= 1 || a == b, "digram {:#x} occurs {} times", d, count);
        }
        for rc in s.non_root_refcounts() {
            prop_assert!(rc >= 2, "non-root rule used {} times", rc);
        }
        let expected: Vec<Symbol> = words.iter().map(|&w| Symbol::Word(w)).collect();
        prop_assert_eq!(s.into_grammar().expand_root_tokens(), expected);
    }
}

proptest! {
    // Fewer cases: each runs all six tasks at three pool widths.
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Round-trip equality of the ordered columnar results against the
    // hash-built sequential oracle: every task's fine-grained output (built
    // by the k-way merge, no hash table) must equal the oracle's (built in
    // a hash map and converted once) at 1, 4, and 8 threads.
    #[test]
    fn ordered_results_equal_hash_built_oracle_across_tasks(files in token_files()) {
        let archive = archive_from_tokens(&files);
        let dag = Dag::from_grammar(&archive.grammar);
        let cfg = tadoc::TaskConfig::default();
        for task in Task::ALL {
            let reference = tadoc::run_task(&archive, &dag, task, cfg).output;
            for threads in [1usize, 4, 8] {
                let fine =
                    common::run_cold(Engine::builder(&archive, &dag).threads(threads), task, cfg);
                prop_assert_eq!(
                    &fine.output,
                    &reference,
                    "task {} at {} threads",
                    task.name(),
                    threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // One engine's window table serves both sequence tasks: whichever task
    // fills it, the other one and a repeat read it warm, and every answer
    // equals the sequential reference — packed keys up to `l` = 3, owned
    // ones above.
    #[test]
    fn sequence_tasks_sharing_a_window_table_equal_the_reference(
        files in token_files(),
        l in 1usize..=5,
        threads in 1usize..=4,
        chunk_elements in 1usize..8,
        first in 0usize..2,
    ) {
        let archive = archive_from_tokens(&files);
        let dag = Dag::from_grammar(&archive.grammar);
        let cfg = TaskConfig { sequence_length: l };
        let pair = [Task::SequenceCount, Task::RankedInvertedIndex];
        let engine = Engine::builder(&archive, &dag)
            .threads(threads)
            .chunk_elements(chunk_elements)
            .build()
            .expect("valid engine configuration");
        for task in [pair[first], pair[1 - first], pair[first]] {
            let reference = run_task(&archive, &dag, task, cfg).output;
            let exec = engine.run(task, cfg).expect("valid task configuration");
            prop_assert_eq!(&exec.output, &reference, "{} at l = {}", task.name(), l);
        }
    }
}

// ---------------------------------------------------------------------------
// Archive bytes are untrusted input: decoding is total, and what decodes is
// served correctly
// ---------------------------------------------------------------------------

/// Serialized form of a small redundant three-file archive, the subject the
/// corruption properties mutate.
fn sample_archive_bytes() -> Vec<u8> {
    let shared = "the quick brown fox jumps over the lazy dog ".repeat(4);
    let corpus: Vec<(String, String)> = (0..3)
        .map(|i| (format!("doc{i}"), format!("{shared} unique{i} {shared}")))
        .collect();
    compress_corpus(&corpus, CompressOptions::default()).to_bytes()
}

/// `from_bytes` must return (no panic, no abort).  Whatever it accepts must
/// be servable: the engine build must not panic and, if it builds, all six
/// tasks answer undegraded and equal to the sequential reference.
fn check_decoding_is_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(archive) = TadocArchive::from_bytes(bytes) else {
        return Ok(());
    };
    let dag = Dag::from_grammar(&archive.grammar);
    let Ok(engine) = Engine::builder(&archive, &dag).threads(2).build() else {
        return Ok(());
    };
    let cfg = TaskConfig::default();
    for task in Task::ALL {
        let reference = run_task(&archive, &dag, task, cfg);
        let exec = engine.run(task, cfg);
        prop_assert!(exec.is_ok(), "{} failed: {:?}", task.name(), exec.err());
        let exec = exec.expect("checked above");
        prop_assert!(
            exec.timings.degraded.is_none(),
            "{} degraded: {:?}",
            task.name(),
            exec.timings.degraded
        );
        prop_assert_eq!(&exec.output, &reference.output, "task {}", task.name());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_bytes_is_total_on_arbitrary_bytes(bytes in vec(0u8..=255, 0..256)) {
        check_decoding_is_total(&bytes)?;
    }

    // Past the magic and version every next field is a count: random bytes
    // there are exactly the hostile-length case.
    #[test]
    fn from_bytes_is_total_behind_a_valid_header(tail in vec(0u8..=255, 0..256)) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&tail);
        check_decoding_is_total(&bytes)?;
    }

    #[test]
    fn from_bytes_is_total_on_bit_flipped_archives(
        flips in vec((0usize..1 << 20, 0u32..8), 1..9),
    ) {
        let mut bytes = sample_archive_bytes();
        let len = bytes.len();
        for (pos, bit) in flips {
            bytes[pos % len] ^= 1 << bit;
        }
        check_decoding_is_total(&bytes)?;
    }

    #[test]
    fn from_bytes_is_total_on_truncated_archives(cut in 0usize..1 << 20) {
        let bytes = sample_archive_bytes();
        let cut = cut % bytes.len();
        prop_assert!(TadocArchive::from_bytes(&bytes[..cut]).is_err(), "cut at {}", cut);
    }
}

/// Hand-encodes an archive so a test controls every count and every raw
/// symbol word, including ones `Symbol::encode` cannot produce.
fn encode_archive(words: &[&str], files: &[&str], rules: &[Vec<u32>]) -> Vec<u8> {
    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for w in words {
        put_str(&mut out, w);
    }
    out.extend_from_slice(&(files.len() as u32).to_le_bytes());
    for f in files {
        put_str(&mut out, f);
        out.extend_from_slice(&[0u8; 16]); // token_count, byte_size
    }
    out.extend_from_slice(&(rules.len() as u32).to_le_bytes());
    for body in rules {
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        for raw in body {
            out.extend_from_slice(&raw.to_le_bytes());
        }
    }
    out
}

/// Every count field, set to `u32::MAX` with nothing behind it, is a typed
/// error — before this was bounded, the 16-byte input of the first case made
/// `Vec::with_capacity` ask for 103 GB and the process aborted.
#[test]
fn from_bytes_bounds_every_count_before_allocating() {
    let valid = encode_archive(&["a"], &["f"], &[vec![Symbol::Word(0).encode()]]);
    assert!(TadocArchive::from_bytes(&valid).is_ok());
    let huge = u32::MAX.to_le_bytes();
    // Offsets of word_count, file_count, rule_count and the body length.
    let word_count = MAGIC.len() + 4;
    let file_count = word_count + 4 + (4 + 1);
    let rule_count = file_count + 4 + (4 + 1 + 16);
    let body_len = rule_count + 4;
    for at in [word_count, file_count, rule_count, body_len] {
        let mut bytes = valid[..at].to_vec();
        bytes.extend_from_slice(&huge);
        assert_eq!(bytes.len(), at + 4);
        assert!(
            matches!(
                TadocArchive::from_bytes(&bytes),
                Err(sequitur::Error::Corrupt(_))
            ),
            "count at offset {at}"
        );
        // The same hostile count inside an otherwise intact archive.
        let mut bytes = valid.clone();
        bytes[at..at + 4].copy_from_slice(&huge);
        assert!(
            TadocArchive::from_bytes(&bytes).is_err(),
            "count at offset {at}"
        );
    }
}

/// A symbol word carrying the unused tag `0b11` is corrupt input, not a
/// panic in `Symbol::decode`.
#[test]
fn from_bytes_rejects_an_invalid_symbol_tag() {
    let bytes = encode_archive(&["a"], &["f"], &[vec![0b11 << 30]]);
    assert!(matches!(
        TadocArchive::from_bytes(&bytes),
        Err(sequitur::Error::Corrupt(_))
    ));
}

/// A word id at or past the dictionary size is rejected by both doors —
/// `from_bytes` and `Engine::build` — instead of indexing past the
/// vocabulary-sized tables of termVector or spilling into the neighbouring
/// field of a packed sequence key.
#[test]
fn word_ids_outside_the_dictionary_are_rejected() {
    let bytes = encode_archive(
        &["a", "b"],
        &["f"],
        &[vec![Symbol::Word(1).encode(), Symbol::Word(2).encode()]],
    );
    assert!(matches!(
        TadocArchive::from_bytes(&bytes),
        Err(sequitur::Error::InvalidReference(_))
    ));

    let mut archive = TadocArchive::from_bytes(&sample_archive_bytes()).expect("valid archive");
    let vocabulary = archive.vocabulary_size() as u32;
    let mut rules: Vec<Vec<Symbol>> = archive.grammar.rules().map(<[_]>::to_vec).collect();
    rules[0].push(Symbol::Word(vocabulary));
    archive.grammar = Grammar::new(rules);
    assert!(matches!(
        archive.validate(),
        Err(sequitur::Error::InvalidReference(_))
    ));
    let dag = Dag::from_grammar(&archive.grammar);
    assert!(matches!(
        Engine::builder(&archive, &dag).threads(2).build().err(),
        Some(EngineError::InvalidArchive { .. })
    ));
}

/// The grammar caches its verdict and its largest word id, not the
/// dictionary's size: a smaller dictionary swapped in after a successful
/// load is still caught at the engine door.
#[test]
fn a_dictionary_swapped_in_after_loading_is_checked_again() {
    let mut archive = TadocArchive::from_bytes(&sample_archive_bytes()).expect("valid archive");
    let dag = Dag::from_grammar(&archive.grammar);
    assert!(Engine::builder(&archive, &dag).threads(2).build().is_ok());
    let kept: Vec<String> = archive.dictionary.words()[..archive.vocabulary_size() - 1].to_vec();
    archive.dictionary = Dictionary::from_words(kept);
    assert!(matches!(
        archive.validate(),
        Err(sequitur::Error::InvalidReference(_))
    ));
    assert!(matches!(
        Engine::builder(&archive, &dag).threads(2).build().err(),
        Some(EngineError::InvalidArchive { .. })
    ));
}

// ---------------------------------------------------------------------------
// Cycle detection: fixed cases, and agreement with the validator it replaced
// ---------------------------------------------------------------------------

#[test]
fn validate_rejects_cycles_wherever_they_sit() {
    use Symbol::{Rule, Word};
    // Self-loop R1 -> R1.
    let self_loop = Grammar::new(vec![vec![Rule(1)], vec![Rule(1)]]);
    assert!(self_loop.validate().is_err());
    // R1 <-> R2, neither reachable from the root.
    let unreachable = Grammar::new(vec![vec![Word(0)], vec![Rule(2)], vec![Rule(1)]]);
    assert!(unreachable.validate().is_err());
    // The same graphs arriving as bytes.
    for grammar in [&self_loop, &unreachable] {
        let rules: Vec<Vec<u32>> = grammar
            .rules()
            .map(|body| body.iter().map(|sym| sym.encode()).collect())
            .collect();
        let bytes = encode_archive(&["a"], &["f"], &rules);
        assert!(matches!(
            TadocArchive::from_bytes(&bytes),
            Err(sequitur::Error::Corrupt(_))
        ));
    }
}

/// A 100k-rule chain R0 -> R1 -> ... -> R99999: validation must neither
/// recurse (stack overflow) nor build per-rule reachability sets (the
/// replaced closure needed ~5 * 10^9 set entries here), and the grammar it
/// accepts must expand without recursing either.
#[test]
fn validate_handles_a_100k_rule_chain_in_linear_time() {
    const N: u32 = 100_000;
    let mut rules: Vec<Vec<Symbol>> = (1..N).map(|next| vec![Symbol::Rule(next)]).collect();
    rules.push(vec![Symbol::Word(0)]);
    let chain = Grammar::new(rules.clone());
    assert!(chain.validate().is_ok());
    assert_eq!(chain.topological_order_children_first().len(), N as usize);
    assert_eq!(chain.expand_rule_words(0), vec![0]);
    assert_eq!(chain.expand_files(), vec![vec![0]]);
    let archive = archive_with_grammar(chain);
    assert_eq!(
        archive.decompress_files(),
        vec![("f0".to_string(), "w0".to_string())]
    );
    // Close the chain into one 100k-long cycle.
    rules[N as usize - 1] = vec![Symbol::Rule(0)];
    assert!(matches!(
        Grammar::new(rules).validate(),
        Err(sequitur::Error::Corrupt(_))
    ));
}

/// An archive around `grammar` whose dictionary holds 64 words and whose
/// metadata names one file per root segment.
fn archive_with_grammar(grammar: Grammar) -> TadocArchive {
    let files = (0..tadoc::weights::file_segments(&grammar).len())
        .map(|i| sequitur::archive::FileMeta {
            name: format!("f{i}"),
            token_count: 0,
            byte_size: 0,
        })
        .collect();
    TadocArchive {
        dictionary: Dictionary::from_words((0..64).map(|i| format!("w{i}")).collect()),
        grammar,
        files,
    }
}

/// The validator this repository shipped before the back-edge DFS, kept as
/// the reference: a per-rule transitive closure of cloned `BTreeSet`s over
/// the children-first order (quadratic in the worst case).
fn closure_finds_cycle(grammar: &Grammar) -> bool {
    use std::collections::BTreeSet;
    let mut reachable: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); grammar.num_rules()];
    for &r in grammar.topological_order_children_first() {
        let mut set = BTreeSet::new();
        for sym in grammar.rule(r as usize) {
            if let Symbol::Rule(c) = *sym {
                set.insert(c);
                set.extend(reachable[c as usize].iter().copied());
            }
        }
        if set.contains(&r) {
            return true;
        }
        reachable[r as usize] = set;
    }
    false
}

/// Rule bodies from a random draw: `(kind, pick)` is a word when `kind` is
/// 0 and a rule reference otherwise, every reference in range and no
/// splitters.  With `forward_only` every reference points to a
/// higher-numbered rule, so the graph is acyclic by construction; otherwise
/// it may point anywhere, self included.
fn random_rules(bodies: &[Vec<(u32, u32)>], forward_only: bool) -> Vec<Vec<Symbol>> {
    let n = bodies.len() as u32;
    bodies
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let i = i as u32;
            body.iter()
                .map(|&(kind, pick)| match kind {
                    0 => Symbol::Word(pick),
                    _ if forward_only && i + 1 == n => Symbol::Word(pick),
                    _ if forward_only => Symbol::Rule(i + 1 + pick % (n - i - 1)),
                    _ => Symbol::Rule(pick % n),
                })
                .collect()
        })
        .collect()
}

/// What `Dag::from_grammar` built before the CSR columns, kept as the
/// reference: per-rule hash-map counting into one vector per rule, parents
/// pushed edge by edge, and a children-first order from its own DFS.
struct NestedDag {
    children: Vec<Vec<(u32, u32)>>,
    parents: Vec<Vec<(u32, u32)>>,
    local_words: Vec<Vec<(u32, u32)>>,
    layers: Vec<u32>,
    num_layers: usize,
    order: Vec<u32>,
}

fn nested_dag(grammar: &Grammar) -> NestedDag {
    use std::collections::HashMap;
    /// Post-order DFS, recursive: the grammars under test are shallow.
    fn visit(grammar: &Grammar, r: u32, state: &mut [bool], order: &mut Vec<u32>) {
        state[r as usize] = true;
        for sym in grammar.rule(r as usize) {
            if let Symbol::Rule(c) = *sym {
                if !state[c as usize] {
                    visit(grammar, c, state, order);
                }
            }
        }
        order.push(r);
    }

    let n = grammar.num_rules();
    let mut children: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let mut parents: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let mut local_words: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (i, body) in grammar.rules().enumerate() {
        let mut child_freq: HashMap<u32, u32> = HashMap::new();
        let mut word_freq: HashMap<u32, u32> = HashMap::new();
        for sym in body {
            match *sym {
                Symbol::Rule(r) => *child_freq.entry(r).or_insert(0) += 1,
                Symbol::Word(w) => *word_freq.entry(w).or_insert(0) += 1,
                Symbol::Splitter(_) => {}
            }
        }
        let mut kids: Vec<(u32, u32)> = child_freq.into_iter().collect();
        kids.sort_unstable();
        for &(c, f) in &kids {
            parents[c as usize].push((i as u32, f));
        }
        children[i] = kids;
        let mut words: Vec<(u32, u32)> = word_freq.into_iter().collect();
        words.sort_unstable();
        local_words[i] = words;
    }
    let mut state = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for r in 0..n as u32 {
        if !state[r as usize] {
            visit(grammar, r, &mut state, &mut order);
        }
    }
    let mut layers = vec![0u32; n];
    for &r in order.iter().rev() {
        for &(c, _) in &children[r as usize] {
            layers[c as usize] = layers[c as usize].max(layers[r as usize] + 1);
        }
    }
    let num_layers = layers.iter().copied().max().unwrap_or(0) as usize + 1;
    NestedDag {
        children,
        parents,
        local_words,
        layers,
        num_layers,
        order,
    }
}

fn check_dag_matches_the_nested_reference(grammar: &Grammar) -> Result<(), TestCaseError> {
    let dag = Dag::from_grammar(grammar);
    let reference = nested_dag(grammar);
    prop_assert_eq!(dag.num_rules, grammar.num_rules());
    for r in 0..dag.num_rules {
        prop_assert_eq!(
            dag.children(r),
            reference.children[r].as_slice(),
            "children of {}",
            r
        );
        prop_assert_eq!(
            dag.parents(r),
            reference.parents[r].as_slice(),
            "parents of {}",
            r
        );
        prop_assert_eq!(
            dag.local_words(r),
            reference.local_words[r].as_slice(),
            "words of {}",
            r
        );
    }
    prop_assert_eq!(&dag.layers, &reference.layers);
    prop_assert_eq!(dag.num_layers, reference.num_layers);
    prop_assert_eq!(&dag.topo_children_first, &reference.order);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // A cycle is the only reason to reject a `random_rules` graph; the
    // forward-only half is acyclic and the rest mostly cyclic, so both
    // verdicts are exercised.
    #[test]
    fn linear_cycle_check_agrees_with_the_closure_reference(
        bodies in vec(vec((0u32..4, 0u32..64), 0..5), 1..12),
        forward_only in 0u32..2,
    ) {
        let grammar = Grammar::new(random_rules(&bodies, forward_only == 1));
        let cyclic = closure_finds_cycle(&grammar);
        prop_assert_eq!(grammar.validate().is_err(), cyclic, "grammar {:?}", grammar);
        if forward_only == 1 {
            prop_assert!(!cyclic, "forward-only graphs are acyclic");
        }
    }

    // On valid grammars the flat load path gives back exactly what it was
    // given, and the CSR DAG equals the nested reference field by field.
    #[test]
    fn flat_grammar_and_csr_dag_equal_the_nested_forms(
        bodies in vec(vec((0u32..4, 0u32..64), 0..5), 1..12),
    ) {
        let rules = random_rules(&bodies, true);
        let grammar = Grammar::new(rules.clone());
        prop_assert_eq!(grammar.num_rules(), rules.len());
        for (r, body) in rules.iter().enumerate() {
            prop_assert_eq!(grammar.rule(r), body.as_slice());
        }
        let archive = archive_with_grammar(grammar);
        let restored = TadocArchive::from_bytes(&archive.to_bytes()).expect("a valid grammar decodes");
        prop_assert_eq!(&restored.grammar, &archive.grammar);
        check_dag_matches_the_nested_reference(&restored.grammar)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The same on compressor output, whose roots carry splitters.
    #[test]
    fn csr_dag_equals_the_nested_reference_on_compressed_corpora(files in token_files()) {
        let archive = archive_from_tokens(&files);
        check_dag_matches_the_nested_reference(&archive.grammar)?;
    }
}
