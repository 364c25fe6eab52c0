//! Archive byte stability: the compressor's output is pinned byte for byte.
//!
//! `TadocArchive::to_bytes()` of a fixed corpus and of two generated
//! datasets is hashed and compared with values captured from an earlier
//! build, so a change to the write path (tokenizer, dictionary, Sequitur,
//! archive encoder) that alters a single byte fails here instead of only
//! moving `archive_bytes_per_token`.  The properties below check that the
//! text path (`compress_corpus`) and the token path (`compress_token_files`)
//! build the same archive from the same tokens.

use proptest::collection::vec;
use proptest::prelude::*;

use g_tadoc_repro::prelude::*;
use sequitur::compress::compress_token_files;
use sequitur::tokenizer::tokenize_into;
use sequitur::Dictionary;

/// FNV-1a over the archive bytes: stable across platforms and releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(length, digest)` of an archive's serialized bytes.
fn fingerprint(archive: &TadocArchive) -> (usize, u64) {
    let bytes = archive.to_bytes();
    (bytes.len(), fnv1a(&bytes))
}

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

/// Dataset `id` at scale 0.2, seed 1.
fn preset(id: DatasetId) -> datagen::GeneratedCorpus {
    let mut preset = DatasetPreset::new(id);
    preset.config.seed = 1;
    preset.generate_scaled(0.2)
}

/// The generated corpus rendered as text, the way the benchmark feeds it.
fn render(corpus: &datagen::GeneratedCorpus) -> Vec<(String, String)> {
    corpus
        .file_names
        .iter()
        .zip(&corpus.files)
        .map(|(name, words)| {
            let text: Vec<&str> = words.iter().map(|&w| corpus.dictionary.word(w)).collect();
            (name.clone(), text.join(" "))
        })
        .collect()
}

/// Tokenizes `files` and compresses the token streams, spelling out
/// `compress_corpus` through `compress_token_files`.
fn compress_via_tokens(files: &[(String, String)]) -> TadocArchive {
    let opts = CompressOptions::default();
    let mut dict = Dictionary::new();
    let tokens = files
        .iter()
        .map(|(_, text)| tokenize_into(text, &mut dict, opts.tokenizer))
        .collect();
    let names = files.iter().map(|(name, _)| name.clone()).collect();
    let sizes = files.iter().map(|(_, text)| text.len() as u64).collect();
    compress_token_files(dict, tokens, names, sizes)
}

#[test]
fn archive_bytes_are_pinned() {
    let mut got = vec![(
        "fixed",
        fingerprint(&compress_corpus(
            &fixed_corpus(),
            CompressOptions::default(),
        )),
    )];
    for (id, tokens_label, text_label) in [
        (DatasetId::A, "A tokens", "A text"),
        (DatasetId::B, "B tokens", "B text"),
    ] {
        let corpus = preset(id);
        got.push((tokens_label, fingerprint(&corpus.compress())));
        let text = render(&corpus);
        got.push((
            text_label,
            fingerprint(&compress_corpus(&text, CompressOptions::default())),
        ));
    }
    for (label, (len, digest)) in &got {
        println!("(\"{label}\", ({len}, {digest:#018x})),");
    }
    assert_eq!(got.len(), PINNED.len(), "capture run — see stdout");
    for ((label, fp), (pinned_label, pinned_fp)) in got.iter().zip(PINNED) {
        assert_eq!(label, pinned_label);
        assert_eq!(fp, pinned_fp, "archive bytes of {label} changed");
    }
}

#[test]
fn text_and_token_paths_agree_on_edge_corpora() {
    let one = |name: &str, text: &str| (name.to_string(), text.to_string());
    for files in [
        vec![],
        vec![one("empty", "")],
        vec![one("only", "a b a b a b")],
        vec![one("e0", ""), one("e1", "  \n\t")],
        vec![one("e0", ""), one("x", "x y x y"), one("e2", "")],
    ] {
        let via_text = compress_corpus(&files, CompressOptions::default());
        assert_eq!(
            via_text.to_bytes(),
            compress_via_tokens(&files).to_bytes(),
            "{files:?}"
        );
        assert_eq!(via_text.files.len(), files.len());
    }
}

/// Random text files: between 0 and 5 files of words from a small alphabet,
/// separated by assorted whitespace (empty files included).
fn text_files() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    vec(vec((0u32..10, 0u32..4), 0..80), 0..6)
}

fn render_random(files: &[Vec<(u32, u32)>]) -> Vec<(String, String)> {
    const GAPS: [&str; 4] = [" ", "  ", "\n", "\t "];
    files
        .iter()
        .enumerate()
        .map(|(i, words)| {
            let mut text = String::new();
            for &(w, gap) in words {
                text.push_str(&format!("w{w}"));
                text.push_str(GAPS[gap as usize]);
            }
            (format!("f{i}"), text)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compress_corpus_equals_compress_token_files(files in text_files()) {
        let files = render_random(&files);
        let via_text = compress_corpus(&files, CompressOptions::default());
        prop_assert_eq!(via_text.to_bytes(), compress_via_tokens(&files).to_bytes());
    }
}

/// `(archive length, FNV-1a of its bytes)`, captured before the write path
/// moved to packed node symbols and the open-addressing digram table.
const PINNED: &[(&str, (usize, u64))] = &[
    ("fixed", (305, 0xd594954578bd9376)),
    ("A tokens", (124570, 0x33d2a5bb34e1cfa1)),
    ("A text", (61976, 0x25807f89b10f0f0f)),
    ("B tokens", (329520, 0xd8cbac4024ef973a)),
    ("B text", (255558, 0xdd885078debee041)),
];
