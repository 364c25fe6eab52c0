//! `ingest`: compress the text files and encode the archive.
//!
//! The only workload where sequitur's *write* path (tokenizer, dictionary,
//! `Sequitur`, archive encode) does the work; the read path does none.  A
//! format or grammar change that helps reads at the cost of writes shows
//! here and nowhere else.
//!
//! 1 caller; op = `compress_corpus(text files)` + `TadocArchive::to_bytes()`
//! for one corpus, alternating `manyfiles` / `fewfiles`.  Check: every op's
//! bytes equal the reference bytes of set-up, and set-up checks once per
//! corpus that `decompress_files()` gives the input text back.

use std::time::Instant;

use super::{
    common_layer_metrics, compress_text, measure, BenchError, Corpus, CorpusFacts, Ctx, Outcome,
    CORPORA, SETUP_REPS,
};
use crate::trace::{Layers, Tracer};

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, BenchError> {
    // One key per corpus.
    let keys: Vec<usize> = (0..CORPORA.len()).collect();
    let mut setup_s = Vec::new();
    let mut corpora = Vec::new();
    for rep in 0..SETUP_REPS as u32 {
        // The previous repetition is freed first, so peak memory is that
        // of one set-up.
        corpora.clear();
        let t0 = Instant::now();
        corpora = (0..CORPORA.len())
            .map(|id| Corpus::prepare(id, ctx.seed, rep, tracer))
            .collect::<Vec<_>>();
        for corpus in &corpora {
            if corpus.archive.decompress_files() != corpus.files {
                return Err(BenchError::Check(format!(
                    "{}: decompress_files() does not give the input text back",
                    CORPORA[corpus.id]
                )));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let windows = measure(ctx, &keys, &mut [()], tracer, |_, k, tag, tracer| {
        let corpus = &corpora[k];
        let archive = compress_text(&corpus.files, tracer, tag);
        let bytes = tracer.time("sequitur.archive.encode", tag, || archive.to_bytes());
        if bytes == corpus.bytes {
            Ok(())
        } else {
            Err(BenchError::Check(format!(
                "{}: archive bytes differ from the reference encoding",
                CORPORA[corpus.id]
            )))
        }
    });

    let facts: Vec<CorpusFacts> = corpora.iter().map(CorpusFacts::of).collect();
    let layers = match &windows.traced {
        Some(traced) => common_layer_metrics(
            &Layers::new(tracer.spans()),
            &[],
            &facts,
            &windows.untraced,
            traced,
        ),
        None => Default::default(),
    };
    Ok(Outcome {
        key_labels: CORPORA.iter().map(|c| c.to_string()).collect(),
        callers: 1,
        setup_s,
        windows,
        corpora: facts,
        layers,
    })
}
