//! End-to-end tests over the synthetic dataset presets A–E (at a small scale):
//! compression round-trips, Table II statistics are sensible, and G-TADOC
//! matches the CPU baseline on every dataset and task.

use g_tadoc_repro::prelude::*;

const SCALE: f64 = 0.02;

#[test]
fn every_dataset_roundtrips_through_compression() {
    for id in DatasetId::ALL {
        let corpus = DatasetPreset::new(id).generate_scaled(SCALE);
        let archive = corpus.compress();
        assert_eq!(
            archive.grammar.expand_files(),
            corpus.files,
            "dataset {} must decompress to the original token streams",
            id.label()
        );
        archive.grammar.validate().expect("valid grammar");
    }
}

#[test]
fn table2_statistics_reflect_dataset_shapes() {
    let mut stats = Vec::new();
    for id in DatasetId::ALL {
        let corpus = DatasetPreset::new(id).generate_scaled(SCALE);
        let archive = corpus.compress();
        stats.push((id, ArchiveStats::compute(&archive)));
    }
    let by_id = |want: DatasetId| &stats.iter().find(|(id, _)| *id == want).unwrap().1;
    // Dataset A has the most files; B has four; D and E are single files.
    assert!(by_id(DatasetId::A).num_files > by_id(DatasetId::B).num_files);
    assert_eq!(by_id(DatasetId::B).num_files, 4);
    assert_eq!(by_id(DatasetId::D).num_files, 1);
    assert_eq!(by_id(DatasetId::E).num_files, 1);
    // Every dataset exhibits enough redundancy for TADOC to be worthwhile.
    for (id, s) in &stats {
        assert!(
            s.token_reduction() > 1.2,
            "dataset {} should compress (reduction {:.2})",
            id.label(),
            s.token_reduction()
        );
        assert!(s.num_rules > 1, "dataset {}", id.label());
    }
}

#[test]
fn gtadoc_matches_cpu_baseline_on_all_datasets_and_tasks() {
    let cfg = TaskConfig::default();
    for id in DatasetId::ALL {
        let corpus = DatasetPreset::new(id).generate_scaled(SCALE);
        let archive = corpus.compress();
        let dag = Dag::from_grammar(&archive.grammar);
        let params = GtadocParams {
            requires_pcie_transfer: id.is_large(),
            ..Default::default()
        };
        let mut engine = GtadocEngine::with_params(GpuSpec::rtx_2080_ti(), params);
        for task in Task::ALL {
            let cpu = run_task(&archive, &dag, task, cfg);
            let gpu = engine.run_archive(&archive, task);
            assert_eq!(
                gpu.output,
                *cpu.output,
                "dataset {} task {}",
                id.label(),
                task.name()
            );
            assert!(gpu.total_seconds() > 0.0);
        }
    }
}

#[test]
fn large_dataset_pays_pcie_transfer() {
    let corpus = DatasetPreset::new(DatasetId::C).generate_scaled(SCALE);
    let archive = corpus.compress();
    let with = GtadocParams {
        requires_pcie_transfer: true,
        ..Default::default()
    };
    let mut engine_with = GtadocEngine::with_params(GpuSpec::tesla_v100(), with);
    let mut engine_without = GtadocEngine::new(GpuSpec::tesla_v100());
    let a = engine_with.run_archive(&archive, Task::WordCount);
    let b = engine_without.run_archive(&archive, Task::WordCount);
    assert!(a.transfer_seconds > b.transfer_seconds);
    assert_eq!(a.output, b.output);
}

#[test]
fn strategy_selector_prefers_top_down_for_dataset_b_term_vector() {
    // The Section VI-C observation: with only four files, the per-rule file
    // information is tiny, so the selector should pick top-down for term
    // vector on dataset B.
    let corpus = DatasetPreset::new(DatasetId::B).generate_scaled(SCALE);
    let archive = corpus.compress();
    let dag = Dag::from_grammar(&archive.grammar);
    let layout = gtadoc::layout::GpuLayout::build(&archive, &dag);
    let choice = gtadoc::traversal::selector::select(Task::TermVector, &layout);
    assert_eq!(choice, TraversalStrategy::TopDown);
}
