//! Loop-file round-trip property: parse → pretty-print → re-parse is
//! the identity, and pretty-printing is a fixpoint, for every `.loop`
//! file in the corpus and for generated kernels. This is the contract
//! that lets the server key its caches on the canonicalized text.

use proptest::prelude::*;

use ltsp::ir::parse_loop;
use ltsp::workloads::random_loop;

fn corpus_files() -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir("loops")
        .expect("loops/ corpus directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.display().to_string();
            let text = std::fs::read_to_string(&p).expect("readable corpus file");
            (name, text)
        })
        .collect()
}

#[test]
fn corpus_files_round_trip_exactly() {
    let files = corpus_files();
    assert!(
        files.len() >= 17,
        "expected the full corpus, found {} files",
        files.len()
    );
    for (name, text) in files {
        let lp = parse_loop(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = lp.to_string();
        let reparsed = parse_loop(&printed)
            .unwrap_or_else(|e| panic!("{name}: reparse of pretty-print failed: {e}\n{printed}"));
        assert_eq!(lp, reparsed, "{name}: parse→print→parse changed the loop");
        assert_eq!(
            printed,
            reparsed.to_string(),
            "{name}: pretty-print is not a fixpoint"
        );
    }
}

/// A loop's `Debug` text is a function of the loop: the definition index
/// hashes with a multiplier drawn per table, and must not print in the
/// order it sets. (The compile cache sizes its entries by this text.)
#[test]
fn two_parses_debug_print_the_same() {
    for (name, text) in corpus_files() {
        let parse = || parse_loop(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (a, b) = (format!("{:?}", parse()), format!("{:?}", parse()));
        assert!(a == b, "{name}: two parses print\n{a}\nand\n{b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated kernels round-trip too: printing and reparsing is the
    /// identity and a second print produces the same bytes.
    #[test]
    fn generated_kernels_round_trip_exactly(seed in 0u64..100_000) {
        let lp = random_loop(seed);
        let printed = lp.to_string();
        let reparsed = parse_loop(&printed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}\n{printed}")))?;
        prop_assert_eq!(&lp, &reparsed, "seed {}: round trip changed the loop", seed);
        prop_assert_eq!(printed, reparsed.to_string(), "seed {}: print not a fixpoint", seed);
    }
}
