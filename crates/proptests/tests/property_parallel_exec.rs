//! Subexpression-cache property tests: cached query evaluation must be
//! byte-identical to uncached evaluation — over random corpora, schemas
//! and queries, on a cold and on a warm cache. This is the correctness
//! contract of the engine-level subexpression cache (§5.2 sharing).

use proptest::prelude::*;
use qof::corpus::bibtex::{self, BibtexConfig};
use qof::corpus::logs::{self, LogConfig};
use qof::grammar::IndexSpec;
use qof::text::{Corpus, CorpusBuilder};
use qof::{FileDatabase, QueryResult};

/// A multi-file BibTeX corpus: `files` files with distinct seeds derived
/// from `seed`, `refs` references each.
fn bibtex_corpus(files: usize, refs: usize, seed: u64) -> Corpus {
    let mut b = CorpusBuilder::new();
    for i in 0..files {
        let cfg = BibtexConfig {
            n_refs: refs,
            seed: seed.wrapping_mul(31).wrapping_add(i as u64),
            name_pool: 8,
            ..Default::default()
        };
        b.add_file(format!("f{i}.bib"), &bibtex::generate(&cfg).0);
    }
    b.build()
}

fn bibtex_queries() -> Vec<&'static str> {
    vec![
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
        "SELECT r FROM References r WHERE r.*X.Last_Name = \"Griewank\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
         AND r.Year = \"1975\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
         OR r.Editors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
        "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Milo\"",
        "SELECT r FROM References r WHERE r.Keywords.Keyword = \"Taylor series\"",
    ]
}

/// Byte-identical result comparison: regions, materialized values, and the
/// exactness verdict all agree.
fn assert_same(a: &QueryResult, b: &QueryResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.regions, &b.regions, "regions differ: {}", ctx);
    prop_assert_eq!(&a.values, &b.values, "values differ: {}", ctx);
    prop_assert_eq!(
        a.stats.exact_index,
        b.stats.exact_index,
        "exactness differs: {}",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached evaluation returns exactly the uncached answer, on the first
    /// (cold) and the repeated (warm) run.
    #[test]
    fn cached_matches_uncached(
        seed in 0u64..5,
        files in 1usize..6,
        qi in 0usize..9,
    ) {
        let corpus = bibtex_corpus(files, 12, seed);
        let q = bibtex_queries()[qi];
        let plain = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full())
            .unwrap();
        let cached = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full())
            .unwrap()
            .with_subexpr_cache(true);
        let a = plain.query(q).unwrap();
        // Twice, so the second run replays through a warm cache.
        let b1 = cached.query(q).unwrap();
        let b2 = cached.query(q).unwrap();
        let ctx = format!("{q} (files={files})");
        assert_same(&a, &b1, &ctx)?;
        assert_same(&a, &b2, &ctx)?;
    }

    /// The same contract on a second schema, partial index included.
    #[test]
    fn cached_matches_uncached_on_logs_schema(
        seed in 0u64..4,
        partial in proptest::bool::ANY,
    ) {
        let mut b = CorpusBuilder::new();
        for i in 0..3u64 {
            let cfg = LogConfig {
                n_sessions: 15,
                error_percent: 10,
                seed: seed * 7 + i,
                ..Default::default()
            };
            b.add_file(format!("l{i}.log"), &logs::generate(&cfg).0);
        }
        let corpus = b.build();
        let spec = if partial {
            IndexSpec::names(["Session", "Status"])
        } else {
            IndexSpec::full()
        };
        let q = "SELECT s FROM Sessions s WHERE s.Requests.Request.Status = \"500\"";
        let plain = FileDatabase::build(corpus.clone(), logs::schema(), spec.clone()).unwrap();
        let cached = FileDatabase::build(corpus, logs::schema(), spec)
            .unwrap()
            .with_subexpr_cache(true);
        let ctx = format!("logs (partial={partial})");
        for _ in 0..2 {
            assert_same(&plain.query(q).unwrap(), &cached.query(q).unwrap(), &ctx)?;
        }
    }
}
