//! Inputs and oracle: the seeded BibTeX corpus, the query mixes, and the
//! answer checks against the generator's ground truth.

use std::collections::BTreeSet;

use qof_corpus::bibtex::{self, BibtexConfig, BibtexTruth};
use qof_corpus::{Rng, StdRng, LAST_NAMES};
use qof_db::Value;
use qof_text::{Corpus, CorpusBuilder};

/// Names used by the exact-lookup mix: a fixed subset, so every distinct
/// query of the mix fits the plan cache.
const LOOKUP_NAMES: usize = 24;
/// Years the generator draws from.
const FIRST_YEAR: usize = 1970;
const YEARS: usize = 25;

/// Mixes `seed` with a stream label, so each input draws from its own
/// sequence while the whole run still follows from one seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generated BibTeX files and their ground truth, one entry per file.
#[derive(Default)]
pub struct Files {
    pub texts: Vec<(String, String)>,
    pub truths: Vec<BibtexTruth>,
}

impl Files {
    /// `files` files of `refs` references each, drawn from the full name
    /// pool; file `i` is named `<prefix><i>.bib` and seeded from stream
    /// `first_stream + i` of `seed`.
    pub fn generate(
        seed: u64,
        first_stream: u64,
        prefix: &str,
        files: usize,
        refs: usize,
    ) -> Files {
        let mut out = Files::default();
        for i in 0..files {
            let cfg = BibtexConfig {
                n_refs: refs,
                seed: derive(seed, first_stream + i as u64),
                name_pool: LAST_NAMES.len(),
                ..Default::default()
            };
            let (text, truth) = bibtex::generate(&cfg);
            out.texts.push((format!("{prefix}{i:04}.bib"), text));
            out.truths.push(truth);
        }
        out
    }

    /// The corpus of every file, in order.
    pub fn corpus(&self) -> Corpus {
        let mut b = CorpusBuilder::new();
        for (name, text) in &self.texts {
            b.add_file(name.clone(), text);
        }
        b.build()
    }

    /// Bytes of text in all files.
    pub fn bytes(&self) -> usize {
        self.texts.iter().map(|(_, t)| t.len()).sum()
    }
}

/// One query shape of the mixes, with its constants.
#[derive(Debug)]
pub enum Shape {
    /// `SELECT r` by author last name: builds objects.
    AuthorObjects(&'static str),
    /// `SELECT r.Key` by author last name.
    AuthorKeys(&'static str),
    /// `SELECT r.Key` by year.
    YearKeys(usize),
    /// `SELECT r.Key` through the §5.3 star path `r.*X.Last_Name`.
    StarKeys(&'static str),
    /// `SELECT r.Key` where an editor is `.0` or an author is `.1`.
    EditorOrAuthor(&'static str, &'static str),
    /// `SELECT r.Key` where an author is `.0` and an editor is `.1`.
    AuthorAndEditor(&'static str, &'static str),
    /// The §5.2 same-variable content join, `SELECT r`.
    EditorIsAuthor,
}

const AUTHOR: &str = "r.Authors.Name.Last_Name";
const EDITOR: &str = "r.Editors.Name.Last_Name";

impl Shape {
    /// The query text.
    pub fn sql(&self) -> String {
        match self {
            Shape::AuthorObjects(n) => {
                format!("SELECT r FROM References r WHERE {AUTHOR} = \"{n}\"")
            }
            Shape::AuthorKeys(n) => {
                format!("SELECT r.Key FROM References r WHERE {AUTHOR} = \"{n}\"")
            }
            Shape::YearKeys(y) => format!("SELECT r.Key FROM References r WHERE r.Year = \"{y}\""),
            Shape::StarKeys(n) => {
                format!("SELECT r.Key FROM References r WHERE r.*X.Last_Name = \"{n}\"")
            }
            Shape::EditorOrAuthor(e, a) => format!(
                "SELECT r.Key FROM References r WHERE {EDITOR} = \"{e}\" OR {AUTHOR} = \"{a}\""
            ),
            Shape::AuthorAndEditor(a, e) => format!(
                "SELECT r.Key FROM References r WHERE {AUTHOR} = \"{a}\" AND {EDITOR} = \"{e}\""
            ),
            Shape::EditorIsAuthor => {
                format!("SELECT r FROM References r WHERE {EDITOR} = {AUTHOR}")
            }
        }
    }

    /// Whether the query projects whole objects (`SELECT r`).
    pub fn objects(&self) -> bool {
        matches!(self, Shape::AuthorObjects(_) | Shape::EditorIsAuthor)
    }

    /// Sorted multiset of the keys of every matching reference.
    pub fn expected(&self, truths: &[BibtexTruth]) -> Vec<String> {
        let mut keys: Vec<String> = Vec::new();
        for t in truths {
            let file_keys: Vec<&str> = match self {
                Shape::AuthorObjects(n) | Shape::AuthorKeys(n) => t.refs_with_author_last(n),
                Shape::YearKeys(y) => t.refs_with_year(&y.to_string()),
                Shape::StarKeys(n) => t.refs_with_any_last(n),
                // Keys are unique within one file, so per-file set algebra
                // on keys is set algebra on references.
                Shape::EditorOrAuthor(e, a) => {
                    let mut s: BTreeSet<&str> = t.refs_with_editor_last(e).into_iter().collect();
                    s.extend(t.refs_with_author_last(a));
                    s.into_iter().collect()
                }
                Shape::AuthorAndEditor(a, e) => {
                    let eds: BTreeSet<&str> = t.refs_with_editor_last(e).into_iter().collect();
                    t.refs_with_author_last(a).into_iter().filter(|k| eds.contains(k)).collect()
                }
                Shape::EditorIsAuthor => t
                    .refs
                    .iter()
                    .filter(|r| {
                        r.editors.iter().any(|(_, l)| r.authors.iter().any(|(_, a)| a == l))
                    })
                    .map(|r| r.key.as_str())
                    .collect(),
            };
            keys.extend(file_keys.into_iter().map(str::to_owned));
        }
        keys.sort();
        keys
    }
}

/// What a query returned, reduced to what the oracle can check.
#[derive(Debug, Default)]
pub struct Answer {
    /// Number of matching references.
    pub results: usize,
    /// Keys of the matching references, sorted, when the caller can see them.
    pub ref_keys: Option<Vec<String>>,
    /// The projected values as text: keys for `SELECT r.Key`; one entry per
    /// object for `SELECT r`.
    pub values: Vec<String>,
}

impl Answer {
    /// The answer of an in-process query: keys are read back from the
    /// matched reference regions (each starts `@INCOLLECTION{<key>,`).
    pub fn from_result(res: &qof_core::QueryResult, corpus: &Corpus) -> Answer {
        let mut keys: Vec<String> = res
            .regions
            .iter()
            .map(|r| {
                let text = corpus.slice(r.span());
                let body = text.strip_prefix("@INCOLLECTION{").unwrap_or(text);
                body.split(',').next().unwrap_or_default().to_owned()
            })
            .collect();
        keys.sort();
        let values = res
            .values
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            })
            .collect();
        Answer { results: res.regions.len(), ref_keys: Some(keys), values }
    }
}

/// Checks `got` against the oracle's sorted key multiset. `SELECT r.Key`
/// returns the distinct keys (keys repeat across files), `SELECT r` one
/// object per reference.
pub fn check(shape: &Shape, expected: &[String], got: &Answer) -> Result<(), String> {
    let sql = shape.sql();
    if got.results != expected.len() {
        return Err(format!("{sql}: {} results, expected {}", got.results, expected.len()));
    }
    if let Some(keys) = &got.ref_keys {
        if keys.as_slice() != expected {
            return Err(format!("{sql}: matched references differ from the ground truth"));
        }
    }
    if shape.objects() {
        if got.values.len() != expected.len() {
            return Err(format!(
                "{sql}: {} objects, expected {}",
                got.values.len(),
                expected.len()
            ));
        }
    } else {
        let mut distinct: Vec<String> = expected.to_vec();
        distinct.dedup();
        let mut values = got.values.clone();
        values.sort();
        if values != distinct {
            return Err(format!("{sql}: projected keys differ from the ground truth"));
        }
    }
    Ok(())
}

/// A seeded stream of queries. Shapes come in cycles that hold each shape
/// in its exact share, shuffled, so every run sends the same proportions;
/// the constants are drawn at random.
pub struct Mix {
    rng: StdRng,
    kind: MixKind,
    cycle: Vec<u8>,
}

/// Which query mix a workload sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    /// Six shapes in equal shares over 24 names and 25 years.
    Lookup,
    /// 32 in 40 author-AND-editor pairs over all 60 names, 7 in 40
    /// `SELECT r` by author, 1 in 40 the content join.
    Residual,
}

impl MixKind {
    /// One line describing the mix, printed with the metrics.
    pub fn describe(self) -> &'static str {
        match self {
            MixKind::Lookup => {
                "1/6 each: SELECT r by author, SELECT r.Key by author, r.Year, r.*X.Last_Name, \
                 editor OR author, EDITOR_IS_AUTHOR; 24 names, 25 years"
            }
            MixKind::Residual => {
                "80% SELECT r.Key author AND editor (60x60 names), 17.5% SELECT r by author \
                 (60 names), 2.5% EDITOR_IS_AUTHOR"
            }
        }
    }

    /// One cycle of shape slots, before shuffling.
    fn cycle(self) -> Vec<u8> {
        match self {
            MixKind::Lookup => (0..6).collect(),
            MixKind::Residual => [[0u8; 32].as_slice(), &[1; 7], &[2; 1]].concat(),
        }
    }
}

impl Mix {
    pub fn new(kind: MixKind, seed: u64) -> Mix {
        Mix { rng: StdRng::seed_from_u64(seed), kind, cycle: Vec::new() }
    }

    fn name(&mut self, pool: usize) -> &'static str {
        LAST_NAMES[self.rng.random_range(0..pool)]
    }

    pub fn next_shape(&mut self) -> Shape {
        if self.cycle.is_empty() {
            self.cycle = self.kind.cycle();
            for i in (1..self.cycle.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.cycle.swap(i, j);
            }
        }
        let slot = self.cycle.pop().unwrap_or_default();
        match (self.kind, slot) {
            (MixKind::Lookup, 0) => Shape::AuthorObjects(self.name(LOOKUP_NAMES)),
            (MixKind::Lookup, 1) => Shape::AuthorKeys(self.name(LOOKUP_NAMES)),
            (MixKind::Lookup, 2) => Shape::YearKeys(FIRST_YEAR + self.rng.random_range(0..YEARS)),
            (MixKind::Lookup, 3) => Shape::StarKeys(self.name(LOOKUP_NAMES)),
            (MixKind::Lookup, 4) => {
                Shape::EditorOrAuthor(self.name(LOOKUP_NAMES), self.name(LOOKUP_NAMES))
            }
            (MixKind::Residual, 0) => {
                Shape::AuthorAndEditor(self.name(LAST_NAMES.len()), self.name(LAST_NAMES.len()))
            }
            (MixKind::Residual, 1) => Shape::AuthorObjects(self.name(LAST_NAMES.len())),
            _ => Shape::EditorIsAuthor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(keys: &[&str], objects: bool) -> Answer {
        let mut distinct: Vec<String> = keys.iter().map(|k| (*k).to_owned()).collect();
        distinct.sort();
        let ref_keys = distinct.clone();
        if !objects {
            distinct.dedup();
        }
        Answer { results: keys.len(), ref_keys: Some(ref_keys), values: distinct }
    }

    #[test]
    fn expected_answers_follow_the_ground_truth() {
        let files = Files::generate(7, 0, "f", 3, 40);
        let shape = Shape::AuthorKeys(LAST_NAMES[0]);
        let expected = shape.expected(&files.truths);
        let direct: usize =
            files.truths.iter().map(|t| t.refs_with_author_last(LAST_NAMES[0]).len()).sum();
        assert_eq!(expected.len(), direct);
        let pair = Shape::AuthorAndEditor(LAST_NAMES[0], LAST_NAMES[1]).expected(&files.truths);
        let either = Shape::EditorOrAuthor(LAST_NAMES[1], LAST_NAMES[0]).expected(&files.truths);
        assert!(pair.len() <= expected.len() && expected.len() <= either.len());
    }

    #[test]
    fn a_real_answer_fails_against_a_wrong_expected_answer() {
        let files = Files::generate(3, 0, "f", 2, 40);
        let db = qof_core::FileDatabase::build(
            files.corpus(),
            bibtex::schema(),
            qof_grammar::IndexSpec::full(),
        )
        .expect("generated corpus indexes");
        let first_author = &files.truths[0].refs[0].authors[0].1;
        let name = LAST_NAMES.iter().find(|n| *n == first_author).expect("a pool name");
        for shape in [Shape::AuthorKeys(name), Shape::AuthorObjects(name), Shape::EditorIsAuthor] {
            let got =
                Answer::from_result(&db.query(&shape.sql()).expect("query runs"), db.corpus());
            let right = shape.expected(&files.truths);
            assert_eq!(check(&shape, &right, &got), Ok(()));
            // Another name's answer, and the right answer less one
            // reference or with one reference swapped, are all rejected.
            let other = LAST_NAMES
                .iter()
                .map(|n| Shape::AuthorKeys(n).expected(&files.truths))
                .find(|e| *e != right)
                .expect("some name answers differently");
            assert!(check(&shape, &other, &got).is_err());
            let mut short = right.clone();
            short.pop();
            assert!(check(&shape, &short, &got).is_err());
            let mut swapped = right.clone();
            swapped[0] = "Key999999".into();
            swapped.sort();
            assert!(check(&shape, &swapped, &got).is_err());
        }
    }

    #[test]
    fn checks_accept_the_right_answer_and_reject_wrong_ones() {
        let keys = ["Key000001", "Key000001", "Key000007"];
        let expected: Vec<String> = keys.iter().map(|k| (*k).to_owned()).collect();
        let shape = Shape::AuthorKeys("Chang");
        assert!(check(&shape, &expected, &answer(&keys, false)).is_ok());
        // A missing reference, an extra one, and the right count with a
        // wrong key are all rejected.
        assert!(check(&shape, &expected, &answer(&keys[..2], false)).is_err());
        assert!(check(
            &shape,
            &expected,
            &answer(&["Key000001", "Key000001", "Key000007", "Key000009"], false)
        )
        .is_err());
        assert!(check(&shape, &expected, &answer(&["Key000001", "Key000002", "Key000007"], false))
            .is_err());
        let objects = Shape::EditorIsAuthor;
        assert!(check(&objects, &expected, &answer(&keys, true)).is_ok());
        let mut short = answer(&keys, true);
        short.values.pop();
        assert!(check(&objects, &expected, &short).is_err());
        // A server answer carries no reference keys; its count still counts.
        let wire = Answer {
            results: 2,
            ref_keys: None,
            values: vec!["Key000001".into(), "Key000007".into()],
        };
        assert!(check(&shape, &expected, &wire).is_err());
    }
}
