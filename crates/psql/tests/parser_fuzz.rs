//! Robustness: the PSQL front end must never panic, whatever the input.

use psql::database::PictorialDatabase;
use psql::exec::execute;
use psql::lexer::lex;
use psql::parser::{parse_query, MAX_NESTING};
use psql::plan::plan;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::{panic, thread};

/// Runs `body` on `cases` generators seeded `1985 + k`; a failing case names its test and `k`.
fn for_cases(cases: u64, mut body: impl FnMut(&mut StdRng)) {
    for k in 0..cases {
        let mut rng = StdRng::seed_from_u64(1985 + k);
        if let Err(cause) = panic::catch_unwind(panic::AssertUnwindSafe(|| body(&mut rng))) {
            let test = thread::current();
            eprintln!("{}: case {k} failed", test.name().unwrap_or("?"));
            panic::resume_unwind(cause);
        }
    }
}

/// A printable ASCII character, `' '` to `'~'`.
fn printable(rng: &mut StdRng) -> char {
    char::from(rng.gen_range(b' '..=b'~'))
}

/// One of the space-separated `words`, uniformly.
fn pick<'a>(rng: &mut StdRng, words: &'a str) -> &'a str {
    let words: Vec<&str> = words.split(' ').collect();
    words[rng.gen_range(0..words.len())]
}

/// The lexer never panics on up to 64 characters, one in eight awkward
/// (whitespace, NUL, quotes, non-ASCII) and the rest printable ASCII.
#[test]
fn lexer_total_on_arbitrary_strings() {
    const AWKWARD: [char; 8] = ['\n', '\t', '\0', 'é', '→', '𝄞', '"', '\''];
    for_cases(256, |rng| {
        let input: String = (0..rng.gen_range(0..=64))
            .map(|_| match rng.gen_range(0..8) {
                0 => AWKWARD[rng.gen_range(0..AWKWARD.len())],
                _ => printable(rng),
            })
            .collect();
        let _ = lex(&input);
    });
}

/// The parser is total on up to 200 printable ASCII characters.
#[test]
fn parser_total_on_arbitrary_strings() {
    for_cases(256, |rng| {
        let len = rng.gen_range(0..=200);
        let input: String = (0..len).map(|_| printable(rng)).collect();
        let _ = parse_query(&input);
    });
}

/// Grammar-shaped random queries parse + plan + execute without
/// panicking (they may legitimately fail with semantic errors).
#[test]
fn pipeline_total_on_grammarish_queries() {
    let db = PictorialDatabase::with_us_map();
    for_cases(256, |rng| {
        let col = pick(rng, "city state population loc zone bogus");
        let rel = pick(rng, "cities time-zones lakes nowhere");
        let pic = pick(rng, "us-map time-zone-map mars-map");
        let op = pick(rng, "covering covered-by overlapping disjoined");
        let (cx, dx) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..60.0));
        let threshold = rng.gen_range(0i64..20_000_000);
        let text = format!(
            "select {col} from {rel} on {pic} at loc {op} {{{cx} +- {dx}, 25 +- 25}} \
             where population > {threshold}"
        );
        if let Ok(q) = parse_query(&text) {
            if let Ok(p) = plan(&db, &q) {
                let _ = p.explain();
                let _ = execute(&db, &q);
            }
        }
    });
}

/// Deterministic regression corpus of nasty inputs. The deep ones each
/// once overflowed a 2 MiB stack, in the parser or in a later stage:
/// nesting past the parser's limit is refused, while mappings nested to
/// the limit and a flat chain of 3 000 terms parse and run.
#[test]
fn nasty_inputs_do_not_panic() {
    let db = PictorialDatabase::with_us_map();
    let mapping = "(select lakes.loc from lakes on lake-map at lakes.loc covered-by ";
    for text in [
        "",
        ";",
        "select",
        "select select select",
        "select * from cities at loc covered-by {1 +- 1, 2 +- 2} where",
        "select city from cities on us-map at loc covered-by {999999999999 +- 1e308, 0 +- 0}",
        "select city from cities where population > -0",
        "select city from cities where city = ''",
        "select a.b.c from cities",
        "select city from cities, cities at cities.loc covered-by cities.loc",
        "select lake from lakes at lakes.loc covered-by (select lake from lakes)",
        "select city from cities on us-map at loc covered-by {5 +- 4, 11 +- 9} \
         where population > 450000 and (state = 'NY' or not population < 2)",
        "\\u{1F600} select city from cities",
    ]
    .map(String::from)
    .into_iter()
    .chain([
        format!(
            "select city from cities where {}population > 1{}",
            "(".repeat(10_000),
            ")".repeat(10_000)
        ),
        format!(
            "select city from cities where {}population > 1",
            "not ".repeat(10_000)
        ),
        format!(
            "select city from cities where population > 1{}",
            " or population > 1".repeat(3_000)
        ),
        format!(
            "select lake from lakes on lake-map at lakes.loc covered-by {}{{4 +- 4, 11 +- 9}}{}",
            mapping.repeat(500),
            ")".repeat(500)
        ),
        format!(
            "select lake from lakes on lake-map at lakes.loc covered-by {}{{4 +- 4, 11 +- 9}}{}",
            mapping.repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        ),
    ]) {
        if let Ok(q) = parse_query(&text) {
            let _ = execute(&db, &q);
        }
    }
}
