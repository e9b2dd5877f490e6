//! Robustness: the PSQL front end must never panic, whatever the input.

use proptest::prelude::*;
use psql::database::PictorialDatabase;
use psql::exec::execute;
use psql::lexer::lex;
use psql::parser::{parse_query, MAX_NESTING};
use psql::plan::plan;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer returns Ok or Err on arbitrary bytes — never panics.
    #[test]
    fn lexer_total_on_arbitrary_strings(input in ".*") {
        let _ = lex(&input);
    }

    /// The parser is total on arbitrary ASCII-ish strings.
    #[test]
    fn parser_total_on_arbitrary_strings(input in "[ -~]{0,200}") {
        let _ = parse_query(&input);
    }

    /// Grammar-shaped random queries parse + plan + execute without
    /// panicking (they may legitimately fail with semantic errors).
    #[test]
    fn pipeline_total_on_grammarish_queries(
        col in prop::sample::select(vec!["city", "state", "population", "loc", "zone", "bogus"]),
        rel in prop::sample::select(vec!["cities", "time-zones", "lakes", "nowhere"]),
        pic in prop::sample::select(vec!["us-map", "time-zone-map", "mars-map"]),
        op in prop::sample::select(vec!["covering", "covered-by", "overlapping", "disjoined"]),
        cx in 0.0..100.0f64,
        dx in 0.0..60.0f64,
        threshold in 0i64..20_000_000,
    ) {
        let db = PictorialDatabase::with_us_map();
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
    }
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
