//! End-to-end smoke test of the interactive shell binary: a scripted
//! session through stdin must produce the expected tables and exit
//! cleanly.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_session(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_psql-shell"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("shell starts");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("shell exits");
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn scripted_query_session() {
    let out =
        run_session("select city, population from cities where population > 9000000;\n\\quit\n");
    assert!(out.contains("New York"), "missing result:\n{out}");
    assert!(out.contains("Chicago"));
    assert!(out.contains("(3 rows)"));
    assert!(out.contains("bye"));
}

#[test]
fn multiline_query_and_map() {
    let out = run_session(
        "select city, loc from cities on us-map\n\
         at loc covered-by {82.5 +- 17.5, 25 +- 20}\n\
         where population > 4000000;\n\
         \\quit\n",
    );
    // Alphanumeric channel + automatic map rendering with labels.
    assert!(out.contains("| Boston"), "{out}");
    assert!(out.contains("us-map:"));
    assert!(out.contains("* New York") || out.contains("*  New York") || out.contains("New York"));
}

#[test]
fn meta_commands() {
    let out = run_session("\\tables\n\\explain select city from cities where population > 5000000;\n\\map lake-map\n\\badcmd\n\\quit\n");
    assert!(out.contains("cities(city:str, state:str, population:int, loc:pointer)"));
    assert!(out.contains("b+tree index on population"));
    // `\tables` lists what the database holds, sorted by name, with what
    // serves each picture's queries.
    let db = psql::PictorialDatabase::with_us_map();
    let mut listed = out[out.find("pictures:").expect("picture list")..].lines();
    listed.next();
    for name in [
        "highway-map",
        "lake-map",
        "state-map",
        "time-zone-map",
        "us-map",
    ] {
        let n = db.picture(name).expect("us-map picture").len();
        assert_eq!(
            listed.next(),
            Some(format!("  {name}  [{n} objects: {n} packed, 0 delta]  packed arena").as_str()),
            "{out}"
        );
    }
    assert!(out.contains("  us-map  [42 objects: 42 packed, 0 delta]  packed arena"));
    assert!(out.contains("  time-zone-map  [4 objects: 4 packed, 0 delta]  packed arena"));
    assert!(
        !out.contains("Superior"),
        "\\map renders without highlights/labels"
    );
    assert!(out.contains("unknown command"));
}

#[test]
fn errors_are_reported_not_fatal() {
    let out = run_session(
        "select nope from nowhere;\nselect city from cities where population > 9000000;\n\\quit\n",
    );
    assert!(
        out.contains("no such relation") || out.contains("semantic error"),
        "{out}"
    );
    // The session continued after the error.
    assert!(out.contains("New York"));
}

/// `pack external` was an operator command of this shell once; PSQL has
/// one statement, the retrieve mapping, and everything else is a syntax
/// error like any other.
#[test]
fn pack_external_is_not_psql() {
    let out = run_session(
        "pack external us-map budget 65536;\n\
         select city from cities where population > 9000000;\n\\quit\n",
    );
    assert!(out.contains("parse error:"), "{out}");
    assert!(out.contains("New York"), "the session went on:\n{out}");
}

#[test]
fn aggregate_in_shell() {
    let out = run_session(
        "select northest-of(loc), count-of(loc) from highways where hwy-name = 'I-90';\n\\quit\n",
    );
    assert!(out.contains("46"), "{out}");
    assert!(out.contains("(1 row)"));
}
