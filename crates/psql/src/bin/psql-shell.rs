//! An interactive PSQL shell over the synthetic US-map database.
//!
//! The closest thing 2026 offers to the paper's dual-monitor setup:
//! queries typed at a prompt, alphanumeric results as tables, pictorial
//! results as ASCII maps.
//!
//! ```text
//! cargo run -p psql --bin psql-shell
//! psql> select city, population from cities on us-map
//!       at loc covered-by {82.5 +- 17.5, 25 +- 20}
//!       where population > 450000;
//! psql> \explain select zone from time-zones on time-zone-map at loc overlapping {50 +- 10, 25 +- 25};
//! psql> \map us-map
//! psql> \help
//! ```

use psql::database::PictorialDatabase;
use psql::exec::execute;
use psql::parser::parse_query;
use psql::picture::Picture;
use psql::plan::plan;
use psql::render::render;
use std::io::{self, BufRead, Write};

const HELP: &str = "\
PSQL shell commands:
  <query>;               run a PSQL retrieve mapping (may span lines, end with ;)
  \\explain <query>;      show the plan without executing
  \\map <picture>         render a picture (us-map, state-map, time-zone-map,
                         lake-map, highway-map)
  \\tables                list relations and pictures
  \\nomap                 toggle automatic map rendering of query highlights
  \\help                  this text
  \\quit                  exit

Answer order (whichever tree answers):
  a window or nested mapping   ascending object id
  nearest k                    the k smallest (distance, object id)
  a juxtaposition              (first `from` relation's id, second's)
  each object's tuples in insertion order; `order by` is stable, so its
  ties keep this order

Example queries:
  select city, state, population, loc from cities on us-map
    at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 450000;
  select city, loc from cities on us-map at loc covered-by eastern-us;
  select city, zone from cities, time-zones on us-map, time-zone-map
    at cities.loc covered-by time-zones.loc;
  select lake, area(loc) from lakes where area(loc) >= 4;
  select city, population from cities order by population desc limit 5;
  select northest-of(loc) from highways where hwy-name = 'I-90';
";

fn main() {
    let db = PictorialDatabase::with_us_map();
    let stdin = io::stdin();
    let mut lines = stdin.lock().lines();
    let mut buffer = String::new();
    let mut auto_map = true;

    println!("PSQL — pictorial structured query language (Roussopoulos & Leifker 1985)");
    println!("type \\help for help, \\quit to exit\n");
    loop {
        if buffer.is_empty() {
            print!("psql> ");
        } else {
            print!("  ... ");
        }
        io::stdout().flush().ok();
        let Some(Ok(line)) = lines.next() else {
            break;
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match run_meta(&db, trimmed, &mut auto_map) {
                MetaResult::Continue => continue,
                MetaResult::Quit => break,
            }
        }
        buffer.push_str(&line);
        buffer.push(' ');
        if !trimmed.ends_with(';') {
            continue;
        }
        let text = buffer.trim().trim_end_matches(';').trim().to_owned();
        buffer.clear();
        if text.is_empty() {
            continue;
        }
        run_query(&db, &text, auto_map);
    }
    println!("bye");
}

enum MetaResult {
    Continue,
    Quit,
}

fn run_meta(db: &PictorialDatabase, command: &str, auto_map: &mut bool) -> MetaResult {
    let mut parts = command.splitn(2, ' ');
    match parts.next().unwrap_or_default() {
        "\\quit" | "\\q" => return MetaResult::Quit,
        "\\help" | "\\h" => print!("{HELP}"),
        "\\nomap" => {
            *auto_map = !*auto_map;
            println!(
                "automatic map rendering: {}",
                if *auto_map { "on" } else { "off" }
            );
        }
        "\\tables" => {
            println!("relations:");
            for name in db.catalog().relation_names() {
                let rel = db.catalog().relation(name).expect("listed");
                let cols: Vec<String> = rel
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| format!("{}:{}", c.name, c.ty))
                    .collect();
                println!("  {name}({})  [{} tuples]", cols.join(", "), rel.len());
            }
            println!("pictures:");
            let mut pictures: Vec<&Picture> = db.pictures().collect();
            pictures.sort_unstable_by_key(|pic| pic.name());
            for pic in pictures {
                println!(
                    "  {}  [{} objects: {} packed, {} delta]  {}",
                    pic.name(),
                    pic.len(),
                    pic.packed_len(),
                    pic.delta_len(),
                    index_state(pic)
                );
            }
        }
        "\\map" => match parts.next() {
            Some(name) => match db.picture(name.trim()) {
                Ok(pic) => println!("{}", render(pic, &[], 110, 28)),
                Err(e) => println!("{e}"),
            },
            None => println!("usage: \\map <picture>"),
        },
        "\\explain" => match parts.next() {
            Some(text) => {
                let text = text.trim().trim_end_matches(';');
                match parse_query(text).and_then(|q| plan(db, &q)) {
                    Ok(p) => println!("{}", p.explain()),
                    Err(e) => println!("{e}"),
                }
            }
            None => println!("usage: \\explain <query>;"),
        },
        other => println!("unknown command {other}; try \\help"),
    }
    MetaResult::Continue
}

/// What answers a picture's queries right now. A never-packed picture
/// has no index until its first query builds the Guttman tree.
fn index_state(pic: &Picture) -> String {
    match (pic.frozen(), pic.delta_len()) {
        (Some(_), 0) => "packed arena".to_owned(),
        (Some(_), delta) => format!("packed arena + delta {delta}"),
        (None, _) if pic.is_indexed() => "guttman tree".to_owned(),
        (None, _) => "not indexed yet".to_owned(),
    }
}

fn run_query(db: &PictorialDatabase, text: &str, auto_map: bool) {
    match parse_query(text).and_then(|query| execute(db, &query)) {
        Ok(result) => {
            println!("{result}");
            if auto_map && !result.highlights.is_empty() {
                // Render each picture that has highlighted objects.
                let mut pictures: Vec<&str> = result
                    .highlights
                    .iter()
                    .map(|h| h.picture.as_str())
                    .collect();
                pictures.sort_unstable();
                pictures.dedup();
                for pic_name in pictures {
                    if let Ok(pic) = db.picture(pic_name) {
                        println!("{pic_name}:");
                        println!("{}", render(pic, &result.highlights, 110, 28));
                    }
                }
            }
        }
        Err(e) => println!("{e}"),
    }
}
