//! Plain-text relation loading and a minimal query syntax, for the `msj`
//! command-line tool and for embedding in tests/scripts.
//!
//! ## Relation files
//!
//! One tuple per line, columns separated by whitespace, `#` comments and
//! blank lines ignored:
//!
//! ```text
//! # edge list
//! 1   2
//! 2   3
//! ```
//!
//! Columns may hold strings: [`parse_typed_relation`] infers each column's
//! [`ColumnType`] (a column where every token parses as an integer stays
//! `Int`; any other column is `Str`), and the [`crate::engine::Engine`]
//! interns the string cells through its dictionary. The older
//! [`parse_relation`] keeps the integer-only contract. Because cells are
//! whitespace-separated and `#` starts a comment, **string cells cannot
//! contain whitespace or `#`** — there is no quoting or escaping in the
//! relation file format (load such data programmatically via
//! [`crate::engine::Engine::add_relation`] instead).
//!
//! ## Query syntax
//!
//! A query is a `⋈`- or `,`-separated list of atoms `Name(Attr, …)`;
//! attribute names are arbitrary identifiers, and the **global attribute
//! order is the order of first appearance** (so write the query in the
//! GAO you want, or let the planner re-index):
//!
//! ```text
//! R(x, y), S(y, z), T(z)
//! ```
//!
//! Atom arguments may also be literals — double-quoted strings or bare
//! integers — which constrain that position to a constant:
//!
//! ```text
//! Flights(origin, dest), Cities(dest, "north-america")
//! ```
//!
//! Literals are resolved by the [`crate::engine::Engine`] front door
//! (which owns the dictionary a string literal must be interned through);
//! the database-level [`parse_query`] used by embedded integer-only
//! callers reports them as unsupported.

use std::collections::HashMap;
use std::fmt;

use minesweeper_core::{Atom, Plan, Query};
use minesweeper_storage::{
    ColumnType, Database, RelationBuilder, StorageError, TrieRelation, Val, Value,
};

use crate::engine::catalog::type_cell;

/// Errors from parsing relation files or query strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// A tuple line failed to parse.
    BadTuple {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// Tuple lines had inconsistent arity.
    InconsistentArity {
        /// 1-based line number.
        line: usize,
        /// Arity of the first tuple.
        expected: usize,
        /// Arity found on this line.
        got: usize,
    },
    /// The relation file had no tuples (arity cannot be inferred).
    EmptyRelation,
    /// The query string failed to parse.
    BadQuery(String),
    /// An atom referenced a relation not loaded into the database.
    UnknownRelation(String),
    /// An atom's attribute count does not match its relation's arity.
    AtomArity {
        /// Relation name.
        relation: String,
        /// Attribute count in the atom.
        atom: usize,
        /// Column count of the relation.
        relation_arity: usize,
    },
    /// Storage-level failure while building the relation.
    Storage(String),
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::BadTuple { line, token } => {
                write!(f, "line {line}: cannot parse value {token:?}")
            }
            TextError::InconsistentArity { line, expected, got } => {
                write!(f, "line {line}: expected {expected} columns, found {got}")
            }
            TextError::EmptyRelation => write!(f, "relation file contains no tuples"),
            TextError::BadQuery(msg) => write!(f, "query syntax error: {msg}"),
            TextError::UnknownRelation(name) => write!(f, "unknown relation {name}"),
            TextError::AtomArity { relation, atom, relation_arity } => write!(
                f,
                "atom over {relation} has {atom} attributes but the relation has arity {relation_arity}"
            ),
            TextError::Storage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TextError {}

impl From<StorageError> for TextError {
    fn from(e: StorageError) -> Self {
        TextError::Storage(e.to_string())
    }
}

/// Parses a whitespace-separated **integer** tuple file into a relation.
/// Arity is inferred from the first tuple line. For files with string
/// columns, load through [`parse_typed_relation`] +
/// [`crate::engine::Engine::add_relation`] instead.
pub fn parse_relation(name: &str, text: &str) -> Result<TrieRelation, TextError> {
    let mut builder: Option<(RelationBuilder, usize)> = None;
    let mut row: Vec<Val> = Vec::new();
    for (line, tokens) in tuple_lines(text) {
        row.clear();
        for token in tokens {
            let v: Val = token.parse().map_err(|_| TextError::BadTuple {
                line,
                token: token.to_string(),
            })?;
            row.push(v);
        }
        // Arity is the first tuple's.
        let (b, arity) =
            builder.get_or_insert_with(|| (RelationBuilder::new(name, row.len()), row.len()));
        check_arity(line, *arity, row.len())?;
        b.push(&row);
    }
    let (builder, _) = builder.ok_or(TextError::EmptyRelation)?;
    Ok(builder.build()?)
}

/// The tuple lines of a relation file as `(1-based line number, cells)`:
/// `#` comments stripped, blank lines dropped.
fn tuple_lines(text: &str) -> impl Iterator<Item = (usize, std::str::SplitWhitespace<'_>)> {
    text.lines().enumerate().filter_map(|(i, line)| {
        let line = line.split('#').next().unwrap_or("").trim();
        (!line.is_empty()).then(|| (i + 1, line.split_whitespace()))
    })
}

/// Every tuple line has the first one's column count.
fn check_arity(line: usize, expected: usize, got: usize) -> Result<(), TextError> {
    if got == expected {
        return Ok(());
    }
    Err(TextError::InconsistentArity {
        line,
        expected,
        got,
    })
}

/// A relation parsed with per-column type inference, ready for
/// [`crate::engine::Engine::add_relation`].
#[derive(Debug, Clone)]
pub struct TypedRelation {
    /// Relation name.
    pub name: String,
    /// Inferred column types: `Int` when every cell of the column parses
    /// as an integer, `Str` otherwise.
    pub types: Vec<ColumnType>,
    /// The rows, cell-typed according to `types`.
    pub rows: Vec<Vec<Value>>,
}

/// Parses a whitespace-separated tuple file, inferring each column's
/// type. Integer-only files produce exactly the same `Int` cells
/// [`parse_relation`] would, so loading them through an engine is
/// byte-compatible with the untyped path.
pub fn parse_typed_relation(name: &str, text: &str) -> Result<TypedRelation, TextError> {
    let mut raw: Vec<Vec<String>> = Vec::new();
    for (line, tokens) in tuple_lines(text) {
        let row: Vec<String> = tokens.map(str::to_string).collect();
        check_arity(line, raw.first().map_or(row.len(), Vec::len), row.len())?;
        raw.push(row);
    }
    let arity = raw.first().ok_or(TextError::EmptyRelation)?.len();
    let types: Vec<ColumnType> = (0..arity)
        .map(|c| {
            if raw.iter().all(|r| r[c].parse::<Val>().is_ok()) {
                ColumnType::Int
            } else {
                ColumnType::Str
            }
        })
        .collect();
    let rows = raw
        .into_iter()
        .map(|r| {
            r.into_iter()
                .zip(&types)
                .map(|(cell, &ty)| type_cell(cell, ty).expect("column inferred Int"))
                .collect()
        })
        .collect();
    Ok(TypedRelation {
        name: name.to_string(),
        types,
        rows,
    })
}

/// One argument of a parsed query atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryArg {
    /// A named attribute.
    Var(String),
    /// A double-quoted string literal (constrains the position to a
    /// constant; resolved by the engine's dictionary).
    StrLit(String),
    /// A bare integer literal.
    IntLit(Val),
}

/// One atom of the raw query syntax tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAtomAst {
    /// The relation name.
    pub relation: String,
    /// The atom's arguments in written order.
    pub args: Vec<QueryArg>,
}

/// Parses query text into its syntax tree without resolving anything
/// against a database: `R(x, y), S(y, "nyc") ⋈ T(7, z)` becomes three
/// [`QueryAtomAst`]s. The engine front door builds executable queries
/// from this (interning literals); [`parse_query`] is the
/// integer-variable-only wrapper.
pub fn parse_query_ast(text: &str) -> Result<Vec<QueryAtomAst>, TextError> {
    let mut atoms = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let open = rest
            .find('(')
            .ok_or_else(|| TextError::BadQuery(format!("expected '(' in {rest:?}")))?;
        let name = rest[..open].trim().trim_start_matches([',', '⋈']).trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(TextError::BadQuery(format!("bad relation name {name:?}")));
        }
        // Scan for the matching ')' respecting double-quoted literals, so
        // `R(x, "a,b)")` parses.
        let mut close = None;
        let mut in_quote = false;
        for (off, c) in rest[open + 1..].char_indices() {
            match c {
                '"' => in_quote = !in_quote,
                ')' if !in_quote => {
                    close = Some(open + 1 + off);
                    break;
                }
                _ => {}
            }
        }
        let close = close.ok_or_else(|| {
            TextError::BadQuery(if in_quote {
                "unterminated string literal".to_string()
            } else {
                "unbalanced parentheses".to_string()
            })
        })?;
        let args_text = &rest[open + 1..close];
        let mut args = Vec::new();
        for raw in split_args(args_text) {
            let raw = raw.trim();
            if let Some(body) = raw
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .filter(|_| raw.len() >= 2)
            {
                if body.contains('"') {
                    return Err(TextError::BadQuery(format!("bad string literal {raw:?}")));
                }
                args.push(QueryArg::StrLit(body.to_string()));
            } else if let Ok(v) = raw.parse::<Val>() {
                args.push(QueryArg::IntLit(v));
            } else if !raw.is_empty() && raw.chars().all(|c| c.is_alphanumeric() || c == '_') {
                args.push(QueryArg::Var(raw.to_string()));
            } else {
                return Err(TextError::BadQuery(format!("bad attribute {raw:?}")));
            }
        }
        atoms.push(QueryAtomAst {
            relation: name.to_string(),
            args,
        });
        rest = rest[close + 1..]
            .trim()
            .trim_start_matches([',', '⋈'])
            .trim();
    }
    if atoms.is_empty() {
        return Err(TextError::BadQuery("no atoms".to_string()));
    }
    Ok(atoms)
}

/// Splits an atom's argument text on commas that are outside quotes.
fn split_args(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            ',' if !in_quote => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

/// A parsed query: the attribute names in GAO (first-appearance) order and
/// the query over a database.
#[derive(Debug, Clone)]
pub struct ParsedQuery {
    /// Attribute names; index = GAO position.
    pub attr_names: Vec<String>,
    /// The query, with atoms bound to `db`'s relations.
    pub query: Query,
}

/// Assigns GAO positions to attribute *slots* (variables and literal
/// occurrences), numbered `0..n_slots` in first-appearance order, such
/// that every atom's slot sequence is strictly increasing in the returned
/// positions. Queries written in a usable order keep exactly their
/// first-appearance numbering (the greedy topological sort prefers lower
/// slot numbers); queries whose atoms order the same pair of attributes
/// both ways have no consistent GAO and are rejected. Returns
/// `pos[slot]` = GAO position.
fn assign_gao_positions(
    n_slots: usize,
    atoms: &[(String, Vec<usize>)],
) -> Result<Vec<usize>, TextError> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_slots];
    let mut indegree = vec![0usize; n_slots];
    for (rel, slots) in atoms {
        for w in slots.windows(2) {
            if w[0] == w[1] {
                return Err(TextError::BadQuery(format!(
                    "atom over {rel} repeats an attribute in adjacent positions"
                )));
            }
            adj[w[0]].push(w[1]);
            indegree[w[1]] += 1;
        }
    }
    // Kahn's algorithm, always taking the lowest-numbered ready slot so a
    // feasible first-appearance order is reproduced verbatim.
    let mut ready: std::collections::BTreeSet<usize> =
        (0..n_slots).filter(|&v| indegree[v] == 0).collect();
    let mut pos = vec![usize::MAX; n_slots];
    let mut next = 0usize;
    while let Some(&v) = ready.iter().next() {
        ready.remove(&v);
        pos[v] = next;
        next += 1;
        for &w in &adj[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                ready.insert(w);
            }
        }
    }
    if next != n_slots {
        return Err(TextError::BadQuery(
            "no GAO order is consistent with the atoms' attribute sequences \
             (two atoms order the same attributes both ways); reorder the query"
                .to_string(),
        ));
    }
    Ok(pos)
}

/// A query syntax tree bound to a database — the one "query text →
/// [`Query`]" path, shared by [`parse_query`] (which admits no literals)
/// and [`crate::engine::Engine::prepare`] (which types them into seeds).
/// Every vector is indexed by GAO position.
pub(crate) struct BoundQuery {
    /// The query, atoms bound to the database's relations.
    pub(crate) query: Query,
    /// Attribute names; a literal position is named by its source text.
    pub(crate) attr_names: Vec<String>,
    /// False at literal positions: pinned to a constant, not output.
    pub(crate) visible: Vec<bool>,
    /// `(position, constant)` per literal occurrence, in written order.
    pub(crate) literals: Vec<(usize, Value)>,
}

/// Binds a syntax tree to `db`: one attribute *slot* per variable and one
/// per literal occurrence, in first-appearance order; GAO positions
/// consistent with every atom's written column order (first-appearance
/// numbering when feasible, the closest consistent reordering otherwise
/// — which is what lets a literal sit before an already-bound variable,
/// as in `F(a, b), F("jfk", b)`); then relation and arity resolution.
pub(crate) fn bind_query(ast: Vec<QueryAtomAst>, db: &Database) -> Result<BoundQuery, TextError> {
    let mut slot_ids: HashMap<String, usize> = HashMap::new();
    // Per slot: its name, and the constant when it is a literal.
    let mut slots: Vec<(String, Option<Value>)> = Vec::new();
    let mut new_slot = |name: String, literal: Option<Value>| {
        slots.push((name, literal));
        slots.len() - 1
    };
    let mut atoms: Vec<(String, Vec<usize>)> = Vec::with_capacity(ast.len());
    for atom in ast {
        let mut atom_slots = Vec::with_capacity(atom.args.len());
        for arg in atom.args {
            atom_slots.push(match arg {
                QueryArg::Var(v) => match slot_ids.get(&v) {
                    Some(&slot) => slot,
                    None => {
                        let slot = new_slot(v.clone(), None);
                        slot_ids.insert(v, slot);
                        slot
                    }
                },
                QueryArg::StrLit(s) => new_slot(format!("{s:?}"), Some(Value::Str(s))),
                QueryArg::IntLit(v) => new_slot(v.to_string(), Some(Value::Int(v))),
            });
        }
        atoms.push((atom.relation, atom_slots));
    }
    let pos = assign_gao_positions(slots.len(), &atoms)?;
    let n = slots.len();
    let mut bound = BoundQuery {
        query: Query::new(n),
        attr_names: vec![String::new(); n],
        visible: vec![true; n],
        literals: Vec::new(),
    };
    for (slot, (name, literal)) in slots.into_iter().enumerate() {
        bound.attr_names[pos[slot]] = name;
        if let Some(value) = literal {
            bound.visible[pos[slot]] = false;
            bound.literals.push((pos[slot], value));
        }
    }
    for (name, atom_slots) in atoms {
        let rel = db
            .id_of(&name)
            .map_err(|_| TextError::UnknownRelation(name.clone()))?;
        let arity = db.relation(rel).arity();
        if arity != atom_slots.len() {
            return Err(TextError::AtomArity {
                relation: name,
                atom: atom_slots.len(),
                relation_arity: arity,
            });
        }
        bound.query.atoms.push(Atom {
            rel,
            attrs: atom_slots.iter().map(|&s| pos[s]).collect(),
        });
    }
    Ok(bound)
}

/// Parses `R(x, y), S(y, z)`-style query text against a database. The GAO
/// is the order of first appearance of each attribute name whenever that
/// order is consistent with every atom; otherwise the closest consistent
/// reordering is chosen (and truly conflicting queries are rejected).
/// Literal arguments (string or integer constants) are reported as errors
/// here — they need the engine front door, which owns the dictionary a
/// constant is encoded through.
pub fn parse_query(text: &str, db: &Database) -> Result<ParsedQuery, TextError> {
    let ast = parse_query_ast(text)?;
    let literal = |arg: &QueryArg| !matches!(arg, QueryArg::Var(_));
    if ast.iter().any(|atom| atom.args.iter().any(literal)) {
        return Err(TextError::BadQuery(
            "literal arguments are only supported through the Engine \
             (use minesweeper_join::engine::Engine::prepare)"
                .to_string(),
        ));
    }
    let bound = bind_query(ast, db)?;
    Ok(ParsedQuery {
        attr_names: bound.attr_names,
        query: bound.query,
    })
}

/// A [`Plan`]'s [`minesweeper_core::ExplainPlan`] with relation and
/// attribute names filled in from the caller's catalog — the one source of
/// explain text: the engine adds execution context to it, and
/// `.render()` / `.to_json()` are the CLI's `--explain` outputs.
/// `attr_names[i]` names GAO position `i` of the *original* numbering (as
/// produced by [`parse_query`]).
pub fn named_explain_plan(
    db: &Database,
    plan: &Plan,
    attr_names: &[String],
) -> minesweeper_core::ExplainPlan {
    let mut ep = plan.explain_plan();
    ep.attr_names = Some(attr_names.to_vec());
    for (atom, ea) in plan.query().atoms.iter().zip(ep.atoms.iter_mut()) {
        ea.relation = Some(db.relation(atom.rel).name().to_string());
    }
    ep
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_core::execute;

    #[test]
    fn parse_relation_basic() {
        let r = parse_relation("R", "1 2\n2 3 # comment\n\n# full comment\n2 3\n").unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[2, 3]));
    }

    #[test]
    fn parse_relation_errors() {
        assert!(matches!(
            parse_relation("R", "1 x\n"),
            Err(TextError::BadTuple { line: 1, .. })
        ));
        assert!(matches!(
            parse_relation("R", "1 2\n3\n"),
            Err(TextError::InconsistentArity {
                line: 2,
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            parse_relation("R", "# none\n"),
            Err(TextError::EmptyRelation)
        ));
    }

    #[test]
    fn typed_relation_infers_columns() {
        let t = parse_typed_relation("Cities", "nyc 1\nsf 2\n# c\nla 3\n").unwrap();
        assert_eq!(t.types, vec![ColumnType::Str, ColumnType::Int]);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0], vec![Value::Str("nyc".into()), Value::Int(1)]);
        // All-integer columns stay Int even when another column is Str.
        let t = parse_typed_relation("R", "1 2\n3 4\n").unwrap();
        assert_eq!(t.types, vec![ColumnType::Int, ColumnType::Int]);
        assert_eq!(t.rows[1], vec![Value::Int(3), Value::Int(4)]);
        // A single non-numeric cell flips the whole column to Str.
        let t = parse_typed_relation("R", "1 2\nx 4\n").unwrap();
        assert_eq!(t.types, vec![ColumnType::Str, ColumnType::Int]);
        assert_eq!(t.rows[0][0], Value::Str("1".into()));
    }

    #[test]
    fn typed_relation_errors() {
        assert!(matches!(
            parse_typed_relation("R", ""),
            Err(TextError::EmptyRelation)
        ));
        assert!(matches!(
            parse_typed_relation("R", "1 2\n3\n"),
            Err(TextError::InconsistentArity { line: 2, .. })
        ));
    }

    #[test]
    fn ast_parses_vars_and_literals() {
        let ast = parse_query_ast("R(x, \"new york\"), S(x, 7) ⋈ T(y_2)").unwrap();
        assert_eq!(ast.len(), 3);
        assert_eq!(ast[0].relation, "R");
        assert_eq!(
            ast[0].args,
            vec![
                QueryArg::Var("x".into()),
                QueryArg::StrLit("new york".into())
            ]
        );
        assert_eq!(
            ast[1].args,
            vec![QueryArg::Var("x".into()), QueryArg::IntLit(7)]
        );
        assert_eq!(ast[2].args, vec![QueryArg::Var("y_2".into())]);
    }

    #[test]
    fn ast_literal_edge_cases() {
        // Commas and parens inside quotes don't split or close.
        let ast = parse_query_ast("R(x, \"a,b)\")").unwrap();
        assert_eq!(ast[0].args[1], QueryArg::StrLit("a,b)".into()));
        // Negative integers are literals, not variables.
        let ast = parse_query_ast("R(-3)").unwrap();
        assert_eq!(ast[0].args, vec![QueryArg::IntLit(-3)]);
        assert!(matches!(
            parse_query_ast("R(\"open"),
            Err(TextError::BadQuery(msg)) if msg.contains("unterminated")
        ));
        assert!(parse_query_ast("R(x y)").is_err(), "space-separated args");
        assert!(parse_query_ast("").is_err(), "no atoms");
    }

    #[test]
    fn parse_query_end_to_end() {
        let mut db = Database::new();
        db.add(parse_relation("R", "1 10\n2 20\n").unwrap())
            .unwrap();
        db.add(parse_relation("S", "10 5\n20 9\n").unwrap())
            .unwrap();
        let pq = parse_query("R(x, y), S(y, z)", &db).unwrap();
        assert_eq!(pq.attr_names, vec!["x", "y", "z"]);
        let exec = execute(&db, &pq.query).unwrap();
        assert_eq!(exec.result.tuples, vec![vec![1, 10, 5], vec![2, 20, 9]]);
    }

    #[test]
    fn parse_query_with_join_symbol_and_unaries() {
        let mut db = Database::new();
        db.add(parse_relation("R", "1\n2\n").unwrap()).unwrap();
        db.add(parse_relation("S", "1 5\n3 6\n").unwrap()).unwrap();
        db.add(parse_relation("T", "5\n6\n").unwrap()).unwrap();
        let pq = parse_query("R(x) ⋈ S(x, y) ⋈ T(y)", &db).unwrap();
        let exec = execute(&db, &pq.query).unwrap();
        assert_eq!(exec.result.tuples, vec![vec![1, 5]]);
    }

    #[test]
    fn parse_query_errors() {
        let mut db = Database::new();
        db.add(parse_relation("R", "1 2\n").unwrap()).unwrap();
        assert!(matches!(
            parse_query("Q(x, y)", &db),
            Err(TextError::UnknownRelation(_))
        ));
        assert!(matches!(
            parse_query("R(x)", &db),
            Err(TextError::AtomArity { .. })
        ));
        assert!(matches!(parse_query("", &db), Err(TextError::BadQuery(_))));
        assert!(matches!(
            parse_query("R(x y)", &db),
            Err(TextError::BadQuery(_))
        ));
        // Out-of-GAO attribute order in a later atom is reported.
        db.add(parse_relation("S", "1 2\n").unwrap()).unwrap();
        assert!(matches!(
            parse_query("R(x, y), S(y, x)", &db),
            Err(TextError::BadQuery(_))
        ));
        // Literals are an engine-level feature.
        assert!(matches!(
            parse_query("R(x, \"lit\")", &db),
            Err(TextError::BadQuery(msg)) if msg.contains("Engine")
        ));
        assert!(matches!(
            parse_query("R(x, 7)", &db),
            Err(TextError::BadQuery(msg)) if msg.contains("Engine")
        ));
    }

    #[test]
    fn parse_query_malformed_atoms() {
        let db = Database::new();
        for bad in [
            "R x, y)",  // missing '('
            "R(x, y",   // missing ')'
            "(x)",      // empty relation name
            "R-Q(x)",   // bad relation character
            "R(x, y%)", // bad attribute character
            "R()",      // empty argument
        ] {
            let got = parse_query(bad, &db);
            assert!(
                matches!(got, Err(TextError::BadQuery(_))),
                "{bad:?} must be a syntax error, got {got:?}"
            );
        }
    }

    #[test]
    fn error_display() {
        let e = TextError::BadTuple {
            line: 3,
            token: "q".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(TextError::EmptyRelation.to_string().contains("no tuples"));
        assert!(TextError::AtomArity {
            relation: "R".into(),
            atom: 1,
            relation_arity: 2
        }
        .to_string()
        .contains("arity 2"));
        assert!(TextError::UnknownRelation("Q".into())
            .to_string()
            .contains("unknown relation Q"));
    }

    #[test]
    fn render_plan_uses_names() {
        let mut db = Database::new();
        db.add(parse_relation("R", "1 10\n").unwrap()).unwrap();
        db.add(parse_relation("S", "10 5\n").unwrap()).unwrap();
        let pq = parse_query("R(x, y), S(y, z)", &db).unwrap();
        let plan = minesweeper_core::plan(&db, &pq.query).unwrap();
        let ep = named_explain_plan(&db, &plan, &pq.attr_names);
        let text = ep.render();
        assert!(text.contains("R(x, y) ⋈ S(y, z)"), "{text}");
        assert!(text.contains("probe mode"), "{text}");
        assert!(text.contains("runtime bound"), "{text}");
        // GAO line shows names, not positions.
        assert!(text.lines().any(|l| l.starts_with("gao: ")), "{text}");
        // The structured form carries the same names.
        assert_eq!(ep.atoms[0].relation.as_deref(), Some("R"));
        assert!(ep.to_json().contains("\"attr_names\":[\"x\",\"y\",\"z\"]"));
    }
}
