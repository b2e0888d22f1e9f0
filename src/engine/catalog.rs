//! The catalog seam: per-relation schemas, the string dictionary, bulk
//! load — and the **row codec**, the one owner of every conversion
//! between a row's three forms:
//!
//! ```text
//!   text cell  ──type_cells──▶  Value  ──encode_insert / encode_lookup──▶  Val
//!   (TSV, `W`, WAL,            (typed)        (intern)   (look up only)   (stored)
//!    checkpoint dump,  ◀──cell_texts──   ◀───────────decode──────────────
//!    result body)
//! ```
//!
//! The paper's model (§2.1) lives in one ordered integer domain; how
//! real values get into that domain is a decision the probe loop pays
//! for, so it is made here and nowhere else. The loader, the write path,
//! WAL replay, checkpoint dump and load, query literals, result decoding
//! and the renderer all call these functions.

use std::borrow::Cow;
use std::sync::{Arc, RwLock};

use minesweeper_storage::{
    value::MAX_DOMAIN_VALUE, ColumnType, Database, Dictionary, LeafPolicy, RelId, RelationBuilder,
    StorageError, TrieRelation, Tuple, Val, Value,
};

use super::{Engine, EngineError};
use crate::text::parse_typed_relation;

/// Types one text cell — the rule the TSV loader, the `W INSERT` wire
/// path, WAL replay and checkpoint load share: integer columns parse the
/// token, string columns take it verbatim. `None` when an integer column
/// gets a non-integer.
pub(crate) fn type_cell(cell: String, ty: ColumnType) -> Option<Value> {
    match ty {
        ColumnType::Int => cell.parse().ok().map(Value::Int),
        ColumnType::Str => Some(Value::Str(cell)),
    }
}

/// Encodes one typed cell into the storage domain; `id_of` decides what
/// a string maps to (and whether an unknown one maps to anything).
fn encode_cell(cell: &Value, id_of: impl FnOnce(&str) -> Option<Val>) -> Option<Val> {
    match cell {
        Value::Int(v) => Some(*v),
        Value::Str(s) => id_of(s),
    }
}

/// Encodes a checked row for storage into `out` (cleared first),
/// interning strings the dictionary has not seen — copy-on-write, and
/// only when the row actually carries a string.
pub(crate) fn encode_insert(row: &[Value], dict: &mut Arc<Dictionary>, out: &mut Tuple) {
    out.clear();
    out.extend(row.iter().map(|cell| {
        encode_cell(cell, |s| Some(Arc::make_mut(dict).intern(s))).expect("interning never fails")
    }));
}

/// Encodes one typed cell without touching the dictionary. `None` for a
/// string that was never interned: it can equal no stored value (a
/// vacuous delete, a literal matching nothing).
pub(crate) fn lookup(cell: &Value, dict: &Dictionary) -> Option<Val> {
    encode_cell(cell, |s| dict.id_of(s))
}

/// Encodes a checked row into `out` through [`lookup`]; `false` when
/// some cell has no encoding.
pub(crate) fn encode_lookup(row: &[Value], dict: &Dictionary, out: &mut Tuple) -> bool {
    out.clear();
    out.extend(row.iter().map_while(|cell| lookup(cell, dict)));
    out.len() == row.len()
}

/// The string a stored id decodes to. An id the dictionary never
/// produced cannot be stored; it decodes recognisably (`#id`) rather
/// than panicking on the output path.
fn resolve(v: Val, dict: &Dictionary) -> Cow<'_, str> {
    dict.resolve(v)
        .map_or_else(|| Cow::Owned(format!("#{v}")), Cow::Borrowed)
}

/// Decodes stored cells back to typed values (the inverse of
/// [`encode_insert`]).
pub(crate) fn decode(
    cells: impl Iterator<Item = (Val, ColumnType)>,
    dict: &Dictionary,
) -> Vec<Value> {
    cells
        .map(|(v, ty)| match ty {
            ColumnType::Int => Value::Int(v),
            ColumnType::Str => Value::Str(resolve(v, dict).into_owned()),
        })
        .collect()
}

/// The text cells of a typed row, as the WAL logs them (escaping happens
/// at the record layer) — the inverse of [`RowCodec::type_cells`].
pub(crate) fn cell_texts(row: &[Value]) -> Vec<String> {
    row.iter().map(Value::to_string).collect()
}

/// The text cells of a stored tuple, as a checkpoint dumps them.
pub(crate) fn stored_cell_texts(
    tuple: &[Val],
    types: &[ColumnType],
    dict: &Dictionary,
) -> Vec<String> {
    let cells = tuple.iter().copied().zip(types.iter().copied());
    cell_texts(&decode(cells, dict))
}

/// A schema's `int` / `str` manifest tokens.
pub(crate) fn type_tokens(types: &[ColumnType]) -> Vec<String> {
    types.iter().map(ColumnType::to_string).collect()
}

/// Parses a checkpoint manifest's column-type tokens back into a schema
/// (the inverse of [`type_tokens`]).
pub(crate) fn types_from_tokens(
    relation: &str,
    tokens: &[String],
) -> Result<Vec<ColumnType>, EngineError> {
    let parse = |token: &String| match token.as_str() {
        "int" => Ok(ColumnType::Int),
        "str" => Ok(ColumnType::Str),
        other => Err(EngineError::Storage(format!(
            "checkpoint manifest: relation {relation} has unknown column type {other:?}"
        ))),
    };
    tokens.iter().map(parse).collect()
}

/// The codec's checking half for one relation: its name (for error
/// messages) and declared column types.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowCodec<'a> {
    pub(crate) relation: &'a str,
    pub(crate) types: &'a [ColumnType],
}

impl RowCodec<'_> {
    fn check_arity(&self, got: usize) -> Result<(), EngineError> {
        if got == self.types.len() {
            return Ok(());
        }
        Err(EngineError::RowArity {
            relation: self.relation.to_string(),
            expected: self.types.len(),
            got,
        })
    }

    fn value_type(&self, column: usize) -> EngineError {
        EngineError::ValueType {
            relation: self.relation.to_string(),
            column,
            expected: self.types[column],
        }
    }

    /// Types one text row against the schema (see [`type_cell`]).
    pub(crate) fn type_cells(&self, cells: Vec<String>) -> Result<Vec<Value>, EngineError> {
        self.check_arity(cells.len())?;
        let typed = cells.into_iter().zip(self.types).enumerate();
        typed
            .map(|(c, (cell, &ty))| type_cell(cell, ty).ok_or_else(|| self.value_type(c)))
            .collect()
    }

    /// Checks a typed row against the schema — arity, cell types, and the
    /// storage integer domain: everything the storage layer would reject,
    /// which is what makes the write path's log-before-apply safe.
    pub(crate) fn check(&self, row: &[Value]) -> Result<(), EngineError> {
        self.check_arity(row.len())?;
        for (c, (cell, &ty)) in row.iter().zip(self.types).enumerate() {
            if cell.column_type() != ty {
                return Err(self.value_type(c));
            }
            if let Some(value) = cell
                .as_int()
                .filter(|v| !(0..=MAX_DOMAIN_VALUE).contains(v))
            {
                return Err(StorageError::ValueOutOfDomain {
                    relation: self.relation.to_string(),
                    value,
                }
                .into());
            }
        }
        Ok(())
    }
}

impl Engine {
    /// Wraps an existing integer database: every column is catalogued as
    /// [`ColumnType::Int`], so embedded callers migrating from the raw
    /// `Database` API keep their exact semantics.
    pub fn from_database(db: Database) -> Self {
        let schemas = db
            .iter()
            .map(|(_, r)| vec![ColumnType::Int; r.arity()])
            .collect();
        Engine {
            db: RwLock::new(Arc::new(db)),
            schemas,
            ..Self::default()
        }
    }

    /// The declared column types of a stored relation.
    pub fn schema(&self, rel: RelId) -> &[ColumnType] {
        &self.schemas[rel.0]
    }

    /// The id and row codec of a stored relation.
    pub(super) fn codec<'a>(
        &'a self,
        relation: &'a str,
    ) -> Result<(RelId, RowCodec<'a>), EngineError> {
        let id = self.db.read().unwrap().id_of(relation)?;
        let types = self.schema(id);
        Ok((id, RowCodec { relation, types }))
    }

    /// Types one text row against a stored relation's schema — the entry
    /// the server's `W` verbs and WAL replay share, so a replayed record
    /// is typed bit-for-bit like the live request that produced it.
    pub(crate) fn type_cells(
        &self,
        relation: &str,
        cells: Vec<String>,
    ) -> Result<Vec<Value>, EngineError> {
        self.codec(relation)?.1.type_cells(cells)
    }

    /// Adds a typed relation: rows are checked against `types`, string
    /// cells are interned through the dictionary, and the encoded tuples
    /// are indexed exactly like native integers. Equality joins are
    /// preserved by any injective encoding, so the decoded result of a
    /// join over encoded relations equals the string-level join.
    pub fn add_relation(
        &mut self,
        name: &str,
        types: &[ColumnType],
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<RelId, EngineError> {
        self.add_rows(name, types, rows.into_iter().map(Ok))
    }

    /// [`Engine::add_relation`] over rows still being produced (checkpoint
    /// load types them on the fly); the first failed row aborts the load.
    pub(super) fn add_rows(
        &mut self,
        name: &str,
        types: &[ColumnType],
        rows: impl Iterator<Item = Result<Vec<Value>, EngineError>>,
    ) -> Result<RelId, EngineError> {
        let codec = RowCodec {
            relation: name,
            types,
        };
        let mut b = RelationBuilder::new(name, types.len());
        let mut buf: Tuple = Vec::with_capacity(types.len());
        let dict = self.dict.get_mut().unwrap();
        for row in rows {
            let row = row?;
            codec.check(&row)?;
            encode_insert(&row, dict, &mut buf);
            b.push(&buf);
        }
        self.add_built(b.build()?, types.to_vec())
    }

    /// Loads a whitespace-separated tuple file (see
    /// [`crate::text::parse_typed_relation`]): column types are inferred,
    /// integer-only files stay byte-identical to the untyped path.
    pub fn load_tsv(&mut self, name: &str, text: &str) -> Result<RelId, EngineError> {
        let typed = parse_typed_relation(name, text)?;
        self.add_relation(&typed.name, &typed.types, typed.rows)
    }

    /// Adds an already-built integer relation under an all-`Int` schema.
    pub fn add_int_relation(&mut self, rel: TrieRelation) -> Result<RelId, EngineError> {
        let types = vec![ColumnType::Int; rel.arity()];
        self.add_built(rel, types)
    }

    fn add_built(
        &mut self,
        rel: TrieRelation,
        cols: Vec<ColumnType>,
    ) -> Result<RelId, EngineError> {
        // The Arc is unique during the loading phase (statements only
        // borrow the engine), so this mutates in place; a clone happens
        // only if a detached stream from an earlier statement is still
        // running, which keeps that stream's view consistent.
        let id = Arc::make_mut(self.db.get_mut().unwrap()).add(rel)?;
        debug_assert_eq!(id.0, self.schemas.len(), "schema catalog tracks RelIds");
        self.schemas.push(cols);
        Ok(id)
    }

    /// Current version counter of a relation (bumped per content-changing
    /// batch; the cache-invalidation key).
    pub fn relation_version(&self, relation: &str) -> Result<u64, EngineError> {
        let db = self.db.read().unwrap();
        Ok(db.version(db.id_of(relation)?))
    }

    /// The leaf-representation policy the catalog selects dense bitset
    /// leaves under (see [`LeafPolicy`]; default from `MSJ_LEAF`).
    pub fn leaf_policy(&self) -> LeafPolicy {
        self.db.read().unwrap().leaf_policy()
    }

    /// Switches the leaf-representation policy and rebuilds every
    /// relation's hybrid index under it. Content- and version-neutral:
    /// cached plans and snapshots held by running readers are unaffected.
    pub fn set_leaf_policy(&self, policy: LeafPolicy) {
        let mut db = self.db.write().unwrap();
        Arc::make_mut(&mut db).set_leaf_policy(policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Whitespace-free strings that are hostile everywhere else: the
    /// loader's comment leader, the WAL's escape and empty markers,
    /// quotes, the empty string, non-ASCII, and digit-only strings that
    /// must stay strings in a `str` column.
    const HOSTILE: [&str; 12] = [
        "%", "#", "%-", "%23", "\"", "'q'", "", "naïve", "日本", "007", "42", "-1",
    ];

    /// A random schema mixing `int` and `str` columns, and rows over it.
    fn table() -> impl Strategy<Value = (Vec<ColumnType>, Vec<Vec<Value>>)> {
        let cell = (0i64..1000, 0..HOSTILE.len());
        let row = prop::collection::vec(cell, 4);
        (
            prop::collection::vec(prop::bool::ANY, 1..5),
            prop::collection::vec(row, 0..12),
        )
            .prop_map(|(strs, rows)| {
                let pick = |&is_str: &bool| {
                    if is_str {
                        ColumnType::Str
                    } else {
                        ColumnType::Int
                    }
                };
                let types: Vec<ColumnType> = strs.iter().map(pick).collect();
                let typed = |row: Vec<(i64, usize)>| {
                    let cells = row.into_iter().zip(&types);
                    cells
                        .map(|((int, word), ty)| match ty {
                            ColumnType::Int => Value::Int(int),
                            ColumnType::Str => Value::from(HOSTILE[word]),
                        })
                        .collect()
                };
                let rows = rows.into_iter().map(typed).collect();
                (types, rows)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The codec's three forms round-trip on exactly the columns the
        /// benchmark never loads: `type_cells ∘ cell_texts`, `decode ∘
        /// encode_insert` are identities, and a lookup
        /// encodes what an insert encoded — or, for a string nobody
        /// interned, nothing, leaving the dictionary alone.
        #[test]
        fn row_forms_round_trip(table in table()) {
            let (types, rows) = table;
            let codec = RowCodec { relation: "T", types: &types };
            let mut dict = Arc::new(Dictionary::new());
            let (mut stored, mut looked_up) = (Tuple::new(), Tuple::new());
            for row in &rows {
                prop_assert_eq!(codec.check(row), Ok(()));
                let texts = cell_texts(row);
                prop_assert_eq!(codec.type_cells(texts.clone()), Ok(row.clone()));

                // A row not interned yet is invisible to a lookup, which
                // leaves no trace …
                let known = dict.len();
                let fresh = row.iter().any(|c| c.as_str().is_some_and(|s| dict.id_of(s).is_none()));
                prop_assert_eq!(encode_lookup(row, &dict, &mut looked_up), !fresh);
                prop_assert_eq!(dict.len(), known);
                // … and once inserted, both encodings agree and decode back.
                encode_insert(row, &mut dict, &mut stored);
                prop_assert!(encode_lookup(row, &dict, &mut looked_up));
                prop_assert_eq!(&looked_up, &stored);
                let cells = || stored.iter().copied().zip(types.iter().copied());
                prop_assert_eq!(&decode(cells(), &dict), row);
                prop_assert_eq!(stored_cell_texts(&stored, &types, &dict), texts);
            }
            let known = dict.len();
            prop_assert_eq!(lookup(&Value::from("never-interned"), &dict), None);
            prop_assert_eq!(dict.len(), known);
        }
    }

    /// What `check` and `type_cells` reject, and how they name it.
    #[test]
    fn malformed_rows_are_rejected_by_name() {
        let types = [ColumnType::Int, ColumnType::Str];
        let codec = RowCodec {
            relation: "T",
            types: &types,
        };
        let cells = |cells: &[&str]| cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            codec.type_cells(cells(&["7", "007"])),
            Ok(vec![Value::Int(7), Value::from("007")])
        );
        assert_eq!(
            codec.type_cells(cells(&["x", "y"])),
            Err(EngineError::ValueType {
                relation: "T".into(),
                column: 0,
                expected: ColumnType::Int
            })
        );
        let arity = EngineError::RowArity {
            relation: "T".into(),
            expected: 2,
            got: 1,
        };
        assert_eq!(codec.type_cells(cells(&["7"])), Err(arity.clone()));
        assert_eq!(codec.check(&[Value::Int(7)]), Err(arity));
        assert_eq!(
            codec.check(&[Value::Int(7), Value::Int(8)]),
            Err(EngineError::ValueType {
                relation: "T".into(),
                column: 1,
                expected: ColumnType::Str
            })
        );
        let err = codec
            .check(&[Value::Int(-1), Value::from("s")])
            .unwrap_err();
        assert_eq!(err.to_string(), "relation T: value -1 outside domain");
        assert_eq!(
            types_from_tokens("T", &type_tokens(&types)),
            Ok(types.to_vec())
        );
        assert!(types_from_tokens("T", &["float".to_string()]).is_err());
    }
}
