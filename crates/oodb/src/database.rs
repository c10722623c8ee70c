//! Object storage: extents and relationship instances.

use crate::value::Value;
use ipe_schema::{ClassId, Primitive, RelId, RelKind, Schema};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of an object in a [`Database`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Dense index into per-object tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors raised by database mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// The class id does not belong to the schema.
    PrimitiveInstance,
    /// The source object's class is not compatible with the relationship's
    /// source class.
    SourceClassMismatch {
        /// Relationship name.
        rel: String,
    },
    /// The target object's class is not compatible with the relationship's
    /// target class.
    TargetClassMismatch {
        /// Relationship name.
        rel: String,
    },
    /// `set_attr` on a relationship that does not target a primitive, or
    /// `link` on one that does.
    NotAnAttribute {
        /// Relationship name.
        rel: String,
    },
    /// The value's primitive class does not match the attribute's.
    ValueTypeMismatch {
        /// Relationship name.
        rel: String,
        /// Expected primitive.
        expected: Primitive,
    },
    /// An object id out of range.
    NoSuchObject(ObjectId),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::PrimitiveInstance => {
                f.write_str("objects of primitive classes are values, not objects")
            }
            DbError::SourceClassMismatch { rel } => {
                write!(
                    f,
                    "source object is not an instance of `{rel}`'s source class"
                )
            }
            DbError::TargetClassMismatch { rel } => {
                write!(
                    f,
                    "target object is not an instance of `{rel}`'s target class"
                )
            }
            DbError::NotAnAttribute { rel } => {
                write!(f, "`{rel}` does not connect to a primitive class")
            }
            DbError::ValueTypeMismatch { rel, expected } => {
                write!(f, "`{rel}` stores {expected:?} values")
            }
            DbError::NoSuchObject(o) => write!(f, "no object {o:?}"),
        }
    }
}

impl std::error::Error for DbError {}

/// A database instance over a schema: objects grouped into class extents,
/// plus relationship and attribute instances.
///
/// Linking through a relationship automatically maintains the inverse
/// relationship's instances, mirroring the schema-level assumption that
/// inverses always exist.
///
/// The database shares ownership of its schema (`Arc<Schema>`), so loaded
/// instances can outlive the scope that built them — long-lived registries
/// (the service's data registry) hold `Arc<Database>` next to the schema
/// registry's `Arc<Schema>` without lifetime plumbing.
pub struct Database {
    schema: Arc<Schema>,
    /// Class of each object; `None` for removed objects (ids are never
    /// reused, so references held by callers stay unambiguous).
    class_of: Vec<Option<ClassId>>,
    /// Object links per relationship: `links[rel][source] = targets`.
    links: Vec<BTreeMap<ObjectId, Vec<ObjectId>>>,
    /// Attribute values per relationship: `attrs[rel][object] = values`.
    attrs: Vec<BTreeMap<ObjectId, Vec<Value>>>,
}

impl Database {
    /// An empty database over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let rels = schema.rel_count();
        Database {
            schema,
            class_of: Vec::new(),
            links: vec![BTreeMap::new(); rels],
            attrs: vec![BTreeMap::new(); rels],
        }
    }

    /// The schema this database instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total stored link instances (inverse links counted separately, as
    /// stored).
    pub fn link_count(&self) -> usize {
        self.links
            .iter()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Total stored attribute values.
    pub fn attr_count(&self) -> usize {
        self.attrs
            .iter()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.class_of.iter().filter(|c| c.is_some()).count()
    }

    /// Creates an object of the given (non-primitive) class.
    pub fn add_object(&mut self, class: ClassId) -> Result<ObjectId, DbError> {
        if self.schema.is_primitive(class) {
            return Err(DbError::PrimitiveInstance);
        }
        let id = ObjectId(u32::try_from(self.class_of.len()).expect("object overflow"));
        self.class_of.push(Some(class));
        Ok(id)
    }

    /// The (most specific) class of an object.
    pub fn class_of(&self, o: ObjectId) -> Result<ClassId, DbError> {
        self.class_of
            .get(o.index())
            .copied()
            .flatten()
            .ok_or(DbError::NoSuchObject(o))
    }

    /// Whether `o` is an instance of `class`, under inclusion semantics.
    pub fn is_instance(&self, o: ObjectId, class: ClassId) -> Result<bool, DbError> {
        Ok(self.schema.is_subclass_of(self.class_of(o)?, class))
    }

    /// The extent of `class`: all objects that are instances of it
    /// (inclusion semantics), in id order.
    pub fn extent(&self, class: ClassId) -> Vec<ObjectId> {
        (0..self.class_of.len() as u32)
            .map(ObjectId)
            .filter(|&o| {
                self.class_of[o.index()].is_some_and(|c| self.schema.is_subclass_of(c, class))
            })
            .collect()
    }

    /// Links `from → to` through relationship `rel` (and `to → from`
    /// through its inverse, when present).
    pub fn link(&mut self, rel: RelId, from: ObjectId, to: ObjectId) -> Result<(), DbError> {
        let r = self.schema.rel(rel);
        let rel_name = self.schema.rel_name(rel).to_owned();
        if self.schema.is_primitive(r.target) {
            return Err(DbError::NotAnAttribute { rel: rel_name });
        }
        if !self.is_instance(from, r.source)? {
            return Err(DbError::SourceClassMismatch { rel: rel_name });
        }
        if !self.is_instance(to, r.target)? {
            return Err(DbError::TargetClassMismatch { rel: rel_name });
        }
        push_unique(&mut self.links[rel.index()], from, to);
        if let Some(inv) = r.inverse {
            push_unique(&mut self.links[inv.index()], to, from);
        }
        Ok(())
    }

    /// Sets an attribute value (a link into a primitive class). Multiple
    /// values per object are allowed (set semantics).
    pub fn set_attr(&mut self, rel: RelId, object: ObjectId, value: Value) -> Result<(), DbError> {
        let r = self.schema.rel(rel);
        let rel_name = self.schema.rel_name(rel).to_owned();
        let Some(prim) = self.schema.class(r.target).primitive else {
            return Err(DbError::NotAnAttribute { rel: rel_name });
        };
        if value.primitive() != prim {
            return Err(DbError::ValueTypeMismatch {
                rel: rel_name,
                expected: prim,
            });
        }
        if !self.is_instance(object, r.source)? {
            return Err(DbError::SourceClassMismatch { rel: rel_name });
        }
        let vals = self.attrs[rel.index()].entry(object).or_default();
        if !vals.contains(&value) {
            vals.push(value);
        }
        Ok(())
    }

    /// Objects linked from `o` through `rel`.
    pub fn linked(&self, rel: RelId, o: ObjectId) -> &[ObjectId] {
        self.links[rel.index()]
            .get(&o)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Attribute values of `o` under `rel`.
    pub fn attr_values(&self, rel: RelId, o: ObjectId) -> &[Value] {
        self.attrs[rel.index()]
            .get(&o)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Removes the link `from → to` under `rel` (and the inverse link),
    /// if present. Returns whether anything was removed.
    pub fn unlink(&mut self, rel: RelId, from: ObjectId, to: ObjectId) -> bool {
        let removed = remove_pair(&mut self.links[rel.index()], from, to);
        if removed {
            if let Some(inv) = self.schema.rel(rel).inverse {
                remove_pair(&mut self.links[inv.index()], to, from);
            }
        }
        removed
    }

    /// Follows one relationship step from an object set, per the kind's
    /// semantics: `Isa` is the identity (inclusion), `May-Be` filters by
    /// dynamic class, everything else follows stored links.
    pub fn step(&self, rel: RelId, from: &[ObjectId]) -> Vec<ObjectId> {
        let r = self.schema.rel(rel);
        let mut out: Vec<ObjectId> = match r.kind {
            RelKind::Isa => from.to_vec(),
            RelKind::MayBe => from
                .iter()
                .copied()
                .filter(|&o| {
                    self.class_of[o.index()]
                        .is_some_and(|c| self.schema.is_subclass_of(c, r.target))
                })
                .collect(),
            _ => from
                .iter()
                .flat_map(|&o| self.linked(rel, o).iter().copied())
                .collect(),
        };
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn remove_pair(
    table: &mut BTreeMap<ObjectId, Vec<ObjectId>>,
    key: ObjectId,
    value: ObjectId,
) -> bool {
    let Some(v) = table.get_mut(&key) else {
        return false;
    };
    let before = v.len();
    v.retain(|&t| t != value);
    let removed = v.len() != before;
    if v.is_empty() {
        table.remove(&key);
    }
    removed
}

fn push_unique(table: &mut BTreeMap<ObjectId, Vec<ObjectId>>, key: ObjectId, value: ObjectId) {
    let v = table.entry(key).or_default();
    if !v.contains(&value) {
        v.push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_schema::fixtures;

    #[test]
    fn extent_includes_subclasses() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let ta = schema.class_named("ta").unwrap();
        let person = schema.class_named("person").unwrap();
        let course = schema.class_named("course").unwrap();
        let o = db.add_object(ta).unwrap();
        let c = db.add_object(course).unwrap();
        assert_eq!(db.extent(ta), vec![o]);
        assert_eq!(db.extent(person), vec![o], "inclusion semantics");
        assert_eq!(db.extent(course), vec![c]);
        assert!(db.is_instance(o, person).unwrap());
        assert!(!db.is_instance(c, person).unwrap());
    }

    #[test]
    fn primitive_objects_are_rejected() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let string = schema.class_named("string").unwrap();
        assert_eq!(db.add_object(string), Err(DbError::PrimitiveInstance));
    }

    #[test]
    fn linking_maintains_inverse() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let student = schema.class_named("student").unwrap();
        let course = schema.class_named("course").unwrap();
        let s = db.add_object(student).unwrap();
        let c = db.add_object(course).unwrap();
        let take = schema
            .out_rel_named(student, schema.symbol("take").unwrap())
            .unwrap();
        db.link(take.id, s, c).unwrap();
        assert_eq!(db.linked(take.id, s), &[c]);
        let inv = take.inverse.unwrap();
        assert_eq!(db.linked(inv, c), &[s]);
    }

    #[test]
    fn link_validates_classes() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let student = schema.class_named("student").unwrap();
        let course = schema.class_named("course").unwrap();
        let s = db.add_object(student).unwrap();
        let c = db.add_object(course).unwrap();
        let take = schema
            .out_rel_named(student, schema.symbol("take").unwrap())
            .unwrap();
        assert!(matches!(
            db.link(take.id, c, s),
            Err(DbError::SourceClassMismatch { .. })
        ));
        assert!(matches!(
            db.link(take.id, s, s),
            Err(DbError::TargetClassMismatch { .. })
        ));
    }

    #[test]
    fn subclass_objects_can_use_superclass_rels() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let ta = schema.class_named("ta").unwrap();
        let course = schema.class_named("course").unwrap();
        let student = schema.class_named("student").unwrap();
        let t = db.add_object(ta).unwrap();
        let c = db.add_object(course).unwrap();
        let take = schema
            .out_rel_named(student, schema.symbol("take").unwrap())
            .unwrap();
        // A TA is a student, so it can take courses.
        db.link(take.id, t, c).unwrap();
        assert_eq!(db.linked(take.id, t), &[c]);
    }

    #[test]
    fn attrs_are_typed() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let person = schema.class_named("person").unwrap();
        let o = db.add_object(person).unwrap();
        let name = schema
            .out_rel_named(person, schema.symbol("name").unwrap())
            .unwrap();
        db.set_attr(name.id, o, Value::text("Ann")).unwrap();
        assert!(matches!(
            db.set_attr(name.id, o, Value::Int(4)),
            Err(DbError::ValueTypeMismatch { .. })
        ));
        assert_eq!(db.attr_values(name.id, o), &[Value::text("Ann")]);
    }

    #[test]
    fn attr_values_are_set_semantics() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let person = schema.class_named("person").unwrap();
        let o = db.add_object(person).unwrap();
        let name = schema
            .out_rel_named(person, schema.symbol("name").unwrap())
            .unwrap();
        db.set_attr(name.id, o, Value::text("Ann")).unwrap();
        db.set_attr(name.id, o, Value::text("Ann")).unwrap();
        assert_eq!(db.attr_values(name.id, o).len(), 1);
    }

    #[test]
    fn unlink_removes_both_directions() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let student = schema.class_named("student").unwrap();
        let course = schema.class_named("course").unwrap();
        let s = db.add_object(student).unwrap();
        let c = db.add_object(course).unwrap();
        let take = schema
            .out_rel_named(student, schema.symbol("take").unwrap())
            .unwrap();
        db.link(take.id, s, c).unwrap();
        assert!(db.unlink(take.id, s, c));
        assert!(db.linked(take.id, s).is_empty());
        assert!(db.linked(take.inverse.unwrap(), c).is_empty());
        assert!(!db.unlink(take.id, s, c), "second unlink is a no-op");
    }

    #[test]
    fn isa_step_is_identity_and_maybe_filters() {
        let schema = Arc::new(fixtures::university());
        let mut db = Database::new(Arc::clone(&schema));
        let person = schema.class_named("person").unwrap();
        let student = schema.class_named("student").unwrap();
        let p = db.add_object(person).unwrap();
        let s = db.add_object(student).unwrap();
        // student @> person: identity on student objects.
        let isa = schema
            .out_rel_named(student, schema.symbol("person").unwrap())
            .unwrap();
        assert_eq!(db.step(isa.id, &[s]), vec![s]);
        // person <@ student: keeps only the actual students.
        let maybe = schema
            .out_rel_named(person, schema.symbol("student").unwrap())
            .unwrap();
        assert_eq!(db.step(maybe.id, &[p, s]), vec![s]);
    }
}
