//! The one name-keyed registry behind every open extension point.
//!
//! Policies, scenarios, autoscalers, admission policies, fault injectors,
//! observers, experiments and lint rules are all found by their registered
//! name. [`Registry<T>`] is that lookup, written once: an ordered list of
//! shared entries in which registration order is reporting order,
//! re-registering a name replaces the earlier entry *in place*, and an
//! unknown name fails with one error text for every kind —
//! ``unknown {noun} `{name}`; registered: a, b``.
//!
//! A kind plugs in by implementing [`Entry`] for its `dyn` trait (its noun,
//! its key and its built-ins) and, when its entries turn a per-run context
//! into something, [`Factory`] (the context and output types, an optional
//! context check, the build step, and the closure wrapper behind
//! [`Registry::register_fn`]). The kind then names its registry with a type
//! alias:
//!
//! ```
//! use janus_simcore::registry::{Entry, Factory, NamedFn, Registry};
//! use std::sync::Arc;
//!
//! /// Scales a number.
//! pub trait Scaler: Send + Sync {
//!     fn name(&self) -> &str;
//!     fn scale(&self, x: &f64) -> Result<f64, String>;
//! }
//!
//! impl<F: Fn(&f64) -> Result<f64, String> + Send + Sync> Scaler for NamedFn<F> {
//!     fn name(&self) -> &str {
//!         &self.name
//!     }
//!     fn scale(&self, x: &f64) -> Result<f64, String> {
//!         (self.f)(x)
//!     }
//! }
//!
//! impl Entry for dyn Scaler {
//!     const NOUN: &'static str = "scaler";
//!     fn key(&self) -> &str {
//!         self.name()
//!     }
//!     fn builtins(registry: &mut Registry<Self>) {
//!         registry.register_fn("double", |x| Ok(2.0 * x));
//!     }
//! }
//!
//! impl Factory for dyn Scaler {
//!     type Ctx<'a> = f64;
//!     type Output = f64;
//!     fn make(&self, x: &f64) -> Result<f64, String> {
//!         self.scale(x)
//!     }
//!     fn from_fn<F>(name: String, f: F) -> Arc<Self>
//!     where
//!         F: Fn(&f64) -> Result<f64, String> + Send + Sync + 'static,
//!     {
//!         Arc::new(NamedFn { name, f })
//!     }
//! }
//!
//! pub type ScalerRegistry = Registry<dyn Scaler>;
//!
//! let registry = ScalerRegistry::with_builtins();
//! assert_eq!(registry.build("double", &1.5), Ok(3.0));
//! assert_eq!(
//!     registry.build("triple", &1.5).unwrap_err(),
//!     "unknown scaler `triple`; registered: double"
//! );
//! ```

use std::fmt;
use std::sync::Arc;

/// One kind of registry entry, implemented for the kind's `dyn` trait.
pub trait Entry {
    /// What one entry is called in the unknown-name error (`"policy"`,
    /// `"fault injector"`, …).
    const NOUN: &'static str;

    /// The name the entry is registered (and reported) under.
    fn key(&self) -> &str;

    /// Register the kind's built-ins, in their reporting order.
    fn builtins(registry: &mut Registry<Self>);
}

/// An [`Entry`] kind whose entries build an output from a per-run context.
pub trait Factory: Entry {
    /// What a build consults.
    type Ctx<'a>;

    /// What a build produces.
    type Output;

    /// Reject an unusable context before the name is looked up. The default
    /// accepts every context.
    fn validate(_ctx: &Self::Ctx<'_>) -> Result<(), String> {
        Ok(())
    }

    /// Build one output: the kind's trait method plus any kind-specific
    /// post-processing.
    fn make(&self, ctx: &Self::Ctx<'_>) -> Result<Self::Output, String>;

    /// Wrap a closure as an entry named `name` — the body of
    /// [`Registry::register_fn`].
    fn from_fn<F>(name: String, f: F) -> Arc<Self>
    where
        F: Fn(&Self::Ctx<'_>) -> Result<Self::Output, String> + Send + Sync + 'static;
}

/// A named closure, for [`Factory::from_fn`]: each kind implements its own
/// trait for it by calling `f`.
pub struct NamedFn<F> {
    /// The registered name.
    pub name: String,
    /// The build step.
    pub f: F,
}

impl<F> fmt::Debug for NamedFn<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NamedFn").field("name", &self.name).finish()
    }
}

/// An ordered, open registry of named entries. See the [module
/// docs](self).
pub struct Registry<T: ?Sized> {
    entries: Vec<Arc<T>>,
}

impl<T: ?Sized> Default for Registry<T> {
    fn default() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }
}

impl<T: ?Sized> Clone for Registry<T> {
    fn clone(&self) -> Self {
        Registry {
            entries: self.entries.clone(),
        }
    }
}

impl<T: Entry + ?Sized> fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &T::NOUN)
            .field("names", &self.names())
            .finish()
    }
}

impl<T: Entry + ?Sized> Registry<T> {
    /// An empty registry (no built-ins).
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the kind's built-ins.
    pub fn with_builtins() -> Self {
        let mut registry = Self::new();
        T::builtins(&mut registry);
        registry
    }

    /// Register an entry. Replaces any earlier entry with the same name
    /// (keeping its position), otherwise appends.
    pub fn register(&mut self, entry: Arc<T>) -> &mut Self {
        match self.entries.iter_mut().find(|e| e.key() == entry.key()) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
        self
    }

    /// Look an entry up by its registered name.
    pub fn get(&self, name: &str) -> Option<&Arc<T>> {
        self.entries.iter().find(|e| e.key() == name)
    }

    /// Look an entry up by its registered name, with an error listing the
    /// registered names when it is unknown.
    pub fn lookup(&self, name: &str) -> Result<&Arc<T>, String> {
        self.get(name).ok_or_else(|| {
            format!(
                "unknown {} `{name}`; registered: {}",
                T::NOUN,
                self.names().join(", ")
            )
        })
    }

    /// Check that `name` is registered — [`lookup`](Self::lookup) without
    /// the entry, for validating names before any context exists.
    pub fn ensure_known(&self, name: &str) -> Result<(), String> {
        self.lookup(name).map(|_| ())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.key()).collect()
    }

    /// The entries, in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, Arc<T>> {
        self.entries.iter()
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<T: Factory + ?Sized> Registry<T> {
    /// Closure shorthand for [`register`](Self::register).
    pub fn register_fn<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: Fn(&T::Ctx<'_>) -> Result<T::Output, String> + Send + Sync + 'static,
    {
        self.register(T::from_fn(name.into(), f))
    }

    /// Build the named entry's output: the context is validated first, then
    /// the name is looked up.
    pub fn build(&self, name: &str, ctx: &T::Ctx<'_>) -> Result<T::Output, String> {
        T::validate(ctx)?;
        self.lookup(name)?.make(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test kind: entries add their offset to a non-negative input.
    trait Adder: Send + Sync {
        fn name(&self) -> &str;
        fn add(&self, x: &i64) -> Result<i64, String>;
    }

    impl<F: Fn(&i64) -> Result<i64, String> + Send + Sync> Adder for NamedFn<F> {
        fn name(&self) -> &str {
            &self.name
        }
        fn add(&self, x: &i64) -> Result<i64, String> {
            (self.f)(x)
        }
    }

    impl Entry for dyn Adder {
        const NOUN: &'static str = "adder";
        fn key(&self) -> &str {
            self.name()
        }
        fn builtins(registry: &mut Registry<Self>) {
            registry.register_fn("one", |x| Ok(x + 1));
            registry.register_fn("two", |x| Ok(x + 2));
        }
    }

    impl Factory for dyn Adder {
        type Ctx<'a> = i64;
        type Output = i64;
        fn validate(x: &i64) -> Result<(), String> {
            if *x < 0 {
                return Err(format!("negative input {x}"));
            }
            Ok(())
        }
        fn make(&self, x: &i64) -> Result<i64, String> {
            self.add(x)
        }
        fn from_fn<F>(name: String, f: F) -> Arc<Self>
        where
            F: Fn(&i64) -> Result<i64, String> + Send + Sync + 'static,
        {
            Arc::new(NamedFn { name, f })
        }
    }

    type AdderRegistry = Registry<dyn Adder>;

    fn adder(offset: i64) -> impl Fn(&i64) -> Result<i64, String> + Send + Sync + 'static {
        move |x| Ok(x + offset)
    }

    /// One row of the mechanics table: what is done to the built-ins, the
    /// names that must result, and `build(name, &10)` results to check.
    struct Case {
        what: &'static str,
        step: fn(&mut AdderRegistry),
        names: &'static [&'static str],
        builds: &'static [(&'static str, i64)],
    }

    #[test]
    fn registration_mechanics() {
        let cases = [
            Case {
                what: "built-ins",
                step: |_| {},
                names: &["one", "two"],
                builds: &[("one", 11), ("two", 12)],
            },
            Case {
                what: "a new name appends in order",
                step: |r| {
                    r.register_fn("ten", adder(10));
                    r.register_fn("five", adder(5));
                },
                names: &["one", "two", "ten", "five"],
                builds: &[("ten", 20), ("five", 15)],
            },
            Case {
                what: "re-registering replaces in place",
                step: |r| {
                    r.register_fn("one", adder(100));
                },
                names: &["one", "two"],
                builds: &[("one", 110), ("two", 12)],
            },
            Case {
                what: "register and register_fn share one slot per name",
                step: |r| {
                    r.register(<dyn Adder>::from_fn("two".into(), adder(-2)));
                    r.register_fn("two", adder(7));
                },
                names: &["one", "two"],
                builds: &[("two", 17)],
            },
        ];
        for Case {
            what,
            step,
            names,
            builds,
        } in cases
        {
            let mut registry = AdderRegistry::with_builtins();
            step(&mut registry);
            assert_eq!(registry.names(), names, "{what}");
            assert_eq!(registry.len(), names.len(), "{what}");
            assert!(!registry.is_empty(), "{what}");
            for &(name, want) in builds {
                assert_eq!(registry.build(name, &10), Ok(want), "{what}: {name}");
                assert!(registry.get(name).is_some(), "{what}: {name}");
                assert_eq!(registry.ensure_known(name), Ok(()), "{what}: {name}");
            }
            let iterated: Vec<&str> = registry.iter().map(|e| e.key()).collect();
            assert_eq!(iterated, names, "{what}");
        }
    }

    #[test]
    fn empty_registries_and_unknown_names() {
        let empty = AdderRegistry::new();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(AdderRegistry::default().names().is_empty());
        assert_eq!(
            empty.ensure_known("one").unwrap_err(),
            "unknown adder `one`; registered: "
        );

        let mut registry = AdderRegistry::with_builtins();
        registry.register_fn("zero", adder(0));
        let err = "unknown adder `three`; registered: one, two, zero";
        assert_eq!(registry.ensure_known("three").unwrap_err(), err);
        assert_eq!(registry.lookup("three").err().as_deref(), Some(err));
        assert_eq!(registry.build("three", &1).unwrap_err(), err);
        assert!(registry.get("three").is_none());
        let shown = format!("{registry:?}");
        assert_eq!(
            shown,
            r#"Registry { kind: "adder", names: ["one", "two", "zero"] }"#
        );
    }

    #[test]
    fn validation_runs_before_the_lookup() {
        let registry = AdderRegistry::with_builtins();
        // An invalid context wins over an unknown name …
        assert_eq!(
            registry.build("three", &-1).unwrap_err(),
            "negative input -1"
        );
        // … and a known name still needs a valid context.
        assert_eq!(registry.build("one", &-1).unwrap_err(), "negative input -1");
        // Entry errors surface unchanged.
        let mut failing = AdderRegistry::new();
        failing.register_fn("fails", |_| Err("boom".to_string()));
        assert_eq!(failing.build("fails", &0).unwrap_err(), "boom");
    }

    #[test]
    fn clones_are_independent() {
        let original = AdderRegistry::with_builtins();
        let mut copy = original.clone();
        copy.register_fn("three", adder(3));
        assert_eq!(original.len(), 2);
        assert_eq!(copy.len(), 3);
    }
}
