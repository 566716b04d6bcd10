//! Function identities: names resolved once to dense [`FunctionId`]s.
//!
//! A workflow names its functions with strings, but the per-invocation path
//! (warm-pool acquire and release, placement, co-location counts) runs once
//! per function start. The warm pool and the cluster each resolve a name to
//! a [`FunctionId`] once per run through their own name table and index
//! their per-function state by it from then on, so that path compares no
//! string.

/// Dense identifier of a function within one pool's or cluster's name
/// table: the position at which that table first saw the function's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// The id as an index into per-function tables.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Function names interned to dense ids in first-seen order.
#[derive(Debug, Default)]
pub(crate) struct FunctionNames {
    names: Vec<String>,
}

impl FunctionNames {
    /// The id of an already-interned `name` (a linear scan of the handful
    /// of function names a run serves).
    pub(crate) fn get(&self, name: &str) -> Option<FunctionId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| FunctionId(i as u32))
    }

    /// The id of `name`, interning it as the next id on first sight.
    pub(crate) fn intern(&mut self, name: &str) -> FunctionId {
        match self.get(name) {
            Some(id) => id,
            None => {
                self.names.push(name.to_string());
                FunctionId(self.names.len() as u32 - 1)
            }
        }
    }

    /// The name interned as `id`. Only tests map ids back to names: the
    /// simulator itself compares ids.
    ///
    /// # Panics
    ///
    /// If `id` was not issued by this table.
    #[cfg(test)]
    pub(crate) fn name(&self, id: FunctionId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned names; every id issued is below it.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_stable_and_in_first_seen_order() {
        let mut names = FunctionNames::default();
        assert_eq!(names.get("od"), None);
        assert_eq!(names.intern("od"), FunctionId(0));
        assert_eq!(names.intern("qa"), FunctionId(1));
        assert_eq!(names.intern("od"), FunctionId(0), "stable on re-intern");
        assert_eq!(names.get("qa"), Some(FunctionId(1)));
        assert_eq!(names.len(), 2);
        assert_eq!(names.name(FunctionId(1)), "qa");
        assert_eq!(FunctionId(1).index(), 1);
    }
}
