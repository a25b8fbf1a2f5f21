//! Uniform read access to a world, whether fully materialized or lazy.
//!
//! [`WorldScope`] is the exact read surface a simulated source needs to
//! build one scholar's profile: the scholar itself, its papers and
//! reviews, and name/label lookups for the entities those reference.
//! The eager [`World`] implements it over its derived tables; a lazy
//! world implements it over one decoded [`crate::WorldBlock`]
//! (coauthors never cross community blocks, so a single block resolves
//! every reference a profile makes). Because both paths feed the same
//! profile-building code, lazy profiles are byte-identical to eager
//! ones — a property the equivalence tests pin.

use std::sync::Arc;

use minaret_ontology::Ontology;
use minaret_store::StoreError;

use crate::ids::{InstitutionId, ScholarId, VenueId};
use crate::lazy::{LazyWorld, WorldBlock};
use crate::model::{Institution, Paper, ReviewRecord, Scholar, Venue};
use crate::world::World;

/// The world reads needed to build one scholar's source profile.
pub trait WorldScope {
    /// The topic ontology.
    fn ontology(&self) -> &Ontology;
    /// Scholar by id (must be resolvable in this scope).
    fn scholar(&self, id: ScholarId) -> &Scholar;
    /// Venue by id.
    fn venue(&self, id: VenueId) -> &Venue;
    /// Institution by id.
    fn institution(&self, id: InstitutionId) -> &Institution;
    /// Papers authored by `id`, in global paper order.
    fn papers_of(&self, id: ScholarId) -> Vec<&Paper>;
    /// Review records of `id`, in global review order.
    fn reviews_of(&self, id: ScholarId) -> Vec<&ReviewRecord>;
}

impl WorldScope for World {
    fn ontology(&self) -> &Ontology {
        &self.ontology
    }
    fn scholar(&self, id: ScholarId) -> &Scholar {
        World::scholar(self, id)
    }
    fn venue(&self, id: VenueId) -> &Venue {
        World::venue(self, id)
    }
    fn institution(&self, id: InstitutionId) -> &Institution {
        World::institution(self, id)
    }
    fn papers_of(&self, id: ScholarId) -> Vec<&Paper> {
        World::papers_of(self, id)
            .iter()
            .map(|&p| self.paper(p))
            .collect()
    }
    fn reviews_of(&self, id: ScholarId) -> Vec<&ReviewRecord> {
        World::reviews_of(self, id).collect()
    }
}

/// A [`WorldScope`] over one decoded block of a [`LazyWorld`].
#[derive(Clone, Copy)]
pub struct BlockScope<'a> {
    world: &'a LazyWorld,
    block: &'a WorldBlock,
}

impl WorldScope for BlockScope<'_> {
    fn ontology(&self) -> &Ontology {
        self.world.ontology()
    }
    fn scholar(&self, id: ScholarId) -> &Scholar {
        self.block.scholar(id)
    }
    fn venue(&self, id: VenueId) -> &Venue {
        self.world.venue(id)
    }
    fn institution(&self, id: InstitutionId) -> &Institution {
        self.world.institution(id)
    }
    fn papers_of(&self, id: ScholarId) -> Vec<&Paper> {
        self.block.papers_of(id)
    }
    fn reviews_of(&self, id: ScholarId) -> Vec<&ReviewRecord> {
        self.block.reviews_of(id)
    }
}

/// A shared world, eager or lazy, behind one façade — what
/// `SimulatedSource` holds so the profile path is identical either way.
#[derive(Clone)]
pub enum WorldHandle {
    /// Fully materialized world (derived tables in RAM).
    Eager(Arc<World>),
    /// Store-backed world; blocks decode on demand.
    Lazy(Arc<LazyWorld>),
}

impl WorldHandle {
    /// Number of scholars in the world.
    pub fn scholar_count(&self) -> usize {
        match self {
            WorldHandle::Eager(w) => w.scholars().len(),
            WorldHandle::Lazy(w) => w.scholar_count(),
        }
    }

    /// Number of papers in the world.
    pub fn paper_count(&self) -> usize {
        match self {
            WorldHandle::Eager(w) => w.papers().len(),
            WorldHandle::Lazy(w) => w.paper_count(),
        }
    }

    /// Number of venues in the world.
    pub fn venue_count(&self) -> usize {
        match self {
            WorldHandle::Eager(w) => w.venues().len(),
            WorldHandle::Lazy(w) => w.venues().len(),
        }
    }

    /// Number of institutions in the world.
    pub fn institution_count(&self) -> usize {
        match self {
            WorldHandle::Eager(w) => w.institutions().len(),
            WorldHandle::Lazy(w) => w.institutions().len(),
        }
    }

    /// The simulation's current year.
    pub fn current_year(&self) -> u32 {
        match self {
            WorldHandle::Eager(w) => w.current_year,
            WorldHandle::Lazy(w) => w.current_year(),
        }
    }

    /// The topic ontology.
    pub fn ontology(&self) -> &Ontology {
        match self {
            WorldHandle::Eager(w) => &w.ontology,
            WorldHandle::Lazy(w) => w.ontology(),
        }
    }

    /// True for the store-backed variant.
    pub fn is_lazy(&self) -> bool {
        matches!(self, WorldHandle::Lazy(_))
    }

    /// Visits `(id, given name, family name, interests)` for every
    /// scholar, in id order — the compact summary index builders need,
    /// available without materializing any profile.
    pub fn for_each_summary(
        &self,
        mut f: impl FnMut(ScholarId, &str, &str, &[minaret_ontology::TopicId]),
    ) {
        match self {
            WorldHandle::Eager(w) => {
                for s in w.scholars() {
                    f(s.id, &s.given_name, &s.family_name, &s.interests);
                }
            }
            WorldHandle::Lazy(w) => {
                for i in 0..w.scholar_count() {
                    let (given, family, interests) = w.summary(i);
                    f(ScholarId(i as u32), given, family, interests);
                }
            }
        }
    }

    /// Runs `f` against a [`WorldScope`] that can resolve `id` and
    /// everything its profile references. Eager worlds resolve in RAM;
    /// lazy worlds decode (or hit the cache for) `id`'s community
    /// block, which is the only I/O a single profile build needs.
    pub fn try_scope<R>(
        &self,
        id: ScholarId,
        f: impl FnOnce(&dyn WorldScope) -> R,
    ) -> Result<R, StoreError> {
        match self {
            WorldHandle::Eager(w) => Ok(f(w.as_ref())),
            WorldHandle::Lazy(w) => {
                let block = w.block_for(id)?;
                let scope = BlockScope {
                    world: w.as_ref(),
                    block: block.as_ref(),
                };
                Ok(f(&scope))
            }
        }
    }
}

impl std::fmt::Debug for WorldHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldHandle::Eager(w) => f
                .debug_struct("WorldHandle::Eager")
                .field("scholars", &w.scholars().len())
                .finish(),
            WorldHandle::Lazy(w) => f
                .debug_struct("WorldHandle::Lazy")
                .field("scholars", &w.scholar_count())
                .finish(),
        }
    }
}
