//! Seeded inputs: expert-plus-mob pools, per-connection request streams
//! and juror-mutation schedules. Everything here is a pure function of
//! the seed, so two runs with one seed drive identical traffic.

use jury_core::juror::{ErrorRate, Juror};
use jury_service::{DecisionTask, PoolId};

/// PayM budgets, cycled through a connection's pay-as-you-go requests.
pub const BUDGETS: [f64; 3] = [1.5, 2.5, 4.0];
/// Tenants the requests are spread over (coalescing windows are keyed
/// by tenant and pool).
pub const TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Error rate drawn from the expert band `[0.02, 0.45)` or the mob band
/// `[0.55, 0.95)`.
fn band_rate(expert: bool, rng: &mut Rng) -> ErrorRate {
    let u = rng.unit();
    let eps = if expert { 0.02 + 0.43 * u } else { 0.55 + 0.40 * u };
    ErrorRate::new(eps).expect("band rates lie inside (0, 1)")
}

/// The expert-plus-mob family: 2% experts, the rest mob, costs
/// `0.05 + u²`. Experts occupy the first positions.
pub fn expert_mob_pool(n: usize, rng: &mut Rng) -> Vec<Juror> {
    let experts = n.div_ceil(50);
    (0..n)
        .map(|i| {
            let rate = band_rate(i < experts, rng);
            let u = rng.unit();
            Juror::new(i as u32, rate, 0.05 + u * u)
        })
        .collect()
}

/// One kind of decision task: AltrM, or PayM at `BUDGETS[b]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Altr,
    Pay(u8),
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Altr, Kind::Pay(0), Kind::Pay(1), Kind::Pay(2)];

    pub fn task(self, pool: PoolId) -> DecisionTask {
        match self {
            Kind::Altr => DecisionTask::altruism(pool),
            Kind::Pay(b) => DecisionTask::pay_as_you_go(pool, BUDGETS[b as usize]),
        }
    }
}

/// One solve request: which workload pool, which task, which tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub slot: usize,
    pub kind: Kind,
    pub tenant: usize,
}

/// A connection's endless request stream: a uniform pool among the ones
/// it reads, 3/4 AltrM and 1/4 PayM with budgets cycling.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    slots: Vec<usize>,
    pays: usize,
}

impl Stream {
    pub fn new(seed: u64, conn: usize, slots: Vec<usize>) -> Self {
        assert!(!slots.is_empty(), "a connection reads at least one pool");
        Self { rng: Rng::new(seed, 0x5eed_0000 + conn as u64), slots, pays: 0 }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let slot = self.slots[self.rng.below(self.slots.len())];
        let kind = if self.rng.below(4) == 0 {
            self.pays += 1;
            Kind::Pay(((self.pays - 1) % BUDGETS.len()) as u8)
        } else {
            Kind::Altr
        };
        let tenant = self.rng.below(TENANTS.len());
        Some(Request { slot, kind, tenant })
    }
}

/// A reversible change to one pool. Perturbations never stack: each is
/// undone before the next on the same pool is applied, so a pool is
/// always in its base state or exactly one perturbation away from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Re-rates the juror at `index`; undone by writing `original` back.
    Update { index: usize, juror: Juror, original: Juror },
    /// Appends `juror`; undone by removing the last position.
    Insert { juror: Juror },
}

/// `count` perturbations of `base`: three re-ratings (within the
/// juror's own band) for every insert.
pub fn perturbations(base: &[Juror], count: usize, rng: &mut Rng) -> Vec<Perturbation> {
    let experts = base.len().div_ceil(50);
    (0..count)
        .map(|k| {
            if k % 4 == 3 {
                let expert = rng.below(50) == 0;
                let rate = band_rate(expert, rng);
                let u = rng.unit();
                let id = (base.len() + k) as u32;
                Perturbation::Insert { juror: Juror::new(id, rate, 0.05 + u * u) }
            } else {
                let index = rng.below(base.len());
                let original = base[index];
                let rate = band_rate(index < experts, rng);
                Perturbation::Update {
                    index,
                    juror: Juror::new(original.id, rate, original.cost),
                    original,
                }
            }
        })
        .collect()
}

/// Applies perturbation `pert` (or its undo) to a plain juror vector —
/// the model the service's answers are checked against.
pub fn apply_to(jurors: &mut Vec<Juror>, pert: &Perturbation, undo: bool) {
    match (*pert, undo) {
        (Perturbation::Update { index, juror, .. }, false) => jurors[index] = juror,
        (Perturbation::Update { index, original, .. }, true) => jurors[index] = original,
        (Perturbation::Insert { juror }, false) => jurors.push(juror),
        (Perturbation::Insert { .. }, true) => {
            jurors.pop();
        }
    }
}

/// One entry of a mutation schedule: apply perturbation `pert` of pool
/// `slot`, or undo it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub slot: usize,
    pub pert: usize,
    pub undo: bool,
}

/// The cyclic schedule over `slots`, each with `per_slot` perturbations:
/// perturb then undo, moving to the next pool after each pair, so at
/// most one of the pools is away from its base state at a time.
pub fn schedule(slots: &[usize], per_slot: usize) -> Vec<Step> {
    let mut steps = Vec::with_capacity(2 * slots.len() * per_slot);
    for pert in 0..per_slot {
        for &slot in slots {
            steps.push(Step { slot, pert, undo: false });
            steps.push(Step { slot, pert, undo: true });
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pools() {
        let a = expert_mob_pool(2_000, &mut Rng::new(7, 1));
        let b = expert_mob_pool(2_000, &mut Rng::new(7, 1));
        assert_eq!(a, b);
        let c = expert_mob_pool(2_000, &mut Rng::new(8, 1));
        assert_ne!(a, c, "another seed gives another pool");
        assert!(a[..40].iter().all(|j| j.epsilon() < 0.45));
        assert!(a[40..].iter().all(|j| j.epsilon() >= 0.55));
    }

    #[test]
    fn same_seed_same_requests() {
        let a: Vec<Request> = Stream::new(3, 0, vec![0, 1, 2, 3]).take(1_000).collect();
        let b: Vec<Request> = Stream::new(3, 0, vec![0, 1, 2, 3]).take(1_000).collect();
        assert_eq!(a, b);
        let other: Vec<Request> = Stream::new(3, 1, vec![0, 1, 2, 3]).take(1_000).collect();
        assert_ne!(a, other, "connections draw independent streams");
        let pays = a.iter().filter(|r| r.kind != Kind::Altr).count();
        assert!((180..320).contains(&pays), "about a quarter PayM, got {pays}");
    }

    #[test]
    fn same_seed_same_mutations_and_undo_restores() {
        let base = expert_mob_pool(500, &mut Rng::new(11, 2));
        let a = perturbations(&base, 8, &mut Rng::new(11, 9));
        let b = perturbations(&base, 8, &mut Rng::new(11, 9));
        assert_eq!(a, b);
        let steps = schedule(&[0], a.len());
        assert_eq!(steps.len(), 16);
        let mut model = base.clone();
        for step in &steps {
            apply_to(&mut model, &a[step.pert], step.undo);
            if step.undo {
                assert_eq!(model, base, "every undo returns the pool to its base state");
            } else {
                assert_ne!(model, base);
            }
        }
        let updates = a.iter().filter(|p| matches!(p, Perturbation::Update { .. })).count();
        assert_eq!(updates, 6, "mostly re-ratings");
    }

    #[test]
    fn schedule_interleaves_pools() {
        let steps = schedule(&[2, 3], 2);
        let slots: Vec<usize> = steps.iter().map(|s| s.slot).collect();
        assert_eq!(slots, vec![2, 2, 3, 3, 2, 2, 3, 3]);
    }
}
