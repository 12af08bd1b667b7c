//! Virtual AMP topology descriptions.
//!
//! A [`Topology`] is the static description of the machine being
//! emulated: which virtual cores exist, whether each is big or little,
//! how much slower little cores are, and which socket (cluster) each
//! core sits in.

/// The class of a core in an asymmetric multicore processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// A fast, performance-oriented core (e.g. M1 Firestorm).
    Big,
    /// A slow, efficiency-oriented core (e.g. M1 Icestorm).
    Little,
}

impl CoreKind {
    /// Short label used in reports ("big" / "little").
    pub fn label(self) -> &'static str {
        match self {
            CoreKind::Big => "big",
            CoreKind::Little => "little",
        }
    }
}

/// Index of a virtual core within its [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

/// One virtual core.
#[derive(Debug, Clone, Copy)]
pub struct VirtualCore {
    /// Identity of this core within the topology.
    pub id: CoreId,
    /// Big or little.
    pub kind: CoreKind,
    /// NUMA socket (cluster) this core belongs to. Asymmetric
    /// machines place each core class in its own cluster (the M1's
    /// Firestorm/Icestorm complexes each share an L2), so cross-class
    /// traffic is also cross-socket traffic.
    pub socket: usize,
}

/// A virtual asymmetric multicore processor.
///
/// `perf_ratio` is the paper's performance gap: executing the same
/// work takes `perf_ratio` times longer on a little core. The paper
/// measures 3.75× in Sysbench and 1.8× for straight-line NOPs on the
/// M1; the default topologies below sit inside that range.
#[derive(Debug, Clone)]
pub struct Topology {
    cores: Vec<VirtualCore>,
    perf_ratio: f64,
    name: &'static str,
}

impl Topology {
    /// Build a custom topology: `big` big cores followed by `little`
    /// little cores, with the given little-core slowdown factor.
    ///
    /// # Panics
    /// Panics if both core counts are zero or `perf_ratio < 1.0`.
    pub fn custom(big: usize, little: usize, perf_ratio: f64) -> Self {
        assert!(big + little > 0, "topology must have at least one core");
        assert!(perf_ratio >= 1.0, "perf_ratio must be >= 1.0");
        let cores = (0..big + little)
            .map(|i| VirtualCore {
                id: CoreId(i),
                kind: if i < big {
                    CoreKind::Big
                } else {
                    CoreKind::Little
                },
                // Each class is its own cluster: big cores socket 0,
                // little cores socket 1.
                socket: usize::from(i >= big),
            })
            .collect();
        Topology {
            cores,
            perf_ratio,
            name: "custom",
        }
    }

    /// A symmetric NUMA machine: `sockets` sockets of
    /// `cores_per_socket` identical-speed cores each.
    ///
    /// Cores in the first half of the sockets are tagged
    /// [`CoreKind::Big`] and the rest [`CoreKind::Little`] with
    /// `perf_ratio == 1.0`: on a symmetric machine the class tags
    /// carry no speed difference and instead serve as the two NUMA
    /// *domains* that class-aware locks (CNA, cohort) batch on.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn numa(sockets: usize, cores_per_socket: usize) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(cores_per_socket > 0, "need at least one core per socket");
        let big_sockets = sockets.div_ceil(2);
        let cores = (0..sockets * cores_per_socket)
            .map(|i| {
                let socket = i / cores_per_socket;
                VirtualCore {
                    id: CoreId(i),
                    kind: if socket < big_sockets {
                        CoreKind::Big
                    } else {
                        CoreKind::Little
                    },
                    socket,
                }
            })
            .collect();
        Topology {
            cores,
            perf_ratio: 1.0,
            name: "numa",
        }
    }

    /// Apple-M1-like: 4 big + 4 little, little cores 3× slower.
    pub fn apple_m1() -> Self {
        let mut t = Self::custom(4, 4, 3.0);
        t.name = "apple-m1";
        t
    }

    /// HiKey970-like (ARM big.LITTLE): 4 + 4, little cores 2.2× slower.
    pub fn hikey970() -> Self {
        let mut t = Self::custom(4, 4, 2.2);
        t.name = "hikey970";
        t
    }

    /// The paper's per-core-DVFS-simulated Intel AMP: 4 + 4, 2× gap.
    pub fn intel_dvfs() -> Self {
        let mut t = Self::custom(4, 4, 2.0);
        t.name = "intel-dvfs";
        t
    }

    /// A symmetric machine (every core big); useful as a control.
    pub fn symmetric(n: usize) -> Self {
        let mut t = Self::custom(n, 0, 1.0);
        t.name = "symmetric";
        t
    }

    /// Human-readable topology name for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// All cores, big cores first.
    pub fn cores(&self) -> &[VirtualCore] {
        &self.cores
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the topology has no cores (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Number of big cores.
    pub fn big_count(&self) -> usize {
        self.cores
            .iter()
            .filter(|c| c.kind == CoreKind::Big)
            .count()
    }

    /// Number of little cores.
    pub fn little_count(&self) -> usize {
        self.len() - self.big_count()
    }

    /// Little-core slowdown factor.
    pub fn perf_ratio(&self) -> f64 {
        self.perf_ratio
    }

    /// Core by id.
    pub fn core(&self, id: CoreId) -> VirtualCore {
        self.cores[id.0]
    }

    /// NUMA socket of a core.
    pub fn socket_of(&self, id: CoreId) -> usize {
        self.cores[id.0].socket
    }

    /// The work multiplier for a core class: 1.0 for big cores,
    /// `perf_ratio` for little cores.
    pub fn work_multiplier(&self, kind: CoreKind) -> f64 {
        match kind {
            CoreKind::Big => 1.0,
            CoreKind::Little => self.perf_ratio,
        }
    }

    /// The core a worker thread with index `i` is bound to, following
    /// the paper's evaluation binding: threads fill big cores first,
    /// then little cores ("The first 4 threads are bound to different
    /// big cores. Others are bound to different little cores.").
    pub fn assignment_for_thread(&self, i: usize) -> VirtualCore {
        self.cores[i % self.cores.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m1_shape() {
        let t = Topology::apple_m1();
        assert_eq!(t.len(), 8);
        assert_eq!(t.big_count(), 4);
        assert_eq!(t.little_count(), 4);
        assert_eq!(t.core(CoreId(0)).kind, CoreKind::Big);
        assert_eq!(t.core(CoreId(4)).kind, CoreKind::Little);
        assert!(t.perf_ratio() > 1.0);
    }

    #[test]
    fn thread_assignment_fills_big_first() {
        let t = Topology::apple_m1();
        for i in 0..4 {
            assert_eq!(t.assignment_for_thread(i).kind, CoreKind::Big, "thread {i}");
        }
        for i in 4..8 {
            assert_eq!(
                t.assignment_for_thread(i).kind,
                CoreKind::Little,
                "thread {i}"
            );
        }
        // Oversubscription wraps around (2 threads per core).
        assert_eq!(t.assignment_for_thread(8).id, CoreId(0));
        assert_eq!(t.assignment_for_thread(15).id, CoreId(7));
    }

    #[test]
    fn work_multiplier() {
        let t = Topology::custom(1, 1, 2.5);
        assert_eq!(t.work_multiplier(CoreKind::Big), 1.0);
        assert_eq!(t.work_multiplier(CoreKind::Little), 2.5);
    }

    #[test]
    fn symmetric_has_no_littles() {
        let t = Topology::symmetric(8);
        assert_eq!(t.little_count(), 0);
        assert_eq!(t.work_multiplier(CoreKind::Little), 1.0);
    }

    #[test]
    fn speedup_bound_matches_paper() {
        // Paper footnote 5: ratio 2.6 -> (2.6+1)/2 = 1.8x bound when
        // big cores always run against big and little alternating.
        let t = Topology::custom(4, 4, 2.6);
        let bound = (t.work_multiplier(CoreKind::Little) + 1.0) / 2.0;
        assert!((bound - 1.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_sub_unit_ratio() {
        let _ = Topology::custom(2, 2, 0.5);
    }

    #[test]
    fn classes_are_clusters() {
        let t = Topology::apple_m1();
        assert_eq!(t.socket_of(CoreId(0)), 0);
        assert_eq!(t.socket_of(CoreId(3)), 0);
        assert_eq!(t.socket_of(CoreId(4)), 1);
        assert_eq!(t.socket_of(CoreId(7)), 1);
        let flat = Topology::symmetric(4);
        assert!((0..4).all(|i| flat.socket_of(CoreId(i)) == 0));
    }

    #[test]
    fn numa_shape() {
        let t = Topology::numa(4, 16);
        assert_eq!(t.len(), 64);
        assert_eq!(t.perf_ratio(), 1.0);
        // Kinds double as the two batching domains: sockets 0-1 big,
        // sockets 2-3 little.
        assert_eq!(t.core(CoreId(0)).socket, 0);
        assert_eq!(t.core(CoreId(16)).socket, 1);
        assert_eq!(t.core(CoreId(63)).socket, 3);
        assert_eq!(t.big_count(), 32);
        assert_eq!(t.core(CoreId(31)).kind, CoreKind::Big);
        assert_eq!(t.core(CoreId(32)).kind, CoreKind::Little);
        // Symmetric: little "class" runs at full speed.
        assert_eq!(t.work_multiplier(CoreKind::Little), 1.0);
    }

    #[test]
    fn labels() {
        assert_eq!(CoreKind::Big.label(), "big");
        assert_eq!(CoreKind::Little.label(), "little");
    }
}
