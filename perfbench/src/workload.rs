//! The three named workloads and the four designs each one runs.

use blink::PageLayout;
use nam::{NamCluster, PartitionMap};
use namdex_core::{CoarseGrained, Design, FgConfig, FineGrained, Hybrid, Learned};
use rdma_sim::Durability;
use simnet::SimDur;
use ycsb::{Dataset, InsertPattern, RequestDist, Workload};

/// Memory servers in every workload (the paper's 2 machines × 2 ports).
pub const MEMORY_SERVERS: usize = 4;
/// Closed-loop clients per design (the paper's §6.1 compute load).
pub const CLIENTS: usize = 120;
/// Index page size.
pub const PAGE_SIZE: usize = PageLayout::DEFAULT_PAGE_SIZE;

/// One of the four index designs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesignKind {
    /// Coarse-grained, two-sided.
    Cg,
    /// Fine-grained, one-sided.
    Fg,
    /// Hybrid.
    Hybrid,
    /// Learned routing over the hybrid layout.
    Learned,
}

/// Run order within a workload.
pub const DESIGNS: [DesignKind; 4] = [
    DesignKind::Cg,
    DesignKind::Fg,
    DesignKind::Hybrid,
    DesignKind::Learned,
];

impl DesignKind {
    /// Metric-name suffix.
    pub fn tag(self) -> &'static str {
        match self {
            DesignKind::Cg => "cg",
            DesignKind::Fg => "fg",
            DesignKind::Hybrid => "hybrid",
            DesignKind::Learned => "learned",
        }
    }
}

/// A named workload: the op mix, the loaded data and the cluster it runs
/// on, and the virtual-time warm-up and measured window.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Operation mix.
    pub mix: Workload,
    /// Loaded records.
    pub num_keys: u64,
    /// 80/12/5/3 attribute-value skew for the range-partitioned designs
    /// (fine-grained leaves stay round-robin); uniform otherwise.
    pub skewed: bool,
    /// Server durability model.
    pub durability: Durability,
    /// Install the happens-before race detector.
    pub racecheck: bool,
    /// Virtual warm-up before the window.
    pub warmup: SimDur,
    /// Virtual length of the measured window.
    pub window: SimDur,
}

impl WorkloadSpec {
    /// All workloads, in `BENCHMARK.json` order.
    pub fn all() -> [WorkloadSpec; 3] {
        [
            WorkloadSpec {
                name: "point-10m",
                mix: Workload::a(),
                num_keys: 10_000_000,
                skewed: false,
                durability: Durability::Off,
                racecheck: false,
                warmup: SimDur::from_millis(5),
                window: SimDur::from_millis(100),
            },
            WorkloadSpec {
                name: "write-wal",
                mix: Workload::d(),
                num_keys: 1_000_000,
                skewed: false,
                durability: Durability::Wal,
                racecheck: false,
                warmup: SimDur::from_millis(5),
                window: SimDur::from_millis(120),
            },
            WorkloadSpec {
                name: "scan-checked",
                mix: Workload {
                    point_frac: 0.0,
                    range_frac: 0.9,
                    insert_frac: 0.1,
                    selectivity: 0.001,
                    dist: RequestDist::Uniform,
                    insert_pattern: InsertPattern::Scattered,
                },
                num_keys: 1_000_000,
                skewed: true,
                durability: Durability::Off,
                racecheck: true,
                warmup: SimDur::from_millis(5),
                window: SimDur::from_millis(30),
            },
        ]
    }

    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// The loaded data set.
    pub fn dataset(&self) -> Dataset {
        Dataset::new(self.num_keys)
    }

    /// Bulk-load `design` over the workload's data on `nam`.
    pub fn build(&self, design: DesignKind, nam: &NamCluster) -> Design {
        let data = self.dataset();
        let layout = PageLayout::new(PAGE_SIZE);
        let n = nam.num_servers();
        let range = if self.skewed {
            assert_eq!(n, 4, "the 80/12/5/3 profile is defined for 4 servers");
            PartitionMap::range_fractions(&[0.80, 0.12, 0.05, 0.03], data.domain())
        } else {
            PartitionMap::range_uniform(n, data.domain())
        };
        let fg = FgConfig {
            layout,
            fill: 0.7,
            head_stride: 8,
            cache_capacity: None,
        };
        match design {
            DesignKind::Cg => {
                Design::Cg(CoarseGrained::build(nam, layout, range, data.iter(), 0.7))
            }
            DesignKind::Fg => Design::Fg(FineGrained::build(&nam.rdma, fg, data.iter())),
            DesignKind::Hybrid => Design::Hybrid(Hybrid::build(nam, fg, range, data.iter())),
            DesignKind::Learned => Design::Learned(Learned::build(nam, fg, range, data.iter())),
        }
    }
}
