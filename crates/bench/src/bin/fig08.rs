//! Figure 8: the Sssp grid across WRN / UK0705 / Twitter and all
//! cluster sizes.

fn main() {
    graphbench_repro::traversal_grid("fig08", graphbench_algos::WorkloadKind::Sssp);
}
