//! Figure 7: the KHop grid across WRN / UK0705 / Twitter and all
//! cluster sizes.

fn main() {
    graphbench_repro::traversal_grid("fig07", graphbench_algos::WorkloadKind::KHop);
}
