fn main() {
    graphbench_repro::main()
}
