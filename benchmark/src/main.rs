fn main() {
    std::process::exit(ltsp_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
