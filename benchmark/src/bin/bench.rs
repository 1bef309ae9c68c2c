//! The untraced benchmark binary: the system allocator, untouched.

fn main() {
    std::process::exit(sdnshield_benchmark::main_with(None));
}
