//! The benchmark binary; see the library for everything but the
//! allocator.

#[global_allocator]
static ALLOC: iiot_benchmark::alloc::CountingAlloc = iiot_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    iiot_benchmark::cli::main()
}
